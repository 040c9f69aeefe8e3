package bench

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"aquila/internal/progs"
	"aquila/internal/verify"
)

// preprocConfigs are the four formula-shrinking configurations the sweep
// compares. "baseline" is the PR-3 engine untouched; the other three
// switch on CNF preprocessing, cone-of-influence slicing, or both.
var preprocConfigs = []struct {
	Name       string
	Preprocess bool
	Slice      bool
}{
	{"baseline", false, false},
	{"preprocess", true, false},
	{"slice", false, true},
	{"both", true, true},
}

// PreprocRow is one (config, mode, workers) measurement of the
// preprocessing sweep: find-all verification of the same program with a
// given combination of CNF preprocessing and COI slicing.
type PreprocRow struct {
	Config  string `json:"config"` // baseline|preprocess|slice|both
	Mode    string `json:"mode"`   // "fresh" or "incremental"
	Workers int    `json:"workers"`
	// WallMS / SolveCPUMS come from the best-of-repeats run.
	WallMS     float64 `json:"wall_ms"`
	SolveCPUMS float64 `json:"solve_cpu_ms"`
	// CNFClauses is the retained clause footprint across all solvers of
	// the run; Propagations is the SAT core's total unit-propagation
	// count — the two quantities preprocessing and slicing exist to
	// shrink.
	CNFClauses   int64 `json:"cnf_clauses"`
	Propagations int64 `json:"propagations"`
	// Preprocessing work actually performed (zero in baseline/slice).
	ElimVars        int64 `json:"elim_vars,omitempty"`
	SubsumedClauses int64 `json:"subsumed_clauses,omitempty"`
	// Slicing work actually performed (zero in baseline/preprocess).
	SliceDropped int64 `json:"slice_dropped,omitempty"`
	// RelWall is this row's wall time divided by the baseline fresh
	// workers=1 wall time of the same run. Unlike WallMS it is
	// comparable across machines, so it is what ComparePreproc checks.
	RelWall float64 `json:"rel_wall"`
	// Identical reports whether this row's canonical report bytes match
	// the baseline fresh workers=1 report exactly.
	Identical bool `json:"identical"`
	Bugs      int  `json:"bugs"`
}

// PreprocResult is the whole preprocessing/slicing sweep.
type PreprocResult struct {
	Program    string `json:"program"`
	Assertions int    `json:"assertions"`
	CPUs       int    `json:"cpus"`
	Repeats    int    `json:"repeats"`
	// ClauseReduction and PropagationReduction compare the "both" config
	// against "baseline" at incremental mode, workers=1 — the shipping
	// configuration — giving the headline "shrink every formula before it
	// hits the SAT core" savings. Fresh mode is not the headline because
	// every violated assertion there pays a full plain re-solve to keep
	// reports byte-identical, which on bug-dense programs (DC Gateway
	// violates most of its assertions) can outweigh the shrink.
	ClauseReduction      float64      `json:"clause_reduction"`
	PropagationReduction float64      `json:"propagation_reduction"`
	Rows                 []PreprocRow `json:"rows"`
}

// Preproc sweeps find-all verification of bm over the four preprocessing
// configurations × {fresh, incremental} × workerCounts (each run repeated
// `repeats` times, best wall time kept). Every row must reproduce the
// baseline fresh workers=1 canonical report byte for byte. The first
// entry of workerCounts must be 1 (the identity and RelWall baseline).
func Preproc(bm *progs.Benchmark, workerCounts []int, repeats int) (*PreprocResult, error) {
	if len(workerCounts) == 0 || workerCounts[0] != 1 {
		return nil, fmt.Errorf("bench: preproc sweep needs workerCounts starting at 1, got %v", workerCounts)
	}
	if repeats < 1 {
		repeats = 1
	}
	prog, err := bm.Parse()
	if err != nil {
		return nil, err
	}
	spec, err := lpiParse(progs.InvalidHeaderAccessSpec(prog, bm.Calls))
	if err != nil {
		return nil, err
	}
	res := &PreprocResult{
		Program: bm.Name,
		CPUs:    runtime.GOMAXPROCS(0),
		Repeats: repeats,
	}
	var baseline []byte
	var baseWall time.Duration
	var baseClauses, baseProps, bothClauses, bothProps int64
	for _, cfg := range preprocConfigs {
		for _, incremental := range []bool{false, true} {
			for _, w := range workerCounts {
				var best time.Duration
				var bestRep *verify.Report
				for r := 0; r < repeats; r++ {
					opts := verify.Options{FindAll: true, Parallel: w,
						Incremental: incremental, Simplify: incremental,
						Preprocess: cfg.Preprocess, Slice: cfg.Slice}
					start := time.Now()
					rep, err := verify.Run(prog, nil, spec, opts)
					wall := time.Since(start)
					if err != nil {
						return nil, fmt.Errorf("bench: preproc config=%s incremental=%v workers=%d: %w",
							cfg.Name, incremental, w, err)
					}
					if bestRep == nil || wall < best {
						best, bestRep = wall, rep
					}
				}
				canon, err := bestRep.CanonicalJSON()
				if err != nil {
					return nil, err
				}
				if baseline == nil {
					baseline, baseWall = canon, best
					res.Assertions = bestRep.Stats.Assertions
				}
				mode := "fresh"
				if incremental {
					mode = "incremental"
				}
				if incremental && w == 1 {
					switch cfg.Name {
					case "baseline":
						baseClauses = int64(bestRep.Stats.CNFClauses)
						baseProps = bestRep.Stats.Propagations
					case "both":
						bothClauses = int64(bestRep.Stats.CNFClauses)
						bothProps = bestRep.Stats.Propagations
					}
				}
				res.Rows = append(res.Rows, PreprocRow{
					Config:          cfg.Name,
					Mode:            mode,
					Workers:         w,
					WallMS:          float64(best.Microseconds()) / 1000,
					SolveCPUMS:      float64(bestRep.Stats.SolveCPU.Microseconds()) / 1000,
					CNFClauses:      int64(bestRep.Stats.CNFClauses),
					Propagations:    bestRep.Stats.Propagations,
					ElimVars:        bestRep.Stats.ElimVars,
					SubsumedClauses: bestRep.Stats.SubsumedClauses,
					SliceDropped:    bestRep.Stats.SliceDropped,
					RelWall:         float64(best) / float64(baseWall),
					Identical:       bytes.Equal(canon, baseline),
					Bugs:            len(bestRep.Violations),
				})
			}
		}
	}
	if baseClauses > 0 {
		res.ClauseReduction = 1 - float64(bothClauses)/float64(baseClauses)
	}
	if baseProps > 0 {
		res.PropagationReduction = 1 - float64(bothProps)/float64(baseProps)
	}
	return res, nil
}

// ComparePreproc checks a fresh sweep against a checked-in reference and
// reports a regression error when the current run is meaningfully worse.
// Absolute wall times are machine-dependent, so the comparison works on
// each row's RelWall — wall time relative to that same run's baseline
// fresh workers=1 row. A preprocessing/slicing config whose relative
// wall time grew more than 20% beyond the reference ratio is a
// regression; so is any non-identical report or a vanished clause
// reduction.
func ComparePreproc(ref, cur *PreprocResult) error {
	const slack = 1.20
	refRel := make(map[string]float64, len(ref.Rows))
	for _, row := range ref.Rows {
		refRel[row.Config+"/"+row.Mode+"/"+fmt.Sprint(row.Workers)] = row.RelWall
	}
	var problems []string
	for _, row := range cur.Rows {
		key := row.Config + "/" + row.Mode + "/" + fmt.Sprint(row.Workers)
		if !row.Identical {
			problems = append(problems, fmt.Sprintf("%s: canonical report differs from baseline", key))
			continue
		}
		old, ok := refRel[key]
		if !ok || old <= 0 {
			continue // new configuration: nothing to compare against
		}
		if row.RelWall > old*slack {
			problems = append(problems,
				fmt.Sprintf("%s: relative wall time %.2f exceeds reference %.2f by more than %.0f%%",
					key, row.RelWall, old, 100*(slack-1)))
		}
	}
	if ref.ClauseReduction > 0 && cur.ClauseReduction <= 0 {
		problems = append(problems, fmt.Sprintf(
			"clause reduction vanished: reference %.1f%%, current %.1f%%",
			100*ref.ClauseReduction, 100*cur.ClauseReduction))
	}
	if len(problems) > 0 {
		return fmt.Errorf("bench: preproc regression on %s:\n  %s",
			cur.Program, strings.Join(problems, "\n  "))
	}
	return nil
}

// FormatPreproc renders the sweep as the usual aquila-bench table.
func FormatPreproc(r *PreprocResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "CNF preprocessing + COI slicing sweep: %s (%d assertions, %d CPUs, best of %d)\n",
		r.Program, r.Assertions, r.CPUs, r.Repeats)
	fmt.Fprintf(&b, "%-11s  %-12s  %-8s  %9s  %12s  %9s  %11s  %8s  %7s  %8s  %9s\n",
		"config", "mode", "workers", "wall ms", "solve-cpu ms", "clauses", "propagations",
		"elim", "subsum", "sliced", "identical")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-11s  %-12s  %-8d  %9.1f  %12.1f  %9d  %11d  %8d  %7d  %8d  %9v\n",
			row.Config, row.Mode, row.Workers, row.WallMS, row.SolveCPUMS,
			row.CNFClauses, row.Propagations, row.ElimVars, row.SubsumedClauses,
			row.SliceDropped, row.Identical)
	}
	fmt.Fprintf(&b, "clause reduction (both vs baseline, incremental workers=1): %.1f%%\n",
		100*r.ClauseReduction)
	fmt.Fprintf(&b, "propagation reduction (both vs baseline, incremental workers=1): %.1f%%\n",
		100*r.PropagationReduction)
	return b.String()
}
