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

// IncrementalRow is one (mode, workers) measurement of the incremental
// sweep: find-all verification of the same program, either blasting every
// assertion into a fresh solver ("fresh") or sharing the blasted VC prefix
// across a shard's checks via activation literals ("incremental").
type IncrementalRow struct {
	Mode    string `json:"mode"` // "fresh" or "incremental"
	Workers int    `json:"workers"`
	// WallMS / SolveCPUMS come from the best-of-repeats run.
	WallMS     float64 `json:"wall_ms"`
	SolveCPUMS float64 `json:"solve_cpu_ms"`
	// TseitinClauses is the total CNF clause production of the run — the
	// quantity incremental mode exists to shrink. CNFClauses counts the
	// clauses live in solvers at the end of each check.
	TseitinClauses int64 `json:"tseitin_clauses"`
	CNFClauses     int64 `json:"cnf_clauses"`
	// PrefixClauses is the one-time shared-prefix blast cost per shard
	// (0 in fresh mode); SimplifyRewrites counts simplifier hits.
	PrefixClauses    int64 `json:"prefix_clauses,omitempty"`
	SimplifyRewrites int64 `json:"simplify_rewrites,omitempty"`
	// Speedup is wall(fresh, workers=1) / wall(this row).
	Speedup float64 `json:"speedup"`
	// Identical reports whether this row's canonical report bytes match
	// the fresh workers=1 baseline exactly.
	Identical bool `json:"identical"`
	Bugs      int  `json:"bugs"`
}

// IncrementalResult is the whole fresh-vs-incremental sweep.
type IncrementalResult struct {
	Program    string `json:"program"`
	Assertions int    `json:"assertions"`
	CPUs       int    `json:"cpus"`
	Repeats    int    `json:"repeats"`
	// ClauseReduction is 1 - incremental/fresh total Tseitin clauses, both
	// at workers=1 — the headline "blast once, check many" saving.
	ClauseReduction float64          `json:"clause_reduction"`
	Rows            []IncrementalRow `json:"rows"`
}

// Incremental sweeps find-all verification of bm in fresh and incremental
// mode over workerCounts (each run repeated `repeats` times, best wall
// time kept). Every row must reproduce the fresh workers=1 canonical
// report byte for byte; the incremental rows must produce strictly fewer
// Tseitin clauses than fresh mode. The first entry of workerCounts must
// be 1 (the speedup and identity baseline).
func Incremental(bm *progs.Benchmark, workerCounts []int, repeats int) (*IncrementalResult, error) {
	if len(workerCounts) == 0 || workerCounts[0] != 1 {
		return nil, fmt.Errorf("bench: incremental sweep needs workerCounts starting at 1, got %v", workerCounts)
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
	res := &IncrementalResult{
		Program: bm.Name,
		CPUs:    runtime.GOMAXPROCS(0),
		Repeats: repeats,
	}
	var baseline []byte
	var baseWall time.Duration
	var freshClauses, incrClauses int64
	for _, incremental := range []bool{false, true} {
		for _, w := range workerCounts {
			var best time.Duration
			var bestRep *verify.Report
			for r := 0; r < repeats; r++ {
				// Preprocessing and slicing are on by default in the bench
				// experiments: the sweep measures the shipping configuration.
				opts := verify.Options{FindAll: true, Parallel: w,
					Incremental: incremental, Simplify: incremental,
					Preprocess: true, Slice: true}
				start := time.Now()
				rep, err := verify.Run(prog, nil, spec, opts)
				wall := time.Since(start)
				if err != nil {
					return nil, fmt.Errorf("bench: incremental=%v workers=%d: %w", incremental, w, err)
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
			if w == 1 {
				if incremental {
					incrClauses = bestRep.Stats.TseitinClauses
				} else {
					freshClauses = bestRep.Stats.TseitinClauses
				}
			}
			res.Rows = append(res.Rows, IncrementalRow{
				Mode:             mode,
				Workers:          w,
				WallMS:           float64(best.Microseconds()) / 1000,
				SolveCPUMS:       float64(bestRep.Stats.SolveCPU.Microseconds()) / 1000,
				TseitinClauses:   bestRep.Stats.TseitinClauses,
				CNFClauses:       int64(bestRep.Stats.CNFClauses),
				PrefixClauses:    bestRep.Stats.PrefixClauses,
				SimplifyRewrites: bestRep.Stats.SimplifyRewrites,
				Speedup:          float64(baseWall) / float64(best),
				Identical:        bytes.Equal(canon, baseline),
				Bugs:             len(bestRep.Violations),
			})
		}
	}
	if freshClauses > 0 {
		res.ClauseReduction = 1 - float64(incrClauses)/float64(freshClauses)
	}
	return res, nil
}

// FormatIncremental renders the sweep as the usual aquila-bench table.
func FormatIncremental(r *IncrementalResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Incremental find-all sweep: %s (%d assertions, %d CPUs, best of %d)\n",
		r.Program, r.Assertions, r.CPUs, r.Repeats)
	fmt.Fprintf(&b, "%-12s  %-8s  %10s  %12s  %10s  %8s  %8s  %9s  %4s\n",
		"mode", "workers", "wall ms", "solve-cpu ms", "tseitin", "prefix", "speedup", "identical", "bugs")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s  %-8d  %10.1f  %12.1f  %10d  %8d  %7.2fx  %9v  %4d\n",
			row.Mode, row.Workers, row.WallMS, row.SolveCPUMS,
			row.TseitinClauses, row.PrefixClauses, row.Speedup, row.Identical, row.Bugs)
	}
	fmt.Fprintf(&b, "clause reduction (workers=1, incremental vs fresh): %.1f%%\n",
		100*r.ClauseReduction)
	return b.String()
}
