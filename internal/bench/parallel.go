package bench

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"aquila/internal/obs"
	"aquila/internal/progs"
	"aquila/internal/verify"
)

// ParallelRow is one measurement of the parallel-engine sweep: find-all
// verification of the same program at a fixed worker count.
type ParallelRow struct {
	Workers int `json:"workers"`
	// WallMS is the best-of-repeats find-all wall time (encode + solve).
	WallMS float64 `json:"wall_ms"`
	// SolveMS / SolveCPUMS are the solving phase's wall clock and the
	// cumulative per-check CPU from the same (best) run. SolveCPUMS is
	// worker-count independent modulo noise — the fair cost metric.
	SolveMS    float64 `json:"solve_ms"`
	SolveCPUMS float64 `json:"solve_cpu_ms"`
	// Speedup is wall(baseline row) / wall(this row); the baseline is the
	// first row (workers=1).
	Speedup float64 `json:"speedup"`
	// CPUBound marks a multi-worker row measured on a single effective
	// CPU: its wall-clock speedup is bounded at 1.0x by the host, not by
	// the engine, so consumers (CI gates included) must not read the
	// Speedup column as an engine regression.
	CPUBound bool `json:"cpu_bound,omitempty"`
	// Identical reports whether this row's canonical report bytes match
	// the baseline exactly — the determinism contract at every worker count.
	Identical bool `json:"identical"`
	Bugs      int  `json:"bugs"`
	// StragglerIndex is max worker busy time over mean worker busy time
	// from the best run's trace (1.0 = perfectly balanced): the load
	// imbalance a heavy assertion causes. Meaningful from busy-time ratios
	// even on a single-CPU host.
	StragglerIndex float64 `json:"straggler_index,omitempty"`
}

// ParallelResult is one program's sweep plus the context needed to judge
// it.
type ParallelResult struct {
	Program    string `json:"program"`
	Assertions int    `json:"assertions"`
	// CPUs is runtime.GOMAXPROCS(0) — speedup is bounded by it, so a
	// 1-CPU container cannot show wall-clock gains at any worker count.
	CPUs int `json:"cpus"`
	// NumCPU is runtime.NumCPU(), the host's logical core count. It can
	// exceed CPUs when GOMAXPROCS is capped (cgroup limits, GOMAXPROCS
	// env); the effective parallelism is min(CPUs, NumCPU).
	NumCPU  int           `json:"num_cpu"`
	Repeats int           `json:"repeats"`
	Rows    []ParallelRow `json:"rows"`
}

// ParallelSuiteResult is the whole experiment: one sweep per program
// (the DC gateway for scale, the skewed-telemetry program for load
// imbalance), the shape BENCH_parallel.json records.
type ParallelSuiteResult struct {
	Sweeps []*ParallelResult `json:"sweeps"`
}

// SingleCPU reports whether the sweep ran with one effective CPU, in
// which case wall-clock speedup assertions are meaningless.
func (r *ParallelResult) SingleCPU() bool {
	return r.CPUs <= 1 || r.NumCPU <= 1
}

// Parallel sweeps find-all verification of bm over workerCounts (each
// point repeated `repeats` times, best wall time kept) and checks that
// every point reproduces the baseline canonical report byte for byte. The
// first entry of workerCounts must be 1 (the baseline point). Every run
// carries an in-process tracer so each row records its straggler index.
func Parallel(bm *progs.Benchmark, workerCounts []int, repeats int) (*ParallelResult, error) {
	if len(workerCounts) == 0 || workerCounts[0] != 1 {
		return nil, fmt.Errorf("bench: parallel sweep needs workerCounts starting at 1, got %v", workerCounts)
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
	res := &ParallelResult{
		Program: bm.Name,
		CPUs:    runtime.GOMAXPROCS(0),
		NumCPU:  runtime.NumCPU(),
		Repeats: repeats,
	}
	var baseline []byte
	var baseWall time.Duration
	for _, w := range workerCounts {
		var best time.Duration
		var bestRep *verify.Report
		var bestSink *obs.Obs
		for r := 0; r < repeats; r++ {
			// Each repeat gets its own tracer so the best run's spans can be
			// analyzed in isolation.
			sink := &obs.Obs{Tracer: obs.NewTracer()}
			start := time.Now()
			// Plain engine config (no preprocessing/slicing): the sweep
			// isolates the worker axis, and the preproc experiment already
			// covers the CNF passes. Slicing in particular shrinks the cheap
			// assertions to noise level, which would bury the load-imbalance
			// signal the straggler column exists to show.
			rep, err := verify.Run(prog, nil, spec, verify.Options{
				FindAll: true, Parallel: w, Obs: sink,
			})
			wall := time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("bench: parallel workers=%d: %w", w, err)
			}
			if bestRep == nil || wall < best {
				best, bestRep, bestSink = wall, rep, sink
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
		row := ParallelRow{
			Workers:    w,
			WallMS:     float64(best.Microseconds()) / 1000,
			SolveMS:    float64(bestRep.Stats.SolveTime.Microseconds()) / 1000,
			SolveCPUMS: float64(bestRep.Stats.SolveCPU.Microseconds()) / 1000,
			Speedup:    float64(baseWall) / float64(best),
			CPUBound:   w > 1 && res.SingleCPU(),
			Identical:  bytes.Equal(canon, baseline),
			Bugs:       len(bestRep.Violations),
		}
		if util, err := obs.Analyze(bestSink.Tracer.Events()); err == nil {
			row.StragglerIndex = util.StragglerIndex
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// ParallelSuite runs the worker sweep on each benchmark.
func ParallelSuite(bms []*progs.Benchmark, workerCounts []int, repeats int) (*ParallelSuiteResult, error) {
	out := &ParallelSuiteResult{}
	for _, bm := range bms {
		res, err := Parallel(bm, workerCounts, repeats)
		if err != nil {
			return nil, err
		}
		out.Sweeps = append(out.Sweeps, res)
	}
	return out, nil
}

// FormatParallel renders one sweep as the usual aquila-bench table.
func FormatParallel(r *ParallelResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Parallel find-all sweep: %s (%d assertions, %d CPUs of %d cores, best of %d)\n",
		r.Program, r.Assertions, r.CPUs, r.NumCPU, r.Repeats)
	fmt.Fprintf(&b, "%-8s  %10s  %10s  %12s  %8s  %9s  %4s  %9s\n",
		"workers", "wall ms", "solve ms", "solve-cpu ms", "speedup", "identical", "bugs", "straggler")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8d  %10.1f  %10.1f  %12.1f  %7.2fx  %9v  %4d  %9.2f\n",
			row.Workers, row.WallMS, row.SolveMS, row.SolveCPUMS, row.Speedup,
			row.Identical, row.Bugs, row.StragglerIndex)
	}
	if r.SingleCPU() {
		b.WriteString("note: single-CPU host — multi-worker rows are cpu_bound, wall-clock speedup is bounded at 1.0x; solve-cpu ms shows the worker-count-independent cost, straggler index the busy-time imbalance.\n")
	}
	return b.String()
}

// FormatParallelSuite renders every sweep.
func FormatParallelSuite(r *ParallelSuiteResult) string {
	var b strings.Builder
	for i, res := range r.Sweeps {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(FormatParallel(res))
	}
	return b.String()
}
