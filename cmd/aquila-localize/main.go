// Command aquila-localize runs Aquila's automatic bug localization (§5 of
// the paper) on a program whose specification is violated: it reports
// either the minimal set of tables whose entries can fix the violation or
// the candidate program locations (action + variable) whose change can.
//
// Usage:
//
//	aquila-localize -spec spec.lpi [-p4 prog.p4] [-entries snap.txt]
//	                [-budget N] [-parallel N] [-incremental]
//	                [-simplify=false] [-preprocess] [-slice]
//	                [-trace out.json] [-pprof cpu.out] [-memprofile mem.out] [-v]
//
// -incremental makes the find-violations pass and the causality filter
// share one blasted solver per worker shard (activation literals over the
// common prefix) instead of a fresh solver per query; -simplify (default
// true) adds the algebraic pre-blast pass. -preprocess enables CNF
// preprocessing in every verdict-only solver (the model-extracting MaxSAT
// repair solver stays plain); -slice applies cone-of-influence slicing in
// the find-violations pass. Results are identical under every
// combination of these flags.
//
// -trace writes a Chrome trace-event JSON covering the localization
// pipeline (find-violations, table-entry repair, causality filter, fix
// simulation) with per-worker thread rows.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"aquila"
	"aquila/internal/obs"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		p4Path     = flag.String("p4", "", "P4lite program (overrides the spec's config path)")
		specPath   = flag.String("spec", "", "LPI specification file (required)")
		entries    = flag.String("entries", "", "table-entry snapshot file")
		budget     = flag.Int64("budget", 0, "SAT conflict budget per query (0: unlimited)")
		parallel   = flag.Int("parallel", 0, fmt.Sprintf("worker goroutines for localization re-checks (0: GOMAXPROCS, currently %d; 1: serial)", runtime.GOMAXPROCS(0)))
		incr       = flag.Bool("incremental", false, "shared-prefix incremental solving for verification and the causality filter")
		simplify   = flag.Bool("simplify", true, "algebraic simplification pass before blasting (incremental mode only)")
		preproc    = flag.Bool("preprocess", false, "SatELite-style CNF preprocessing in verdict-only solvers")
		slice      = flag.Bool("slice", false, "per-assertion cone-of-influence slicing in the find-violations pass")
		tracePath  = flag.String("trace", "", "write Chrome trace-event JSON of the localization phases")
		cpuProf    = flag.String("pprof", "", "write CPU profile (go tool pprof)")
		memProf    = flag.String("memprofile", "", "write heap profile on exit")
		verbose    = flag.Bool("v", false, "structured JSONL log on stderr")
		progress   = flag.Bool("progress", false, "live solver-heartbeat status line on stderr")
		metricsOut = flag.String("metrics", "", "write OpenMetrics text exposition of the metrics registry on exit")
	)
	flag.Parse()
	if *specPath == "" {
		flag.Usage()
		return 2
	}
	opts := aquila.Options{
		Budget: *budget, Parallel: *parallel,
		Incremental: *incr, Simplify: *simplify,
		Preprocess: *preproc, Slice: *slice,
	}

	o, closeObs, err := obs.Setup(obs.Config{
		TracePath: *tracePath, CPUProfilePath: *cpuProf,
		MemProfilePath: *memProf, Verbose: *verbose,
		Progress: *progress, MetricsPath: *metricsOut,
	})
	if err != nil {
		return fail(err)
	}
	obs.SetDefault(o)
	code := localizeMain(*p4Path, *specPath, *entries, opts)
	if err := closeObs(); err != nil {
		return fail(err)
	}
	return code
}

func localizeMain(p4Path, specPath, entries string, opts aquila.Options) int {
	spec, err := aquila.LoadSpec(specPath)
	if err != nil {
		return fail(err)
	}
	progPath := p4Path
	if progPath == "" {
		progPath = spec.Config["path"]
		if progPath != "" && !filepath.IsAbs(progPath) {
			progPath = filepath.Join(filepath.Dir(specPath), progPath)
		}
	}
	if progPath == "" {
		return fail(fmt.Errorf("no program: pass -p4 or set `config { path = ...; }` in the spec"))
	}
	prog, err := aquila.LoadProgram(progPath)
	if err != nil {
		return fail(err)
	}
	var snap *aquila.Snapshot
	if entries != "" {
		snap, err = aquila.LoadSnapshot(entries)
		if err != nil {
			return fail(err)
		}
	}
	result, err := aquila.Localize(prog, snap, spec, opts)
	if err != nil {
		return fail(err)
	}
	fmt.Print(result.String())
	if result.Kind != aquila.BugNone {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "aquila-localize:", err)
	return 2
}
