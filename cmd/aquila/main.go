// Command aquila verifies a P4lite program against an LPI specification —
// the paper's Figure 1 workflow: specification in, "no violation" or a
// debugging report out.
//
// Usage:
//
//	aquila -spec spec.lpi [-p4 prog.p4] [-entries snap.txt] [-all]
//	       [-parser sequential|tree] [-table abvtree|abvlinear|naive]
//	       [-packet kv|bitvector] [-budget N] [-parallel N]
//	       [-incremental] [-simplify=false] [-preprocess] [-slice] [-stream]
//	       [-trace out.json] [-pprof cpu.out] [-memprofile mem.out] [-v]
//	       [-progress] [-metrics out.om] [-watchdog 30s]
//	       [-churn deltas.txt]
//
// -churn replays a "---"-separated table-delta sequence through a warm
// re-verification session (aquila.Session): the program is loaded and
// verified once, then each delta re-verifies only what its blast radius
// touches, with unchanged verdicts replayed from cache. Each step's
// report is byte-identical to a fresh verification of the mutated
// snapshot.
//
// Find-all checks (-all) run one engine loop with two solver policies: a
// deterministic fresh solver per assertion (the default), or
// -incremental, which shares one solver per worker shard (blast the
// common VC prefix once, check each assertion under an activation
// literal); -incremental implies -all. -simplify (default true) controls
// the algebraic pre-blast simplification pass in that mode. -preprocess
// enables SatELite-style CNF preprocessing in the SAT core; -slice drops
// VC conjuncts outside each assertion's cone of influence before blasting
// (find-all modes). -stream is a memory policy of the serial loop: it
// releases each assertion's transient terms after its check (implies
// -all). Reports are byte-identical to the default fresh-solver mode
// under every combination of these flags; incompatible combinations
// (e.g. -stream with -parallel 2) are rejected up front with an error
// naming the conflict.
//
// The P4 program may also be named by the spec's config section
// (`config { path = prog.p4; }`), or selected from the built-in corpus
// with -builtin (e.g. `aquila -builtin dc-gateway -all`, which infers the
// undefined-behaviour spec — handy for smoke tests and CI; `skewed` is
// a deliberately load-imbalanced benchmark with one heavy assertion).
//
// -trace writes a Chrome trace-event JSON (load it in chrome://tracing or
// Perfetto) with one span per pipeline phase and per assertion solve;
// under -parallel each worker appears as its own thread row.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"aquila"
	"aquila/internal/encode"
	"aquila/internal/obs"
	"aquila/internal/progs"
)

func main() { os.Exit(run()) }

// run is main with an exit code, so the observability closers (trace
// flush, profile writes) registered before the verdict always execute.
func run() int {
	var (
		p4Path     = flag.String("p4", "", "P4lite program (overrides the spec's config path)")
		specPath   = flag.String("spec", "", "LPI specification file (required unless -builtin)")
		builtin    = flag.String("builtin", "", "verify a built-in benchmark program (dc-gateway, skewed) under its inferred undefined-behaviour spec")
		entries    = flag.String("entries", "", "table-entry snapshot file (omit: verify under any entries)")
		findAll    = flag.Bool("all", false, "find all violated assertions (default: first only)")
		parserStr  = flag.String("parser", "sequential", "parser encoding: sequential|tree")
		tableStr   = flag.String("table", "abvtree", "table encoding: abvtree|abvlinear|naive")
		packetStr  = flag.String("packet", "kv", "packet encoding: kv|bitvector")
		budget     = flag.Int64("budget", 0, "SAT conflict budget per query (0: unlimited)")
		parallel   = flag.Int("parallel", 0, fmt.Sprintf("worker goroutines for -all checks (0: GOMAXPROCS, currently %d; 1: serial)", runtime.GOMAXPROCS(0)))
		incr       = flag.Bool("incremental", false, "shared-prefix incremental solving for -all (implies -all)")
		simplify   = flag.Bool("simplify", true, "algebraic simplification pass before blasting (incremental mode only)")
		preproc    = flag.Bool("preprocess", false, "SatELite-style CNF preprocessing in the SAT core")
		slice      = flag.Bool("slice", false, "per-assertion cone-of-influence slicing of the VC (find-all modes)")
		stream     = flag.Bool("stream", false, "streaming VC generation for -all: release per-assertion transient terms, bounding peak memory (implies -all, forces serial)")
		blocklist  = flag.Bool("blocklist", false, "with no -entries: print the table behaviours that trigger each violation (§2 blocklist)")
		jsonOut    = flag.Bool("json", false, "emit a machine-readable JSON report")
		canonical  = flag.Bool("canonical", false, "with -json: emit the canonical report (cost counters zeroed) — byte-identical across engines, for differential checks")
		tracePath  = flag.String("trace", "", "write Chrome trace-event JSON of the run's phases and per-assertion solves")
		cpuProf    = flag.String("pprof", "", "write CPU profile (go tool pprof)")
		memProf    = flag.String("memprofile", "", "write heap profile on exit")
		verbose    = flag.Bool("v", false, "structured JSONL log on stderr (phase begin/end, verdicts, budget exhaustion)")
		progress   = flag.Bool("progress", false, "live solver-heartbeat status line on stderr (conflicts/sec, trail, learnt DB)")
		metricsOut = flag.String("metrics", "", "write OpenMetrics text exposition of the metrics registry on exit")
		watchdog   = flag.Duration("watchdog", 0, "stall window: dump diagnostics for any check solving longer than this without finishing (0: off)")
		churnPath  = flag.String("churn", "", "delta sequence file: re-verify through a warm session after each \"---\"-separated delta (implies -all and -slice)")
	)
	flag.Parse()
	if *specPath == "" && *builtin == "" {
		flag.Usage()
		return 2
	}
	opts := aquila.Options{
		FindAll:     *findAll || *incr || *stream,
		Budget:      *budget,
		Parallel:    *parallel,
		Incremental: *incr,
		Simplify:    *simplify,
		Preprocess:  *preproc,
		Slice:       *slice,
		Stream:      *stream,
		Encode:      encodeOptions(*parserStr, *tableStr, *packetStr),
	}

	o, closeObs, err := obs.Setup(obs.Config{
		TracePath: *tracePath, CPUProfilePath: *cpuProf,
		MemProfilePath: *memProf, Verbose: *verbose,
		Progress: *progress, MetricsPath: *metricsOut,
		StallWindow: *watchdog,
	})
	if err != nil {
		return fail(err)
	}
	obs.SetDefault(o)
	var code int
	if *churnPath != "" {
		code = churnMain(*p4Path, *specPath, *builtin, *entries, *churnPath, opts)
	} else {
		code = verifyMain(*p4Path, *specPath, *builtin, *entries,
			*blocklist, *jsonOut, *canonical, opts)
	}
	if err := closeObs(); err != nil {
		return fail(err)
	}
	return code
}

// churnMain replays a delta sequence through a warm re-verification
// session: one baseline verification, then one cheap delta
// re-verification per "---"-separated delta, printing the verdict and the
// replay/re-check split each step. Exits 1 when the final state violates
// the spec.
func churnMain(p4Path, specPath, builtin, entries, churnPath string, opts aquila.Options) int {
	prog, spec, err := loadProblem(p4Path, specPath, builtin)
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
	deltas, err := aquila.LoadDeltas(churnPath)
	if err != nil {
		return fail(err)
	}
	sess, err := aquila.NewSession(prog, snap, spec, opts)
	if err != nil {
		return fail(err)
	}
	defer sess.Close()
	report := sess.Baseline()
	fmt.Printf("baseline: %s\n", verdictLine(report))
	for i, d := range deltas {
		report, err = sess.Apply(d)
		if err != nil {
			return fail(fmt.Errorf("delta %d: %w", i+1, err))
		}
		fmt.Printf("delta %d: %s (replayed %d, re-checked %d of %d assertions)\n",
			i+1, verdictLine(report), report.Stats.DeltaReuse,
			report.Stats.DeltaRecheck, report.Stats.Assertions)
	}
	st := sess.SessionStats()
	fmt.Printf("session: %d deltas, %d verdicts replayed, %d re-checked, %d stale indicators retired\n",
		st.Deltas, st.ReuseHits, st.Rechecks, st.Retired)
	if !report.Holds {
		return 1
	}
	return 0
}

func verdictLine(r *aquila.Report) string {
	if r.Holds {
		return "holds"
	}
	return fmt.Sprintf("%d violation(s)", len(r.Violations))
}

// loadProblem resolves the program and spec from -builtin or -spec/-p4.
func loadProblem(p4Path, specPath, builtin string) (*aquila.Program, *aquila.Spec, error) {
	if builtin != "" {
		return builtinProblem(builtin)
	}
	spec, err := aquila.LoadSpec(specPath)
	if err != nil {
		return nil, nil, err
	}
	progPath := p4Path
	if progPath == "" {
		progPath = spec.Config["path"]
		if progPath != "" && !filepath.IsAbs(progPath) {
			progPath = filepath.Join(filepath.Dir(specPath), progPath)
		}
	}
	if progPath == "" {
		return nil, nil, fmt.Errorf("no program: pass -p4 or set `config { path = ...; }` in the spec")
	}
	prog, err := aquila.LoadProgram(progPath)
	if err != nil {
		return nil, nil, err
	}
	return prog, spec, nil
}

func verifyMain(p4Path, specPath, builtin, entries string,
	blocklist, jsonOut, canonical bool, opts aquila.Options) int {
	prog, spec, err := loadProblem(p4Path, specPath, builtin)
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
	report, err := aquila.Verify(prog, snap, spec, opts)
	if err != nil {
		return fail(err)
	}
	if jsonOut {
		var data []byte
		if canonical {
			data, err = report.CanonicalJSON()
		} else {
			data, err = report.JSON()
		}
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(data))
		if !report.Holds {
			return 1
		}
		return 0
	}
	fmt.Print(report.String())
	if blocklist && snap == nil && !report.Holds {
		fmt.Println("blocklist (entry behaviours to prevent at runtime):")
		for _, b := range report.Blocklist() {
			mode := "miss"
			if b.Hit {
				mode = fmt.Sprintf("hit with action id %d", b.ActionLAID)
			}
			fmt.Printf("  %s: %s (violates %s)\n", b.Table, mode, b.Assertion)
		}
	}
	if !report.Holds {
		return 1
	}
	return 0
}

// builtinProblem resolves a -builtin name to a corpus program plus its
// inferred undefined-behaviour spec.
func builtinProblem(name string) (*aquila.Program, *aquila.Spec, error) {
	var bm *progs.Benchmark
	switch name {
	case "dc-gateway":
		bm = progs.DCGatewayBench()
	case "skewed":
		bm = progs.SkewedBench()
	default:
		return nil, nil, fmt.Errorf("unknown -builtin %q (available: dc-gateway, skewed)", name)
	}
	prog, err := bm.Parse()
	if err != nil {
		return nil, nil, err
	}
	spec, err := aquila.ParseSpec(progs.InvalidHeaderAccessSpec(prog, bm.Calls))
	if err != nil {
		return nil, nil, err
	}
	return prog, spec, nil
}

func encodeOptions(parserStr, tableStr, packetStr string) encode.Options {
	var o encode.Options
	switch parserStr {
	case "tree":
		o.Parser = encode.ParserTree
	default:
		o.Parser = encode.ParserSequential
	}
	switch tableStr {
	case "naive":
		o.Table = encode.TableNaive
	case "abvlinear":
		o.Table = encode.TableABVLinear
	default:
		o.Table = encode.TableABVTree
	}
	switch packetStr {
	case "bitvector":
		o.Packet = encode.PacketBitvector
	default:
		o.Packet = encode.PacketKV
	}
	return o
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "aquila:", err)
	return 2
}
