// Command aquila-bench regenerates the tables and figures of the paper's
// evaluation (§8). Each experiment prints the same rows/series the paper
// reports; EXPERIMENTS.md records the paper-vs-measured comparison.
//
// Usage:
//
//	aquila-bench -exp table1
//	aquila-bench -exp table2
//	aquila-bench -exp table3 [-quick] [-suite hand|full]
//	aquila-bench -exp table4 [-scales small,medium,large]
//	aquila-bench -exp fig11a [-k 5] [-scale medium]
//	aquila-bench -exp fig11b [-entries 1000,2000,3000,4000,5000]
//	aquila-bench -exp parallel [-parallel 1,2,4,8] [-repeats 3] [-out BENCH_parallel.json]
//	aquila-bench -exp preproc [-parallel 1,2,4] [-repeats 3] [-preproc-out BENCH_preproc.json]
//	                          [-compare BENCH_preproc.json]
//	aquila-bench -exp scale [-quick] [-scale-out BENCH_scale.json]
//	                        [-compare-scale BENCH_scale.json]
//	aquila-bench -exp fuzz [-quick]
//	aquila-bench -exp all -quick
//
// An unknown -exp name exits 2 and lists the valid ones. The -*-out flags
// default to empty: a sweep writes its JSON only to a path given
// explicitly, so a quick run never overwrites the committed references.
// Delta churn, serve latency, observability overhead and worker
// utilization are measured by cmd/aquila-ledger (see EXPERIMENTS.md).
//
// Observability flags (shared with the other CLIs): -trace writes a
// Chrome trace-event JSON covering the whole run, -pprof/-memprofile
// write pprof profiles, -v logs structured JSONL to stderr, -progress
// prints a live solver heartbeat line, -metrics writes an OpenMetrics
// exposition of the counter registry on exit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"aquila/internal/bench"
	"aquila/internal/genprog"
	"aquila/internal/obs"
	"aquila/internal/progs"
)

func main() { os.Exit(mainRun()) }

// experiment is one -exp name and the function that runs it.
type experiment struct {
	name string
	run  func() error
}

func mainRun() int {
	var (
		quick      = flag.Bool("quick", false, "smaller budgets and workloads")
		suite      = flag.String("suite", "full", "table3 suite: hand (5 programs) or full (12)")
		scales     = flag.String("scales", "small,medium,large", "table4 switch-T scales")
		k          = flag.Int("k", 5, "fig11a maximum chain length")
		scale      = flag.String("scale", "medium", "fig11a/fig11b switch-T scale")
		entries    = flag.String("entries", "1000,2000,3000,4000,5000", "fig11b entry counts")
		parallel   = flag.String("parallel", "1,2,4,8", "parallel-sweep worker counts (first must be 1, the speedup baseline)")
		repeats    = flag.Int("repeats", 3, "parallel/preproc runs per configuration (best wall time kept)")
		outPath    = flag.String("out", "", "parallel-sweep JSON output file (empty: stdout table only)")
		prepOut    = flag.String("preproc-out", "", "preproc-sweep JSON output file (empty: stdout table only)")
		compare    = flag.String("compare", "", "preproc only: reference BENCH_preproc.json; exit non-zero if relative wall time regresses >20%")
		scaleOut   = flag.String("scale-out", "", "scale-campaign JSON output file (empty: stdout table only)")
		scaleCmp   = flag.String("compare-scale", "", "scale only: reference BENCH_scale.json; exit non-zero on >20% relative regression")
		tracePath  = flag.String("trace", "", "write Chrome trace-event JSON covering the run")
		cpuProf    = flag.String("pprof", "", "write CPU profile (go tool pprof)")
		memProf    = flag.String("memprofile", "", "write heap profile on exit")
		verbose    = flag.Bool("v", false, "structured JSONL log on stderr")
		progress   = flag.Bool("progress", false, "live solver-heartbeat status line on stderr")
		metricsOut = flag.String("metrics", "", "write OpenMetrics text exposition of the metrics registry on exit")
	)
	var o *obs.Obs

	// experiments is the registration list: -exp all runs it in order,
	// and it drives both the -exp help text and the name check.
	experiments := []experiment{
		{"table1", func() error {
			fmt.Print(bench.FormatTable1(bench.Table1()))
			return nil
		}},
		{"table2", func() error {
			rows, err := bench.Table2()
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatTable2(rows))
			return nil
		}},
		{"table3", func() error {
			var programs []*progs.Benchmark
			if *suite == "hand" {
				programs = progs.HandWrittenSuite()
			} else {
				programs = genprog.Table3Suite()
			}
			lim := bench.DefaultLimits
			if *quick {
				lim = bench.QuickLimits
			}
			tools := []bench.Tool{bench.ToolAquila, bench.ToolP4V, bench.ToolVera}
			rows, err := bench.Table3(programs, lim, tools)
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatTable3(rows, tools))
			return nil
		}},
		{"table4", func() error {
			var list []string
			for _, s := range strings.Split(*scales, ",") {
				list = append(list, strings.TrimSpace(s))
			}
			if *quick {
				list = []string{"small"}
			}
			rows, err := bench.Table4(list)
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatTable4(rows))
			return nil
		}},
		{"fig11a", func() error {
			maxK := *k
			sc := *scale
			if *quick {
				maxK, sc = 3, "small"
			}
			rows, err := bench.Fig11a(maxK, sc)
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatFig11a(rows))
			return nil
		}},
		{"fig11b", func() error {
			counts, err := parseInts(*entries, 0)
			if err != nil {
				return err
			}
			if *quick {
				counts = []int{200, 500, 1000}
			}
			// The paper's 2-hour timeout scales down to 2 minutes here (the
			// naive mode is expected to trip it at >= 4k entries).
			rows, err := bench.Fig11b(counts, *scale, bench.DefaultLimits.Budget, 2*time.Minute)
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatFig11b(rows))
			return nil
		}},
		{"parallel", func() error {
			// The worker sweep on the DC gateway (scale) and the
			// skewed-telemetry program (load imbalance from one heavy
			// assertion).
			counts, err := parseInts(*parallel, 0)
			if err != nil {
				return err
			}
			res, err := bench.ParallelSuite(
				[]*progs.Benchmark{progs.DCGatewayBench(), progs.SkewedBench()},
				counts, quickRepeats(*repeats, *quick))
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatParallelSuite(res))
			return writeJSON(*outPath, res)
		}},
		{"preproc", func() error {
			// The four {preprocess, slice} configurations on the DC
			// gateway against the baseline engine. Worker counts reuse
			// -parallel, capped at 4: the point of the sweep is CNF
			// reduction, not scheduler saturation.
			counts, err := parseInts(*parallel, 4)
			if err != nil {
				return err
			}
			res, err := bench.Preproc(progs.DCGatewayBench(), counts, quickRepeats(*repeats, *quick))
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatPreproc(res))
			if *compare != "" {
				var ref bench.PreprocResult
				if err := readJSON(*compare, &ref); err != nil {
					return err
				}
				if err := bench.ComparePreproc(&ref, res); err != nil {
					return err
				}
				fmt.Printf("no regression vs %s\n", *compare)
			}
			return writeJSON(*prepOut, res)
		}},
		{"scale", func() error {
			// The 10–100× campaign: structural multipliers and 10⁴–10⁵
			// entry sweeps recording wall / peak heap / allocation volume.
			// -quick runs the CI subset (one point per axis).
			var reg *obs.Registry
			if o != nil {
				reg = o.Metrics
			}
			res, err := bench.Scale(*quick, reg)
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatScale(res))
			if *scaleCmp != "" {
				var ref bench.ScaleResult
				if err := readJSON(*scaleCmp, &ref); err != nil {
					return err
				}
				if err := bench.CompareScale(&ref, res); err != nil {
					return err
				}
				fmt.Printf("no regression vs %s\n", *scaleCmp)
			}
			return writeJSON(*scaleOut, res)
		}},
		{"fuzz", func() error {
			// The §6 self-validation story as a benchmark: rediscover both
			// historical encoder bugs from a fixed seed, then a clean
			// campaign that must end divergence-free.
			rows, err := bench.FuzzCampaigns(1, *quick)
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatFuzz(rows))
			return nil
		}},
	}
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	valid := strings.Join(append(names, "all"), "|")
	exp := flag.String("exp", "all", "experiment: "+valid)
	flag.Parse()

	if *exp != "all" && !slices.Contains(names, *exp) {
		fmt.Fprintf(os.Stderr, "aquila-bench: unknown experiment %q (valid: %s)\n", *exp, valid)
		return 2
	}

	o, closeObs, err := obs.Setup(obs.Config{
		TracePath: *tracePath, CPUProfilePath: *cpuProf,
		MemProfilePath: *memProf, Verbose: *verbose,
		Progress: *progress, MetricsPath: *metricsOut,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "aquila-bench: %v\n", err)
		return 2
	}
	obs.SetDefault(o)

	code := 0
	for _, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		fmt.Printf("==== %s ====\n", e.name)
		start := time.Now()
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "aquila-bench: %s: %v\n", e.name, err)
			code = 1
			break
		}
		fmt.Printf("(%s in %s)\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}

	if err := closeObs(); err != nil {
		fmt.Fprintf(os.Stderr, "aquila-bench: %v\n", err)
		if code == 0 {
			code = 2
		}
	}
	return code
}

// parseInts parses a comma-separated integer list; a positive limit drops
// the values above it.
func parseInts(list string, limit int) ([]int, error) {
	var out []int
	for _, s := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, err
		}
		if limit <= 0 || n <= limit {
			out = append(out, n)
		}
	}
	return out, nil
}

// quickRepeats is the sweeps' repeat count: one under -quick.
func quickRepeats(repeats int, quick bool) int {
	if quick {
		return 1
	}
	return repeats
}

// writeJSON writes v as indented JSON to path; an empty path writes
// nothing.
func writeJSON(path string, v any) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// readJSON reads a reference result file into ref.
func readJSON(path string, ref any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, ref); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	return nil
}
