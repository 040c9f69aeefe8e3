// Command aquila-ledger is the repository's benchmark: four workloads
// (dcgw-cold, switch-cold, entries-lean, serve-churn), each measured end
// to end in a timed phase and attributed layer by layer in a traced phase.
// internal/ledger documents the workloads and every metric.
//
// Usage:
//
//	aquila-ledger -seed N [-out result.json] [-runs R] [-seconds S] [-quick]
//	aquila-ledger -workload NAME -seed N [-seconds S] [-trace 0|1] [-out run.json] [-trace-out t.json]
//	aquila-ledger -compare a.json b.json
//
// Without -workload it runs every workload R times, each run in a fresh
// child process so peak RSS and GC state do not leak between them, prints
// every metric by name with its unit, and writes all runs to -out. With
// -workload it runs that one workload in this process and prints, as its
// last line, one JSON object with correct, attempted, failed and the
// BENCHMARK.json metrics: the end-to-end ones, or with -trace 1 the
// per-layer ones. -compare prints medians and quartiles of two result
// files and marks each workload × end-to-end metric ok, regressed or
// unresolved against the glossary's bounds, which BENCHMARK.json repeats.
//
// Exit status: 0 when every operation succeeded with the right verdict, 1
// on a failed operation, a wrong verdict, a failed replay check or (with
// -compare) a regression, 2 on usage or set-up errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"aquila/internal/ledger"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "run one workload in this process: "+names())
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 30, "length of each timed phase")
		trace    = flag.Int("trace", 1, "1: add the traced phase and report per-layer metrics")
		quick    = flag.Bool("quick", false, "smoke mode: a few operations per workload instead of a timed window")
		runs     = flag.Int("runs", 1, "runs of every workload (seeds seed, seed+1, ...)")
		out      = flag.String("out", "", "write the result file (JSON)")
		traceOut = flag.String("trace-out", "", "with -workload: write the traced phase's Chrome trace")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		return compareMain(flag.Args())
	}
	if flag.NArg() != 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return fail(err)
	}
	cfg := ledger.Config{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Quick: *quick,
		TracePath: *traceOut, TempDir: scratchDir}
	if *workload != "" {
		return workloadMain(*workload, cfg, *out)
	}
	return orchestrate(cfg, *runs, *out)
}

// scratchDir holds serve-churn journals and child results; bench.sh
// builds there too, and .gitignore lists it.
const scratchDir = ".bench_build"

func names() string {
	var ns []string
	for _, w := range ledger.Workloads {
		ns = append(ns, w.Name)
	}
	return strings.Join(ns, ", ")
}

// workloadMain runs one workload here and prints its metrics, then the
// one-line JSON summary.
func workloadMain(name string, cfg ledger.Config, out string) int {
	prov := ledger.NewProvenance(cfg.Seed, cfg.Seconds, cfg.Quick)
	fmt.Printf("# aquila-ledger %s seed=%d num_cpu=%d gomaxprocs=%d %s rev=%s dirty=%v\n",
		name, cfg.Seed, prov.NumCPU, prov.GOMAXPROCS, prov.GoVersion, prov.Revision, prov.Dirty)
	r, err := ledger.RunWorkload(name, cfg)
	if err != nil {
		return fail(err)
	}
	printRun(r)
	if out != "" {
		res := &ledger.Result{Provenance: prov, Workloads: map[string][]*ledger.Run{name: {r}}}
		if err := writeJSON(out, res); err != nil {
			return fail(err)
		}
	}
	line, err := r.SummaryLine(cfg.Trace)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if !r.Correct {
		return 1
	}
	return 0
}

func printRun(r *ledger.Run) {
	fmt.Printf("# %s: %d operations in %.2f s, %d failed, %d wrong verdicts\n",
		r.Workload, r.Attempted, r.Seconds, r.Failed, r.Wrong)
	for _, e := range r.Errors {
		fmt.Printf("# error: %s\n", e)
	}
	for _, m := range ledger.Glossary {
		if v, ok := r.Metrics[m.Name]; ok {
			fmt.Printf("%-12s  %-30s  %14.6g  %-5s  (n=%d)\n", r.Workload, m.Name, v.Value, v.Unit, v.N)
		}
	}
}

// orchestrate runs every workload runs times, each in a child process of
// this binary, and merges the children's result files.
func orchestrate(cfg ledger.Config, runs int, out string) int {
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	res := &ledger.Result{Provenance: ledger.NewProvenance(cfg.Seed, cfg.Seconds, cfg.Quick),
		Workloads: map[string][]*ledger.Run{}}
	code := 0
	for i := 0; i < runs; i++ {
		seed := cfg.Seed + int64(i)
		for _, w := range ledger.Workloads {
			part := filepath.Join(cfg.TempDir, fmt.Sprintf("ledger-%s-%d.json", w.Name, seed))
			trace := "0"
			if cfg.Trace {
				trace = "1"
			}
			args := []string{"-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64), "-trace", trace,
				"-quick=" + strconv.FormatBool(cfg.Quick), "-out", part}
			if out != "" && cfg.Trace {
				args = append(args, "-trace-out",
					fmt.Sprintf("%s.%s.%d.trace.json", strings.TrimSuffix(out, ".json"), w.Name, seed))
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "aquila-ledger: %s seed %d: %v\n", w.Name, seed, err)
				code = 1
			}
			part0, err := ledger.LoadResult(part)
			if err != nil {
				fmt.Fprintf(os.Stderr, "aquila-ledger: %v\n", err)
				code = 1
				continue
			}
			os.Remove(part)
			res.Workloads[w.Name] = append(res.Workloads[w.Name], part0.Workloads[w.Name]...)
		}
	}
	if out != "" {
		if err := writeJSON(out, res); err != nil {
			return fail(err)
		}
	}
	return code
}

func compareMain(args []string) int {
	if len(args) != 2 {
		return fail(fmt.Errorf("-compare needs two result files"))
	}
	a, err := ledger.LoadResult(args[0])
	if err != nil {
		return fail(err)
	}
	b, err := ledger.LoadResult(args[1])
	if err != nil {
		return fail(err)
	}
	fmt.Printf("# a: %s (%d CPUs, rev %s)\n# b: %s (%d CPUs, rev %s)\n",
		args[0], a.Provenance.NumCPU, a.Provenance.Revision, args[1], b.Provenance.NumCPU, b.Provenance.Revision)
	if ledger.Compare(os.Stdout, a, b) > 0 {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "aquila-ledger:", err)
	return 2
}
