// Command aquila-validate runs Aquila's self validation (§6 of the
// paper): a refinement proof between the GCL encoder and an independent
// reference semantics for the components of a program. Use it after
// changing the encoder — or with -bug to watch it catch the historical
// encoder bugs of §7.2.
//
// Usage:
//
//	aquila-validate -p4 prog.p4 [-entries snap.txt] [-components a,b,...]
//	                [-bug empty-state-accept|ignore-defaultonly] [-preprocess]
//	                [-trace out.json] [-pprof cpu.out] [-memprofile mem.out] [-v]
//
// -preprocess runs every refinement query through CNF preprocessing, so a
// preprocessing bug that changes a verdict shows up as a refinement
// mismatch here.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"aquila"
	"aquila/internal/encode"
	"aquila/internal/obs"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		p4Path     = flag.String("p4", "", "P4lite program (required)")
		entries    = flag.String("entries", "", "table-entry snapshot file")
		components = flag.String("components", "", "comma-separated components (default: every pipeline)")
		bug        = flag.String("bug", "", "inject a historical encoder bug (empty-state-accept, ignore-defaultonly)")
		preproc    = flag.Bool("preprocess", false, "SatELite-style CNF preprocessing in the refinement solver")
		tracePath  = flag.String("trace", "", "write Chrome trace-event JSON of the validation phases")
		cpuProf    = flag.String("pprof", "", "write CPU profile (go tool pprof)")
		memProf    = flag.String("memprofile", "", "write heap profile on exit")
		verbose    = flag.Bool("v", false, "structured JSONL log on stderr")
		progress   = flag.Bool("progress", false, "live solver-heartbeat status line on stderr")
		metricsOut = flag.String("metrics", "", "write OpenMetrics text exposition of the metrics registry on exit")
	)
	flag.Parse()
	if *p4Path == "" {
		flag.Usage()
		return 2
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
	code := validateMain(*p4Path, *entries, *components, *bug, *preproc)
	if err := closeObs(); err != nil {
		return fail(err)
	}
	return code
}

func validateMain(p4Path, entries, components, bug string, preprocess bool) int {
	prog, err := aquila.LoadProgram(p4Path)
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
	var comps []string
	if components != "" {
		comps = strings.Split(components, ",")
	} else {
		for name := range prog.Pipelines {
			comps = append(comps, name)
		}
		sort.Strings(comps)
	}
	if len(comps) == 0 {
		return fail(fmt.Errorf("no components to validate: declare a pipeline or pass -components"))
	}
	result, err := aquila.SelfValidate(prog, snap, comps, aquila.Options{
		Encode:     encode.Options{InjectEncoderBug: bug},
		Preprocess: preprocess,
	})
	if err != nil {
		return fail(err)
	}
	fmt.Print(result.String())
	if !result.Equivalent {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "aquila-validate:", err)
	return 2
}
