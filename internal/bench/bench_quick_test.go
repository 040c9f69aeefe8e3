package bench

import (
	"fmt"
	"strings"
	"testing"

	"aquila/internal/genprog"
	"aquila/internal/progs"
)

func TestTable2Ratios(t *testing.T) {
	rows, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Scenario 1: O(10) LPI lines vs O(100) low-level (the paper's 10x).
	if rows[0].AquilaLoC > 20 {
		t.Fatalf("scenario 1 LPI LoC = %d, want O(10)", rows[0].AquilaLoC)
	}
	for _, r := range rows {
		ratio := float64(r.LowLevelLoC) / float64(r.AquilaLoC)
		if ratio < 2 {
			t.Fatalf("%s: low-level/LPI ratio = %.1f, expected substantial reduction", r.Scenario, ratio)
		}
	}
	out := FormatTable2(rows)
	if !strings.Contains(out, "ratio") {
		t.Fatal("format output malformed")
	}
}

func TestTable3SmallSuiteAllTools(t *testing.T) {
	suite := progs.HandWrittenSuite()
	rows, err := Table3(suite, QuickLimits, []Tool{ToolAquila, ToolP4V, ToolVera})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		aq := r.Results[ToolAquila]
		if aq.Fail != "" {
			t.Fatalf("%s: Aquila failed: %s", r.Name, aq.Fail)
		}
		if aq.Bugs == 0 {
			t.Fatalf("%s: Aquila found no bugs; every program carries a seeded one", r.Name)
		}
		// On these small programs the baselines should succeed too, and
		// all tools that complete must agree a bug exists.
		for _, tool := range []Tool{ToolP4V, ToolVera} {
			out := r.Results[tool]
			if out.Fail == "" && out.Bugs == 0 {
				t.Fatalf("%s: %s completed but found no bugs", r.Name, tool)
			}
		}
	}
	s := FormatTable3(rows, []Tool{ToolAquila, ToolP4V, ToolVera})
	if !strings.Contains(s, "Simple Router") {
		t.Fatal("format output malformed")
	}
}

func TestTable3AquilaScalesWhereBaselinesExplode(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// A production-shaped program: deep parser DAG + many tables. The
	// baselines trip their budgets; Aquila completes.
	cfg := genprog.Config{Name: "big", Pipes: 2, ParserStates: 40, Tables: 60,
		ActionsPerTable: 3, SeedBug: true}
	bm := genprog.Assemble(cfg)
	lim := Limits{TreeCap: 100_000, MaxPaths: 20_000, Budget: 20_000_000, Deadline: 0}
	aq, err := RunTool(bm, ToolAquila, lim)
	if err != nil {
		t.Fatal(err)
	}
	if aq.Fail != "" || aq.Bugs == 0 {
		t.Fatalf("Aquila should complete and find bugs: %+v", aq)
	}
	p4v, err := RunTool(bm, ToolP4V, lim)
	if err != nil {
		t.Fatal(err)
	}
	if p4v.Fail != "OOM" {
		t.Fatalf("p4v-style tree encoding should explode, got %+v", p4v)
	}
	vera, err := RunTool(bm, ToolVera, lim)
	if err != nil {
		t.Fatal(err)
	}
	if vera.Fail != "OOT" {
		t.Fatalf("Vera-style path enumeration should explode, got %+v", vera)
	}
}

func TestTable4QuickSmall(t *testing.T) {
	rows, err := Table4([]string{"small"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.Found {
			t.Fatalf("%s/%s: seeded culprit not localized", r.Scale, r.Bug)
		}
		if r.Precision < 0.9 {
			t.Fatalf("%s/%s: precision %.2f below the paper's ~95%% band", r.Scale, r.Bug, r.Precision)
		}
	}
	if !strings.Contains(FormatTable4(rows), "wrong-entry") {
		t.Fatal("format output malformed")
	}
}

func TestFig11aQuick(t *testing.T) {
	rows, err := Fig11a(2, "small")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.WithBugs && r.Bugs == 0 {
			t.Fatalf("k=%d with bugs: none found", r.K)
		}
		if !r.WithBugs && r.Bugs != 0 {
			t.Fatalf("k=%d without bugs: %d found", r.K, r.Bugs)
		}
	}
	if !strings.Contains(FormatFig11a(rows), "time") {
		t.Fatal("format output malformed")
	}
}

func TestFig11bQuick(t *testing.T) {
	rows, err := Fig11b([]int{32, 128}, "small", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Fail != "" {
			t.Fatalf("entries=%d mode=%s failed: %s", r.Entries, r.Mode, r.Fail)
		}
	}
	// The ABV modes must use less formula memory than naive at the larger
	// point.
	byMode := map[string]Fig11bRow{}
	for _, r := range rows {
		if r.Entries == 128 {
			byMode[r.Mode] = r
		}
	}
	if byMode["ABV+Opt"].Mem >= byMode["Naive"].Mem {
		t.Fatalf("ABV+Opt mem %d should beat naive %d", byMode["ABV+Opt"].Mem, byMode["Naive"].Mem)
	}
	if !strings.Contains(FormatFig11b(rows), "ABV+Opt") {
		t.Fatal("format output malformed")
	}
}

// TestQuickFindModesAgree: for random generated programs the find-first
// and find-all strategies must agree on whether the spec holds.
func TestQuickFindModesAgree(t *testing.T) {
	for seed := 0; seed < 8; seed++ {
		cfg := genprog.Config{
			Name:         "q",
			Pipes:        1 + seed%2,
			ParserStates: 8 + seed,
			Tables:       4 + seed*2,
			SeedBug:      seed%2 == 0,
		}
		bm := genprog.Assemble(cfg)
		prog, err := bm.Parse()
		if err != nil {
			t.Fatal(err)
		}
		spec, err := lpiParse(progs.InvalidHeaderAccessSpec(prog, bm.Calls))
		if err != nil {
			t.Fatal(err)
		}
		first, err := verifyRun(prog, spec, false)
		if err != nil {
			t.Fatal(err)
		}
		all, err := verifyRun(prog, spec, true)
		if err != nil {
			t.Fatal(err)
		}
		if first.Holds != all.Holds {
			t.Fatalf("seed %d: find-first holds=%v, find-all holds=%v", seed, first.Holds, all.Holds)
		}
		if wantBug := cfg.SeedBug; wantBug == first.Holds {
			t.Fatalf("seed %d: seeded=%v but holds=%v", seed, wantBug, first.Holds)
		}
	}
}

// TestParallelSweepQuick pins the parallel sweep's bookkeeping: every
// worker count reproduces the serial canonical report, the CPU metadata
// (GOMAXPROCS and physical core count) is recorded, multi-worker rows on
// a single-CPU host are marked cpu_bound, and multi-worker rows carry a
// straggler index. The speedup assertion itself is skipped on single-core
// hosts — a 1-CPU container bounds wall-clock speedup at 1.0x regardless
// of the engine, so gating on it there would only test the machine.
func TestParallelSweepQuick(t *testing.T) {
	res, err := Parallel(progs.SkewedBench(), []int{1, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.CPUs < 1 || res.NumCPU < 1 {
		t.Fatalf("CPU metadata missing: cpus=%d num_cpu=%d", res.CPUs, res.NumCPU)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (workers 1 and 2)", len(res.Rows))
	}
	for _, r := range res.Rows {
		at := fmt.Sprintf("workers=%d", r.Workers)
		if !r.Identical {
			t.Fatalf("%s: canonical report differs from serial baseline", at)
		}
		if r.Bugs == 0 {
			t.Fatalf("%s: no bugs on a benchmark with seeded violations", at)
		}
		if want := r.Workers > 1 && res.SingleCPU(); r.CPUBound != want {
			t.Fatalf("%s: cpu_bound=%v, want %v (cpus=%d num_cpu=%d)",
				at, r.CPUBound, want, res.CPUs, res.NumCPU)
		}
		if r.Workers > 1 && r.StragglerIndex < 1 {
			t.Fatalf("%s: straggler index %.2f, want >= 1 on a multi-worker run", at, r.StragglerIndex)
		}
	}
	if res.SingleCPU() {
		t.Logf("single-CPU host (cpus=%d num_cpu=%d): skipping speedup assertion", res.CPUs, res.NumCPU)
	} else if sp := res.Rows[1].Speedup; sp < 0.5 {
		t.Errorf("2-worker speedup %.2fx on a multi-core host: parallel fan-out slower than half the serial run", sp)
	}
	out := FormatParallel(res)
	if !strings.Contains(out, "speedup") || !strings.Contains(out, "straggler") {
		t.Fatal("format output malformed")
	}
}

// TestIncrementalSweepQuick runs the fresh-vs-incremental sweep on the DC
// gateway and pins the acceptance bar: strictly fewer total Tseitin
// clauses in incremental mode, byte-identical canonical reports at every
// (mode, workers) point.
func TestIncrementalSweepQuick(t *testing.T) {
	res, err := Incremental(progs.DCGatewayBench(), []int{1, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var freshClauses int64
	for _, r := range res.Rows {
		if !r.Identical {
			t.Fatalf("%s workers=%d: canonical report differs from fresh baseline", r.Mode, r.Workers)
		}
		if r.Bugs == 0 {
			t.Fatalf("%s workers=%d: no bugs on a benchmark with seeded violations", r.Mode, r.Workers)
		}
		if r.Mode == "fresh" && r.Workers == 1 {
			freshClauses = r.TseitinClauses
		}
		if r.Mode == "incremental" && r.TseitinClauses >= freshClauses {
			t.Fatalf("%s workers=%d: Tseitin clauses %d, want < fresh %d",
				r.Mode, r.Workers, r.TseitinClauses, freshClauses)
		}
	}
	if res.ClauseReduction <= 0 {
		t.Fatalf("clause reduction %.3f, want > 0", res.ClauseReduction)
	}
	if !strings.Contains(FormatIncremental(res), "clause reduction") {
		t.Fatal("format output malformed")
	}
}

func TestPreprocSweepQuick(t *testing.T) {
	res, err := Preproc(progs.DCGatewayBench(), []int{1, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4*2*2 {
		t.Fatalf("rows = %d, want %d", len(res.Rows), 4*2*2)
	}
	for _, r := range res.Rows {
		if !r.Identical {
			t.Fatalf("%s/%s workers=%d: canonical report differs from baseline", r.Config, r.Mode, r.Workers)
		}
		if r.Bugs == 0 {
			t.Fatalf("%s/%s workers=%d: no bugs on a benchmark with seeded violations", r.Config, r.Mode, r.Workers)
		}
		wantPrep := r.Config == "preprocess" || r.Config == "both"
		if gotPrep := r.ElimVars+r.SubsumedClauses > 0; gotPrep != wantPrep {
			t.Fatalf("%s/%s workers=%d: preprocessing work recorded = %v, want %v",
				r.Config, r.Mode, r.Workers, gotPrep, wantPrep)
		}
		wantSlice := r.Config == "slice" || r.Config == "both"
		if gotSlice := r.SliceDropped > 0; gotSlice != wantSlice {
			t.Fatalf("%s/%s workers=%d: sliced conjuncts = %d, want dropped: %v",
				r.Config, r.Mode, r.Workers, r.SliceDropped, wantSlice)
		}
	}
	if res.ClauseReduction <= 0 {
		t.Fatalf("clause reduction %.3f, want > 0", res.ClauseReduction)
	}
	if res.PropagationReduction <= 0 {
		t.Fatalf("propagation reduction %.3f, want > 0", res.PropagationReduction)
	}
	if !strings.Contains(FormatPreproc(res), "clause reduction") {
		t.Fatal("format output malformed")
	}
	// The self-comparison of a sweep must never flag a regression, and a
	// doctored reference with much tighter ratios must.
	if err := ComparePreproc(res, res); err != nil {
		t.Fatalf("self-comparison flagged a regression: %v", err)
	}
	tight := *res
	tight.Rows = append([]PreprocRow(nil), res.Rows...)
	for i := range tight.Rows {
		tight.Rows[i].RelWall /= 10
	}
	if err := ComparePreproc(&tight, res); err == nil {
		t.Fatal("10x tighter reference ratios not flagged as a regression")
	}
}
