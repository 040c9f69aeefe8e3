package aquila

// bench_test.go hosts one testing.B benchmark per table and figure of the
// paper's evaluation (run them with `go test -bench=. -benchmem`), plus
// ablation benches for the design choices DESIGN.md calls out. The full
// parameter sweeps live in cmd/aquila-bench; these benches use scaled-down
// workloads so a complete -bench=. run stays in CI territory, while
// preserving every comparison's shape.

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"aquila/internal/bench"
	"aquila/internal/encode"
	"aquila/internal/gcl"
	"aquila/internal/genprog"
	"aquila/internal/lpi"
	"aquila/internal/obs"
	"aquila/internal/p4"
	"aquila/internal/progs"
	"aquila/internal/smt"
	"aquila/internal/tables"
	"aquila/internal/verify"
)

// BenchmarkTable1_PropertyMatrix runs the full Table 1 property-coverage
// scenario suite.
func BenchmarkTable1_PropertyMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Table1()
		for _, r := range rows {
			if !r.Supported {
				b.Fatalf("%s/%s unsupported: %v", r.Part, r.Property, r.Err)
			}
		}
	}
}

// BenchmarkTable2_SpecSize measures the specification-size comparison.
func BenchmarkTable2_SpecSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table2()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("want 3 scenarios")
		}
	}
}

// BenchmarkTable3 verifies the hand-written suite with each tool — the
// per-tool inner benches expose the time asymmetry Table 3 reports.
func BenchmarkTable3(b *testing.B) {
	suite := progs.HandWrittenSuite()
	for _, tool := range []bench.Tool{bench.ToolAquila, bench.ToolP4V, bench.ToolVera} {
		b.Run(string(tool), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, bm := range suite {
					out, err := bench.RunTool(bm, tool, bench.QuickLimits)
					if err != nil {
						b.Fatal(err)
					}
					if out.Fail == "" && out.Bugs == 0 {
						b.Fatalf("%s/%s found no seeded bug", bm.Name, tool)
					}
				}
			}
		})
	}
}

// BenchmarkTable3_ProductionScale runs one production-shaped program per
// tool, showing the completes-vs-explodes split of Table 3's lower half.
func BenchmarkTable3_ProductionScale(b *testing.B) {
	cfg := genprog.Config{Name: "big", Pipes: 2, ParserStates: 40, Tables: 60, ActionsPerTable: 3, SeedBug: true}
	bm := genprog.Assemble(cfg)
	lim := bench.Limits{TreeCap: 100_000, MaxPaths: 20_000, Budget: 20_000_000}
	for _, tool := range []bench.Tool{bench.ToolAquila, bench.ToolP4V, bench.ToolVera} {
		b.Run(string(tool), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := bench.RunTool(bm, tool, lim)
				if err != nil {
					b.Fatal(err)
				}
				switch tool {
				case bench.ToolAquila:
					if out.Fail != "" {
						b.Fatalf("Aquila must complete, got %s", out.Fail)
					}
				default:
					if out.Fail == "" {
						b.Fatalf("%s should exceed its budget at this scale", tool)
					}
				}
			}
		})
	}
}

// BenchmarkTable4_Localization runs the three bug kinds on the small
// switch-T.
func BenchmarkTable4_Localization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table4([]string{"small"})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.Found {
				b.Fatalf("%s/%s: culprit not found", r.Scale, r.Bug)
			}
		}
	}
}

// BenchmarkFig11a_ProgramScaling sweeps chained switch-T copies.
func BenchmarkFig11a_ProgramScaling(b *testing.B) {
	for _, k := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			cfg := genprog.SwitchT("small")
			cfg.TTLChain = false
			bm := genprog.AssembleChain(cfg, k)
			prog, err := bm.Parse()
			if err != nil {
				b.Fatal(err)
			}
			spec, err := lpi.Parse(progs.InvalidHeaderAccessSpec(prog, bm.Calls))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := verify.Run(prog, nil, spec, verify.Options{FindAll: true})
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Holds {
					b.Fatal("clean chain must verify")
				}
			}
		})
	}
}

// BenchmarkFig11b_TableEntryScaling sweeps entry counts per table mode.
func BenchmarkFig11b_TableEntryScaling(b *testing.B) {
	cfg := genprog.SwitchT("small")
	cfg.TTLChain = false
	bm := genprog.Assemble(cfg)
	prog, err := bm.Parse()
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{128, 512, 1024} {
		snap := genprog.BigTableSnapshot(cfg, n)
		spec, err := lpi.Parse(genprog.BigTableSpec(cfg, bm.Calls, uint64(0x0A000000+n/2), 0))
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range []struct {
			name string
			mode encode.TableMode
		}{{"Naive", encode.TableNaive}, {"ABV", encode.TableABVLinear}, {"ABVOpt", encode.TableABVTree}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, m.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rep, err := verify.Run(prog, snap, spec, verify.Options{
						FindAll: true, Encode: encode.Options{Table: m.mode}})
					if err != nil {
						b.Fatal(err)
					}
					if !rep.Holds {
						b.Fatal("lookup property must hold")
					}
				}
			})
		}
	}
}

// ---- ablation benches (DESIGN.md "key internal design choices") ----

// BenchmarkAblation_SequentialVsTree compares the §4.1 sequential parser
// encoding with the naive tree expansion on a branching-heavy parser.
func BenchmarkAblation_SequentialVsTree(b *testing.B) {
	cfg := genprog.Config{Name: "abl", Pipes: 1, ParserStates: 15, Tables: 8}
	bm := genprog.Assemble(cfg)
	prog, err := bm.Parse()
	if err != nil {
		b.Fatal(err)
	}
	spec, err := lpi.Parse(progs.InvalidHeaderAccessSpec(prog, bm.Calls))
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []struct {
		name string
		mode encode.ParserMode
	}{{"Sequential", encode.ParserSequential}, {"Tree", encode.ParserTree}} {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := verify.Run(prog, nil, spec, verify.Options{
					FindAll: true, Encode: encode.Options{Parser: m.mode, TreeCap: 8 << 20}}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_PacketKVvsBitvector compares the §4.2 key-value packet
// model against the monolithic bit-vector baseline.
func BenchmarkAblation_PacketKVvsBitvector(b *testing.B) {
	prog, err := ParseProgram("pkt", demoProgram)
	if err != nil {
		b.Fatal(err)
	}
	// A packet-model-neutral property: parsed field equals its own value.
	spec, err := ParseSpec(`
assertion { a = { if (valid(ipv4)) ipv4.ttl == ipv4.ttl; } }
program { call(pl); assert(a); }`)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []struct {
		name string
		mode encode.PacketMode
	}{{"KV", encode.PacketKV}, {"Bitvector", encode.PacketBitvector}} {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := verify.Run(prog, nil, spec, verify.Options{
					FindAll: true, Encode: encode.Options{Packet: m.mode}}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_FindFirstVsFindAll measures the §5.1 assertion
// labelling trade-off the paper reports ("higher memory when finding the
// first bug, longer time finding all").
func BenchmarkAblation_FindFirstVsFindAll(b *testing.B) {
	bm := progs.HandWrittenSuite()[0] // Simple Router
	prog, err := bm.Parse()
	if err != nil {
		b.Fatal(err)
	}
	spec, err := lpi.Parse(progs.InvalidHeaderAccessSpec(prog, bm.Calls))
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []struct {
		name    string
		findAll bool
	}{{"First", false}, {"All", true}} {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := verify.Run(prog, nil, spec, verify.Options{FindAll: m.findAll}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkObsOverhead measures the observability tax on a full find-all
// verification of the DC Gateway: instrumented-but-disabled (nil sinks —
// every hook is a nil check), fully enabled (tracer + registry + JSONL
// log to io.Discard), and the full flight recorder on top (per-check
// histograms fold into the registry and a heartbeat ring samples every
// 64th conflict). DESIGN.md budgets < 3% for the disabled path and
// documents the enabled paths at < 5%.
func BenchmarkObsOverhead(b *testing.B) {
	bm := progs.DCGatewayBench()
	prog, err := bm.Parse()
	if err != nil {
		b.Fatal(err)
	}
	spec, err := lpi.Parse(progs.InvalidHeaderAccessSpec(prog, bm.Calls))
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, sink *obs.Obs) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			rep, err := verify.Run(prog, nil, spec, verify.Options{
				FindAll: true, Parallel: 1, Obs: sink})
			if err != nil {
				b.Fatal(err)
			}
			if rep.Stats.Assertions == 0 {
				b.Fatal("no assertions verified")
			}
		}
	}
	b.Run("Disabled", func(b *testing.B) { run(b, nil) })
	b.Run("Enabled", func(b *testing.B) {
		run(b, &obs.Obs{
			Tracer:  obs.NewTracer(),
			Metrics: obs.NewRegistry(),
			Log:     obs.NewLogger(io.Discard),
		})
	})
	b.Run("FlightRecorder", func(b *testing.B) {
		sink := &obs.Obs{
			Tracer:   obs.NewTracer(),
			Metrics:  obs.NewRegistry(),
			Log:      obs.NewLogger(io.Discard),
			Progress: obs.NewProgressRing(256, 64),
		}
		run(b, sink)
		if len(sink.Metrics.Histograms()) == 0 {
			b.Fatal("flight run folded no histograms")
		}
		if sink.Progress.Seq() == 0 {
			b.Fatal("flight run published no heartbeat samples")
		}
	})
}

// BenchmarkVerifyDCGateway_Allocs is the allocation benchmark CI gates
// on: an end-to-end find-all verification of the DC Gateway under the
// shipping memory-lean configuration (serial, preprocessing, slicing,
// streaming release). Run with -benchmem; the allocs/op column is the
// number the term-arena / flat-clause-DB work exists to shrink, and the
// scale campaign's CompareScale holds it within 20% of the checked-in
// BENCH_scale.json anchor row.
func BenchmarkVerifyDCGateway_Allocs(b *testing.B) {
	b.ReportAllocs()
	bm := progs.DCGatewayBench()
	prog, err := bm.Parse()
	if err != nil {
		b.Fatal(err)
	}
	spec, err := lpi.Parse(progs.InvalidHeaderAccessSpec(prog, bm.Calls))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := verify.Run(prog, nil, spec, verify.Options{
			FindAll: true, Parallel: 1, Preprocess: true, Slice: true, Stream: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Violations) == 0 {
			b.Fatal("no bugs on a benchmark with seeded violations")
		}
	}
}

// BenchmarkSMT_Interning exercises the hash-consing micro-path: a mix of
// fresh constructions (map miss + insert) and re-constructions of existing
// terms (map hit), the dominant operation of GCL encoding.
func BenchmarkSMT_Interning(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx := smt.NewCtx()
		vars := make([]*smt.Term, 16)
		for j := range vars {
			vars[j] = ctx.Var(fmt.Sprintf("v%d", j), 32)
		}
		acc := ctx.BV(0, 32)
		for j := 0; j < 256; j++ {
			v := vars[j%len(vars)]
			acc = ctx.BVAdd(acc, ctx.BVXor(v, ctx.BV(uint64(j), 32)))
			// Re-construction of an existing term: pure lookup.
			ctx.BVXor(v, ctx.BV(uint64(j), 32))
			ctx.Extract(acc, 15, 0)
		}
		ctx.Eq(acc, ctx.BV(42, 32))
	}
}

// BenchmarkSolver_BitBlast exercises the SMT substrate directly: a
// register-chained arithmetic equation per iteration.
func BenchmarkSolver_BitBlast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ctx := smt.NewCtx()
		s := smt.NewSolver(ctx)
		x := ctx.Var("x", 32)
		y := ctx.Var("y", 32)
		s.Assert(ctx.Eq(ctx.BVAdd(ctx.BVMul(x, ctx.BV(3, 32)), y), ctx.BV(99, 32)))
		s.Assert(ctx.Ult(y, ctx.BV(3, 32)))
		if s.Check() != smt.Sat {
			b.Fatal("expected sat")
		}
	}
}

// switchViolations encodes the Table 3 "Switch from vendor" program (the
// switch-cold ledger workload) into a new context and returns its 142
// violation conditions in assertion order: 14 distinct terms.
func switchViolations(b *testing.B) (*smt.Ctx, []*smt.Term) {
	var bm *progs.Benchmark
	for _, p := range genprog.Table3Suite() {
		if p.Name == "Switch from vendor" {
			bm = p
		}
	}
	if bm == nil {
		b.Fatal(`Table 3 suite has no "Switch from vendor" program`)
	}
	prog, err := bm.Parse()
	if err != nil {
		b.Fatal(err)
	}
	spec, err := lpi.Parse(progs.InvalidHeaderAccessSpec(prog, bm.Calls))
	if err != nil {
		b.Fatal(err)
	}
	ctx := smt.NewCtx()
	env := encode.NewEnv(ctx, prog, nil, encode.Options{TrackModified: lpi.TrackModified(spec)})
	program, err := lpi.NewCompiler(spec, env).Compile()
	if err != nil {
		b.Fatal(err)
	}
	var conds []*smt.Term
	for _, v := range gcl.NewEncoder(ctx).Encode(program, nil).Violations {
		conds = append(conds, v.Cond)
	}
	return ctx, conds
}

// switchConds returns eight of the switch's distinct violation conditions
// in a new context, spread evenly over them.
func switchConds(b *testing.B) (*smt.Ctx, []*smt.Term) {
	ctx, all := switchViolations(b)
	var distinct []*smt.Term
	for _, c := range all {
		if !slices.Contains(distinct, c) {
			distinct = append(distinct, c)
		}
	}
	const n = 8
	if len(distinct) < n {
		b.Fatalf("%d distinct violation conditions, want at least %d", len(distinct), n)
	}
	conds := make([]*smt.Term, n)
	for i := range conds {
		conds[i] = distinct[i*len(distinct)/n]
	}
	return ctx, conds
}

// checkFresh blasts each condition into a fresh solver and checks it.
func checkFresh(b *testing.B, ctx *smt.Ctx, conds []*smt.Term) {
	for _, c := range conds {
		s := smt.NewSolver(ctx)
		if s.CheckLits(s.Indicator(c)) == smt.Unknown {
			b.Fatal("unbudgeted check returned unknown")
		}
	}
}

// BenchmarkFreshBlastSwitch is the fresh-solver path of the switch-cold
// workload: every iteration blasts eight distinct switch conditions, each
// on a fresh solver, and checks them. Each iteration encodes into a new
// context (untimed), so no condition has been seen before and none is
// answered by the verdict memo. Run with -benchmem; B/op and allocs/op are what sizing
// each solver once per blasted term exists to cut.
func BenchmarkFreshBlastSwitch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ctx, conds := switchConds(b)
		b.StartTimer()
		checkFresh(b, ctx, conds)
	}
}

// BenchmarkFreshChecksSwitch is the switch-cold workload's solving: every
// iteration checks all 142 switch conditions, each on a fresh solver, over
// one new context (encoded untimed). The 128 that repeat an earlier Unsat
// condition are answered by the context's verdict memo.
func BenchmarkFreshChecksSwitch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ctx, conds := switchViolations(b)
		b.StartTimer()
		checkFresh(b, ctx, conds)
	}
}

// ecmpSession returns the DC gateway with an n-entry ECMP table, the
// invalid-header-access spec without the items that snapshot violates
// (so every state holds, as on a serving daemon), and the snapshot.
func ecmpSession(b *testing.B, n int) (*p4.Program, *lpi.Spec, *tables.Snapshot) {
	bm := progs.DCGatewayBench()
	prog, err := bm.Parse()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	snap := tables.NewSnapshot()
	for i := 0; i < n; i++ {
		snap.Add(ecmpTable, &tables.Entry{Keys: []tables.KeyMatch{tables.Exact(uint64(i))},
			Action: "set_nhop", Args: []uint64{uint64(1 + rng.Intn(8))}, Priority: -1})
	}
	full := progs.InvalidHeaderAccessSpec(prog, bm.Calls)
	spec, err := lpi.Parse(full)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := verify.Run(prog, snap, spec, verify.Options{FindAll: true, Parallel: 1})
	if err != nil {
		b.Fatal(err)
	}
	drop := map[int]bool{}
	for _, v := range rep.Violations {
		drop[v.Info.Index] = true
	}
	var kept []string
	item := 0
	for _, ln := range strings.Split(full, "\n") {
		if strings.Contains(ln, "applied(") {
			item++
			if drop[item-1] {
				continue
			}
		}
		kept = append(kept, ln)
	}
	if spec, err = lpi.Parse(strings.Join(kept, "\n")); err != nil {
		b.Fatal(err)
	}
	return prog, spec, snap
}

const ecmpTable = "GatewayIngress.ecmp_nhop_tbl"

// BenchmarkSessionDeltaECMP is the serve-churn workload's warm path
// without the HTTP daemon around it: one session over the DC gateway
// with an ECMP table of 1024 (as serve-churn) or 8192 entries, and every
// iteration applies one seeded replace of an ECMP entry (same key,
// seeded action). Run with -benchmem; allocs/op is what re-encoding only
// the changed part of the table exists to cut, and the two sizes show
// how a delta's cost grows with the table.
func BenchmarkSessionDeltaECMP(b *testing.B) {
	for _, n := range []int{1024, 8192} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) { benchSessionDelta(b, n) })
	}
}

func benchSessionDelta(b *testing.B, entries int) {
	prog, spec, snap := ecmpSession(b, entries)
	sess, err := verify.NewSession(prog, snap, spec, verify.Options{Parallel: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()
	if !sess.Baseline().Holds {
		b.Fatal("baseline violates the holding spec")
	}
	rng := rand.New(rand.NewSource(1))
	deltas := make([]*tables.Delta, b.N)
	for i := range deltas {
		idx := rng.Intn(entries)
		action := "a_drop"
		if a := rng.Intn(9); a > 0 {
			action = fmt.Sprintf("set_nhop(%d)", a)
		}
		if deltas[i], err = tables.ParseDelta(fmt.Sprintf("replace %s %d %d -> %s", ecmpTable, idx, idx, action)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, d := range deltas {
		rep, err := sess.Apply(d)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Holds {
			b.Fatal("a delta broke the holding spec")
		}
	}
}
