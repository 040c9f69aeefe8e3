package ledger

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"aquila/internal/encode"
	"aquila/internal/gcl"
	"aquila/internal/genprog"
	"aquila/internal/lpi"
	"aquila/internal/p4"
	"aquila/internal/progs"
	"aquila/internal/smt"
	"aquila/internal/tables"
	"aquila/internal/verify"
)

// cold is one cold verification problem given as source text: the P4
// program, the LPI spec and (optionally) the table snapshot. One operation
// is what `aquila -all -json` does with them: parse, type-check, verify,
// render the JSON report.
type cold struct {
	name     string
	source   string
	specSrc  string
	snapText string // "" verifies under any entries
	opts     verify.Options
	expect   []Violation
}

// parsed is one operation's parsed inputs and report.
type parsed struct {
	prog *p4.Program
	spec *lpi.Spec
	snap *tables.Snapshot
	rep  *verify.Report
}

// run performs one operation, with a span around each module call when tr
// is non-nil. Report.JSON's bytes are discarded: the operation's output is
// checked on the report it renders.
func (c *cold) run(tr *tracer, op int) (*parsed, error) {
	root := tr.begin("op", op, 0, 0)
	defer tr.end(root)
	var in parsed
	var err error
	s := tr.begin("p4.parse", op, root, 0)
	in.prog, err = p4.ParseAndCheck(c.name, c.source)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("lpi.spec_parse", op, root, 0)
	in.spec, err = lpi.Parse(c.specSrc)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	if c.snapText != "" {
		s = tr.begin("tables.snapshot_parse", op, root, 0)
		in.snap, err = tables.ParseSnapshot(c.snapText)
		tr.end(s)
		if err != nil {
			return nil, err
		}
	}
	s = tr.begin("verify.run", op, root, 0)
	in.rep, err = verify.Run(in.prog, in.snap, in.spec, c.opts)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("verify.report", op, root, 0)
	_, err = in.rep.JSON()
	tr.end(s)
	return &in, err
}

func (c *cold) clientCount() int { return 1 }

func (c *cold) op(_, i int, _ *tracer) outcome {
	in, err := c.run(nil, i)
	if err != nil {
		return outcome{failed: true, err: err}
	}
	if msg := checkVerdict(in.rep, c.expect); msg != "" {
		return outcome{failed: true, wrong: true, err: errors.New(msg)}
	}
	return outcome{}
}

func (c *cold) finish() []string { return nil }

func (c *cold) close() {}

func (c *cold) traced(k int, tr *tracer) (*tracedOut, error) {
	return c.traceOps(tr, 0, k, true)
}

// minBandOps is the fewest traced operations whose summed solver time the
// replay band is checked on: one small operation's timing (the quick
// smoke mode) is noise.
const minBandOps = 3

// traceOps runs operations first..first+n-1 with spans, each followed by
// its layer replay, and checks every replay against its operation's
// report: same per-assertion verdicts and, with band set and at least
// minBandOps operations, replayed solver time within 0.5–1.5× of the
// reports' SolveCPU over the n operations.
func (c *cold) traceOps(tr *tracer, first, n int, band bool) (*tracedOut, error) {
	out := &tracedOut{values: map[string]Value{}}
	var solveCPU, replayed time.Duration
	var cpuMS, wallMS, busy, checkMax []float64
	for op := first; op < first+n; op++ {
		t0 := time.Now()
		in, err := c.run(tr, op)
		if err != nil {
			return nil, fmt.Errorf("traced operation %d: %w", op, err)
		}
		out.latency = append(out.latency, time.Since(t0))
		if msg := checkVerdict(in.rep, c.expect); msg != "" {
			out.wrong = append(out.wrong, msg)
		}
		rp, err := replay(tr, op, in, c.opts)
		if err != nil {
			return nil, fmt.Errorf("layer replay %d: %w", op, err)
		}
		st := in.rep.Stats
		if msg := compareStatuses(rp.statuses, st.PerAssertion); msg != "" {
			out.errs = append(out.errs, fmt.Sprintf("operation %d: %s", op, msg))
		}
		solveCPU += st.SolveCPU
		replayed += rp.solve
		cpuMS = append(cpuMS, ms(st.SolveCPU))
		wallMS = append(wallMS, ms(st.SolveTime))
		if st.SolveTime > 0 && st.Workers > 0 {
			busy = append(busy, float64(st.SolveCPU)/float64(st.SolveTime*time.Duration(st.Workers)))
		}
		var worst time.Duration
		for _, a := range st.PerAssertion {
			worst = max(worst, a.SolveTime)
		}
		checkMax = append(checkMax, ms(worst))
		if op == first {
			for name, v := range rp.counts {
				out.values[name] = Value{Value: v, N: 1}
			}
			frac := 0.0
			if st.SliceConjuncts > 0 {
				frac = float64(st.SliceDropped) / float64(st.SliceConjuncts)
			}
			out.values["verify.slice_drop_frac"] = Value{Value: frac, N: 1}
		}
	}
	if band && n >= minBandOps && solveCPU > 0 {
		if r := float64(replayed) / float64(solveCPU); r < 0.5 || r > 1.5 {
			out.errs = append(out.errs, fmt.Sprintf(
				"replayed blast+preprocess+search+model time %v is %.2fx the reports' SolveCPU %v (want 0.5-1.5x)",
				replayed, r, solveCPU))
		}
	}
	out.values["verify.solve_cpu_ms"] = median(cpuMS)
	out.values["verify.solve_wall_ms"] = median(wallMS)
	out.values["verify.worker_busy_frac"] = median(busy)
	out.values["verify.check_ms_max"] = median(checkMax)
	return out, nil
}

// replayOut is one layer replay's result.
type replayOut struct {
	statuses []string
	// solve sums, over the conditions, the time from blast through model
	// extraction.
	solve  time.Duration
	counts map[string]float64
}

// replay re-runs one operation's verification one layer at a time, each
// call in its own span: encode.NewEnv, the LPI compiler, the VC
// generator, then per violation condition a fresh solver driven through
// blast (Indicator), CNF preprocessing, search (CheckLits) and model
// extraction. Conditions fan out over the same worker count verify.Run
// used, so the summed layer times compare with its SolveCPU.
func replay(tr *tracer, op int, in *parsed, opts verify.Options) (*replayOut, error) {
	root := tr.begin("replay", op, 0, 0)
	defer tr.end(root)
	ctx := smt.NewCtx()
	eopts := opts.Encode
	eopts.TrackModified = lpi.TrackModified(in.spec)
	s := tr.begin("encode.env", op, root, 0)
	env := encode.NewEnv(ctx, in.prog, in.snap, eopts)
	tr.end(s)
	s = tr.begin("lpi.compose", op, root, 0)
	program, err := lpi.NewCompiler(in.spec, env).Compile()
	tr.end(s)
	if err != nil {
		return nil, err
	}
	composed := ctx.NumTerms()
	s = tr.begin("gcl.vcgen", op, root, 0)
	res := gcl.NewEncoder(ctx).Encode(program, nil)
	tr.end(s)
	vcTerms := ctx.NumTerms() - composed

	conds := res.Violations
	statuses := make([]string, len(conds))
	stats := make([]smt.SolverStats, len(conds))
	clausesIn := make([]int, len(conds))
	solve := make([]time.Duration, len(conds))
	workers := min(opts.Workers(), len(conds))
	if workers > 1 {
		ctx.Freeze()
	}
	verify.ForEachWorker(workers, len(conds), func(worker, i int) {
		v := conds[i]
		check := tr.begin("verify.check", op, root, worker)
		defer tr.end(check)
		solver := smt.NewSolver(ctx)
		if opts.Budget > 0 {
			solver.SetBudget(opts.Budget)
		}
		solver.SetPreprocess(opts.Preprocess)
		t0 := time.Now()
		s := tr.begin("smt.blast", op, check, worker)
		lit := solver.Indicator(v.Cond)
		tr.end(s)
		clausesIn[i] = solver.NumClauses()
		if opts.Preprocess {
			s = tr.begin("sat.preprocess", op, check, worker)
			solver.Preprocess()
			tr.end(s)
		}
		s = tr.begin("sat.search", op, check, worker)
		st := solver.CheckLits(lit)
		tr.end(s)
		if st == smt.Sat {
			s = tr.begin("smt.model", op, check, worker)
			m := solver.Model()
			solver.ModelCollect(m, v.Cond)
			tr.end(s)
		}
		solve[i] = time.Since(t0)
		statuses[i] = statusName(st)
		stats[i] = solver.SolverStats()
	})

	out := &replayOut{statuses: statuses, counts: map[string]float64{
		"encode.terms": float64(composed),
		"gcl.stmts":    float64(gcl.Size(program)),
		"gcl.vc_terms": float64(vcTerms),
	}}
	var hits, misses int64
	for i, ss := range stats {
		out.solve += solve[i]
		out.counts["smt.tseitin_clauses"] += float64(ss.TseitinClauses)
		out.counts["smt.sat_vars"] += float64(ss.SATVars)
		out.counts["sat.clauses_in"] += float64(clausesIn[i])
		out.counts["sat.clauses_out"] += float64(ss.Clauses)
		out.counts["sat.elim_vars"] += float64(ss.ElimVars)
		out.counts["sat.conflicts"] += float64(ss.Conflicts)
		out.counts["sat.propagations"] += float64(ss.Propagations)
		hits += ss.BlastHits
		misses += ss.BlastMisses
	}
	if hits+misses > 0 {
		out.counts["smt.blast_hit_frac"] = float64(hits) / float64(hits+misses)
	}
	return out, nil
}

// statusName renders a verdict the way verify's per-assertion costs do.
func statusName(st smt.Status) string {
	switch st {
	case smt.Sat:
		return "sat"
	case smt.Unsat:
		return "unsat"
	}
	return "unknown"
}

func compareStatuses(replayed []string, costs []verify.AssertionCost) string {
	if len(replayed) != len(costs) {
		return fmt.Sprintf("replay checked %d conditions, verify.Run %d", len(replayed), len(costs))
	}
	for i, c := range costs {
		if replayed[i] != c.Status {
			return fmt.Sprintf("%s: replay says %s, verify.Run %s", c.Label, replayed[i], c.Status)
		}
	}
	return ""
}

// checkVerdict compares a report's violations with the pinned ones and
// returns a description of the difference ("" when they agree). A budget
// Unknown is reported by verify.Run as an error, so it never gets here.
func checkVerdict(rep *verify.Report, want []Violation) string {
	var got []string
	for _, v := range rep.Violations {
		text := ""
		if v.Info != nil {
			text = v.Info.Text
		}
		got = append(got, v.Label+" "+text)
	}
	var exp []string
	for _, v := range want {
		exp = append(exp, v.Label+" "+v.Text)
	}
	sort.Strings(got)
	sort.Strings(exp)
	if fmt.Sprint(got) != fmt.Sprint(exp) || rep.Holds != (len(want) == 0) {
		return fmt.Sprintf("wrong verdict: violated %q, pinned %q", got, exp)
	}
	return ""
}

// invalidAccess is the §8.1 cold workload shape: a corpus program under
// its inferred invalid-header-access spec, verified by `aquila -all -json`
// with two workers.
func invalidAccess(bm *progs.Benchmark, expect []Violation) (*cold, error) {
	prog, err := bm.Parse()
	if err != nil {
		return nil, err
	}
	return &cold{
		name:    bm.Name,
		source:  bm.Source,
		specSrc: progs.InvalidHeaderAccessSpec(prog, bm.Calls),
		opts:    verify.Options{FindAll: true, Parallel: 2},
		expect:  expect,
	}, nil
}

func setupDCGW(_ int64, exp Expected, _ string) (instance, error) {
	return invalidAccess(progs.DCGatewayBench(), exp[DCGWCold].Violated)
}

func setupSwitch(_ int64, exp Expected, _ string) (instance, error) {
	for _, bm := range genprog.Table3Suite() {
		if bm.Name == "Switch from vendor" {
			return invalidAccess(bm, exp[SwitchCold].Violated)
		}
	}
	return nil, fmt.Errorf("genprog Table 3 suite has no \"Switch from vendor\" program")
}

// bigTableEntries is the entries-lean table size.
const bigTableEntries = 2000

// setupEntries builds the entries-lean problem: the switch-T medium
// big-table program with bigTableEntries distinct seeded exact entries,
// and one lookup assertion on a seeded installed key, verified with the
// scale campaign's engine configuration.
func setupEntries(seed int64, exp Expected, _ string) (instance, error) {
	cfg := genprog.SwitchT("medium")
	cfg.TTLChain = false
	bm := genprog.Assemble(cfg)
	rng := rand.New(rand.NewSource(seed))
	snap := tables.NewSnapshot()
	seen := map[uint64]bool{}
	var keys []uint64
	for len(keys) < bigTableEntries {
		k := uint64(rng.Uint32())
		if seen[k] {
			continue
		}
		seen[k] = true
		keys = append(keys, k)
		snap.Add(bm.Name+"_C0.big_tbl", &tables.Entry{
			Keys:     []tables.KeyMatch{tables.Exact(k)},
			Action:   "big_set",
			Args:     []uint64{uint64(rng.Intn(512)), uint64(rng.Intn(1 << 16))},
			Priority: -1,
		})
	}
	return &cold{
		name:     bm.Name,
		source:   bm.Source,
		specSrc:  genprog.BigTableSpec(cfg, bm.Calls, keys[rng.Intn(len(keys))], 0),
		snapText: tables.Format(snap),
		opts: verify.Options{FindAll: true, Preprocess: true, Slice: true, Stream: true,
			Parallel: 1, Budget: 20_000_000},
		expect: exp[EntriesLean].Violated,
	}, nil
}
