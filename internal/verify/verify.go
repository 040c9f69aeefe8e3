// Package verify is Aquila's verification driver (Figure 7): it composes
// the component GCLs according to the LPI program block, generates
// verification conditions, and drives the SMT solver to find either the
// first violated assertion (all assertions checked together) or all of
// them one by one — the §5.1/§8.1 find-first vs find-all modes.
package verify

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aquila/internal/encode"
	"aquila/internal/gcl"
	"aquila/internal/lpi"
	"aquila/internal/obs"
	"aquila/internal/p4"
	"aquila/internal/smt"
	"aquila/internal/tables"
)

// Options configures a verification run.
type Options struct {
	// Encode selects the encoding modes; TrackModified is filled from the
	// spec automatically.
	Encode encode.Options
	// FindAll checks every assertion one by one; otherwise the run stops
	// at the first violated assertion (checked all together).
	FindAll bool
	// Budget bounds SAT conflicts per check (<=0: unlimited). Exhaustion
	// is reported as ErrBudget.
	Budget int64
	// Incremental makes find-all checks share solvers: the common VC
	// prefix is blasted once per worker shard and each assertion is
	// checked under an activation literal, reusing the CNF and learned
	// clauses across checks ("blast once, check many"). Verdicts and
	// canonical reports are identical to fresh-solver mode; raw cost
	// counters differ (that is the point). Ignored in find-first mode.
	Incremental bool
	// Simplify applies the algebraic simplification pass
	// (smt.Simplifier) to assertion conditions before blasting.
	// Only consulted in incremental mode, so the fresh-solver baseline
	// stays bit-for-bit what it always was.
	Simplify bool
	// Preprocess enables SatELite-style CNF preprocessing (subsumption,
	// self-subsuming resolution, bounded variable elimination) in the SAT
	// core of every checking solver. Verdicts are unchanged; counterexample
	// models are re-derived by a plain fresh solver so canonical reports
	// stay byte-identical to the unpreprocessed baseline.
	Preprocess bool
	// Slice enables per-assertion cone-of-influence slicing in find-all
	// modes: VC conjuncts whose free variables cannot reach the assertion's
	// checked condition are dropped before blasting. An Unsat slice soundly
	// proves the assertion holds; a Sat slice is confirmed on the full
	// condition by a plain fresh solver, so canonical reports stay
	// byte-identical to unsliced mode. Ignored in find-first mode, which
	// solves one disjunction over all assertions.
	Slice bool
	// Stream is a memory policy of the serial find-all path: each
	// assertion is sliced, checked, and consumed one at a time, and the
	// term arena is rolled back to a pre-slicing watermark once enough
	// per-assertion slice terms have accumulated — so peak term memory is
	// bounded by the VC plus one assertion's transients instead of growing
	// with the whole run. Verdicts and canonical reports are byte-identical
	// to plain fresh mode. Requires the serial path (a frozen shared
	// context cannot release) and fresh solvers (shared solvers keep
	// references to released terms); ignored in find-first mode.
	Stream bool
	// Parallel is the number of worker goroutines for find-all checks and
	// localization re-checks: 0 means runtime.GOMAXPROCS(0), 1 forces the
	// serial path. Reports are byte-identical at every setting: each
	// assertion is checked by a deterministic fresh solver over the shared
	// frozen term DAG, and results are aggregated in assertion order.
	Parallel int
	// Session marks the options as driving a warm delta re-verification
	// session (session.go / the -churn CLI mode). The session engine is
	// serial by construction — it keeps one term context, one persistent
	// slicer, and one warm shared solver alive across table deltas — so
	// it requires find-all mode and rejects every engine that freezes or
	// releases the context. NewSession sets it; the CLIs set it for flag
	// validation before the session is built.
	Session bool
	// Cancel, when non-nil, is a cooperative cancellation token installed
	// on every checking solver: storing true makes in-flight and future
	// checks return Unknown at the solver's next poll, which the driver
	// reports as ErrBudget exactly like conflict-budget exhaustion.
	// aquila-serve maps per-request verification deadlines onto it. nil
	// (the default) installs nothing and leaves verdicts and canonical
	// report bytes untouched.
	Cancel *atomic.Bool
	// Obs attaches observability sinks (tracer, metrics, structured log).
	// nil falls back to the process default (set by the CLIs); when that is
	// also nil every hook is a nil-check with no measurable overhead, and
	// attaching sinks never changes verdicts or canonical report bytes.
	Obs *obs.Obs
}

// Validate rejects incompatible engine combinations up front, with an
// error naming the conflict, instead of one mode silently winning. Run and
// RunWithEnv call it, so every CLI inherits the same rejections.
func (o Options) Validate() error {
	if o.Stream {
		if o.Incremental {
			return fmt.Errorf("verify: -stream and -incremental are incompatible (streaming releases terms the incremental engine's shared solvers still reference)")
		}
		if o.Parallel > 1 {
			return fmt.Errorf("verify: -stream is incompatible with -parallel %d (streaming releases terms from the arena, which a frozen shared context cannot do; use -parallel 1)", o.Parallel)
		}
	}
	if o.Session {
		if !o.FindAll {
			return fmt.Errorf("verify: -churn requires find-all mode (-all); the session engine replays and rechecks assertions one by one")
		}
		if o.Incremental {
			return fmt.Errorf("verify: -churn is incompatible with -incremental (the session engine is its own incremental driver: one warm shared solver across deltas)")
		}
		if o.Stream {
			return fmt.Errorf("verify: -churn is incompatible with -stream (streaming releases terms the session's caches and warm solver still reference)")
		}
		if o.Parallel > 1 {
			return fmt.Errorf("verify: -churn is incompatible with -parallel %d (a frozen shared context cannot re-encode deltas; use -parallel 1)", o.Parallel)
		}
	}
	return nil
}

// newSolver builds a checking solver over ctx with the run's conflict
// budget and cancellation token installed, and CNF preprocessing when
// preprocess is set. Every solver the package checks with comes from
// here; canonicalizing re-solves pass false, since they are the plain
// baseline solver by design.
func (o Options) newSolver(ctx *smt.Ctx, preprocess bool) *smt.Solver {
	s := smt.NewSolver(ctx)
	if o.Budget > 0 {
		s.SetBudget(o.Budget)
	}
	if preprocess {
		s.SetPreprocess(true)
	}
	if o.Cancel != nil {
		s.SetCancel(o.Cancel)
	}
	return s
}

// Observer resolves the effective sink: the explicit Options.Obs, else the
// process-wide default.
func (o Options) Observer() *obs.Obs {
	if o.Obs != nil {
		return o.Obs
	}
	return obs.Default()
}

// Workers returns the effective worker count for the options.
func (o Options) Workers() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs f(0), ..., f(n-1) on up to workers goroutines and waits for
// all of them. With workers <= 1 the calls run inline in index order. It is
// the fan-out primitive shared by find-all verification and localization;
// f must write only to index-owned slots.
func ForEach(workers, n int, f func(i int)) {
	ForEachWorker(workers, n, func(_, i int) { f(i) })
}

// ForEachWorker is ForEach with the worker's identity passed to f:
// worker is 0 for inline (serial) execution and 1..workers on the pool —
// the tracer uses it as the Chrome trace tid so the fan-out is visible.
func ForEachWorker(workers, n int, f func(worker, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(0, i)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	for w := 1; w <= workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				f(worker, i)
			}
		}(w)
	}
	wg.Wait()
}

// Violation describes a violated assertion with its counterexample.
type Violation struct {
	Label string
	Info  *lpi.AssertionInfo // nil for non-LPI assertions
	Model *smt.Model
	// Cex renders the counterexample's variable assignment.
	Cex string
	// Cond is the violation condition (used by bug localization).
	Cond *smt.Term
}

// Stats captures cost metrics the paper reports in Table 3 / Figure 11.
type Stats struct {
	EncodeTime time.Duration
	// SolveTime is the wall-clock duration of the solving phase; under
	// parallelism it shrinks with the worker count.
	SolveTime time.Duration
	// SolveCPU is the cumulative time spent inside individual SMT checks,
	// summed across workers; it is (modulo scheduling noise) independent of
	// the worker count and is the fair cost metric for parallel runs.
	SolveCPU  time.Duration
	GCLSize   int
	TermNodes int // DAG nodes in the term context (memory proxy)
	// CNFClauses and SATVars are summed across every solver instance the
	// run created — in find-all mode one fresh solver per consumed
	// assertion, in find-first mode the main disjunction query plus any
	// divergence re-check solvers. Both modes use the same summation
	// semantics, so the fields mean "total CNF footprint of the run" (the
	// paper's memory proxy) regardless of mode.
	CNFClauses int
	SATVars    int
	Assertions int
	// Workers is the effective worker count of the solving phase.
	Workers int

	// Incremental records whether the run shared solvers across checks;
	// Shards is the number of per-worker incremental solvers it used
	// (0 in fresh mode).
	Incremental bool
	Shards      int
	// SimplifyRewrites counts DAG nodes changed by the simplification
	// pass (0 when the pass is off).
	SimplifyRewrites int64
	// PrefixClauses is the Tseitin cost of each shard's first check
	// summed over shards — the "blast once" part of the run, dominated by
	// the shared VC prefix. Later checks pay only their per-assertion
	// delta.
	PrefixClauses int64

	// SAT-core search totals, summed across the same solver instances as
	// CNFClauses/SATVars. In fresh mode these are deterministic for a
	// given formula at every worker count (every check runs a
	// deterministic fresh solver); in incremental mode they depend on the
	// shard composition and are only deterministic for a fixed worker
	// count.
	Conflicts     int64
	Decisions     int64
	Propagations  int64
	Restarts      int64
	LearntClauses int64
	LearntLits    int64
	LearntDeleted int64
	// TseitinClauses counts CNF clauses emitted by the blasters (>=
	// retained CNFClauses); the headline metric incremental mode shrinks.
	// BlastHits counts per-term blast-cache hits — the reuse incremental
	// mode buys.
	TseitinClauses int64
	BlastHits      int64

	// CNF preprocessing totals, summed across the same solver instances
	// (all zero with Options.Preprocess off).
	ElimVars            int64
	SubsumedClauses     int64
	StrengthenedClauses int64
	// SliceConjuncts and SliceDropped count the VC conjuncts seen and
	// removed by cone-of-influence slicing (zero with Options.Slice off).
	SliceConjuncts int64
	SliceDropped   int64

	// Stream records whether the run released transient terms as it went;
	// StreamReleases counts arena rollbacks and ReleasedTerms the terms
	// they discarded (all zero with Options.Stream off).
	Stream         bool
	StreamReleases int64
	ReleasedTerms  int64

	// DeltaReuse and DeltaRecheck are the session engine's per-Apply
	// split: assertions whose verdict was replayed from the session cache
	// vs assertions re-solved after a table delta (both zero outside
	// session.go). Cost data — zeroed in canonical reports, which is what
	// makes a replay-heavy session report byte-identical to a fresh run.
	DeltaReuse   int64
	DeltaRecheck int64

	// PerAssertion is the find-all per-assertion cost breakdown (the data
	// Figure 11 plots): one entry per consumed assertion, in assertion
	// order. Empty in find-first mode, which checks all assertions in one
	// disjunction query.
	PerAssertion []AssertionCost

	// Histograms is the flight recorder's distribution snapshot
	// (flight.go): per-check wall time and conflicts, learnt-clause
	// sizes, and slice-drop ratios, log2-bucketed. Cost data like
	// everything above — zeroed in canonical reports.
	Histograms []HistogramStat
}

// AssertionCost is the solve cost of one assertion in find-all mode.
type AssertionCost struct {
	Label  string
	Status string // "sat" (violated), "unsat" (holds), "unknown" (budget)
	// SolveTime is this check's wall time inside the worker.
	SolveTime    time.Duration
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Restarts     int64
	CNFClauses   int
	SATVars      int
}

// addSolver folds one solver instance's counters into the run totals.
func (st *Stats) addSolver(ss smt.SolverStats) {
	st.CNFClauses += ss.Clauses
	st.SATVars += ss.SATVars
	st.Conflicts += ss.Conflicts
	st.Decisions += ss.Decisions
	st.Propagations += ss.Propagations
	st.Restarts += ss.Restarts
	st.LearntClauses += ss.LearntClauses
	st.LearntLits += ss.LearntLits
	st.LearntDeleted += ss.LearntDeleted
	st.TseitinClauses += ss.TseitinClauses
	st.BlastHits += ss.BlastHits
	st.ElimVars += ss.ElimVars
	st.SubsumedClauses += ss.Subsumed
	st.StrengthenedClauses += ss.Strengthened
}

// statsDelta is the work between two snapshots of one (shared) solver.
func statsDelta(cur, prev smt.SolverStats) smt.SolverStats {
	var sizes [smt.NumLearntSizeBuckets]int64
	for i := range sizes {
		sizes[i] = cur.LearntSizes[i] - prev.LearntSizes[i]
	}
	return smt.SolverStats{
		LearntSizes:    sizes,
		Decisions:      cur.Decisions - prev.Decisions,
		Conflicts:      cur.Conflicts - prev.Conflicts,
		Propagations:   cur.Propagations - prev.Propagations,
		Restarts:       cur.Restarts - prev.Restarts,
		LearntClauses:  cur.LearntClauses - prev.LearntClauses,
		LearntLits:     cur.LearntLits - prev.LearntLits,
		LearntDeleted:  cur.LearntDeleted - prev.LearntDeleted,
		ElimVars:       cur.ElimVars - prev.ElimVars,
		Subsumed:       cur.Subsumed - prev.Subsumed,
		Strengthened:   cur.Strengthened - prev.Strengthened,
		TseitinClauses: cur.TseitinClauses - prev.TseitinClauses,
		BlastHits:      cur.BlastHits - prev.BlastHits,
		BlastMisses:    cur.BlastMisses - prev.BlastMisses,
		Clauses:        cur.Clauses - prev.Clauses,
		SATVars:        cur.SATVars - prev.SATVars,
	}
}

// addStats sums two solver-stat snapshots (used to fold a counterexample
// re-check's cost into its assertion's delta).
func addStats(a, b smt.SolverStats) smt.SolverStats {
	var sizes [smt.NumLearntSizeBuckets]int64
	for i := range sizes {
		sizes[i] = a.LearntSizes[i] + b.LearntSizes[i]
	}
	return smt.SolverStats{
		LearntSizes:    sizes,
		Decisions:      a.Decisions + b.Decisions,
		Conflicts:      a.Conflicts + b.Conflicts,
		Propagations:   a.Propagations + b.Propagations,
		Restarts:       a.Restarts + b.Restarts,
		LearntClauses:  a.LearntClauses + b.LearntClauses,
		LearntLits:     a.LearntLits + b.LearntLits,
		LearntDeleted:  a.LearntDeleted + b.LearntDeleted,
		ElimVars:       a.ElimVars + b.ElimVars,
		Subsumed:       a.Subsumed + b.Subsumed,
		Strengthened:   a.Strengthened + b.Strengthened,
		TseitinClauses: a.TseitinClauses + b.TseitinClauses,
		BlastHits:      a.BlastHits + b.BlastHits,
		BlastMisses:    a.BlastMisses + b.BlastMisses,
		Clauses:        a.Clauses + b.Clauses,
		SATVars:        a.SATVars + b.SATVars,
	}
}

// countSolver publishes one solver instance's counters to the metrics
// registry (nil-safe). Called from worker goroutines — the registry's
// counters are atomic, which is what the -race CI job exercises.
func countSolver(o *obs.Obs, ss smt.SolverStats, status smt.Status) {
	if o == nil || o.Metrics == nil {
		return
	}
	m := o.Metrics
	m.Counter(obs.CtrSATConflicts).Add(ss.Conflicts)
	m.Counter(obs.CtrSATDecisions).Add(ss.Decisions)
	m.Counter(obs.CtrSATPropagations).Add(ss.Propagations)
	m.Counter(obs.CtrSATRestarts).Add(ss.Restarts)
	m.Counter(obs.CtrSATLearntClause).Add(ss.LearntClauses)
	m.Counter(obs.CtrSATLearntLits).Add(ss.LearntLits)
	m.Counter(obs.CtrSATLearntDeleted).Add(ss.LearntDeleted)
	m.Counter(obs.CtrSATElimVars).Add(ss.ElimVars)
	m.Counter(obs.CtrSATSubsumed).Add(ss.Subsumed)
	m.Counter(obs.CtrSATStrengthened).Add(ss.Strengthened)
	m.Counter(obs.CtrSMTTseitinClauses).Add(ss.TseitinClauses)
	m.Counter(obs.CtrSMTBlastHits).Add(ss.BlastHits)
	m.Counter(obs.CtrSMTBlastMisses).Add(ss.BlastMisses)
	m.Counter(obs.CtrVerifyChecks).Add(1)
	switch status {
	case smt.Sat:
		m.Counter(obs.CtrVerifySat).Add(1)
	case smt.Unsat:
		m.Counter(obs.CtrVerifyUnsat).Add(1)
	default:
		m.Counter(obs.CtrVerifyUnknown).Add(1)
	}
}

// Report is the outcome of a verification run.
type Report struct {
	Holds      bool
	Violations []*Violation
	Stats      Stats

	// Internals exposed for bug localization and tooling.
	Ctx     *smt.Ctx
	Env     *encode.Env
	Program gcl.Stmt
	Result  *gcl.Result

	// hists holds the run's live flight-recorder histograms (flight.go)
	// behind a pointer: they contain atomics, and Report is shallow-
	// copied by CanonicalJSON. Nil on bare Reports (all observes no-op).
	hists *runHists
}

// ErrBudget reports solver budget exhaustion (the analogue of the paper's
// OOT entries).
var ErrBudget = fmt.Errorf("verify: solver budget exhausted")

// Run verifies prog (+ optional snapshot) against spec.
func Run(prog *p4.Program, snap *tables.Snapshot, spec *lpi.Spec, opts Options) (*Report, error) {
	o := opts.Observer()
	ctx := smt.NewCtx()
	eopts := opts.Encode
	eopts.TrackModified = lpi.TrackModified(spec)
	endEncode := o.Phase(0, "encode")
	env := encode.NewEnv(ctx, prog, snap, eopts)
	endEncode()
	return RunWithEnv(ctx, env, spec, opts)
}

// RunWithEnv verifies with a caller-provided context and environment
// (used by localization to re-encode variants of the same program).
func RunWithEnv(ctx *smt.Ctx, env *encode.Env, spec *lpi.Spec, opts Options) (*Report, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	o := opts.Observer()
	// Intern stats are cumulative on the (possibly reused) context; publish
	// only this run's delta to the registry.
	internH0, internM0, frozen0 := ctx.InternStats()
	t0 := time.Now()
	endCompose := o.Phase(0, "compose")
	comp := lpi.NewCompiler(spec, env)
	program, err := comp.Compile()
	endCompose()
	if err != nil {
		return nil, err
	}
	endVCGen := o.Phase(0, "vcgen")
	enc := gcl.NewEncoder(ctx)
	res := enc.Encode(program, nil)
	endVCGen()
	encodeTime := time.Since(t0)

	rep := &Report{
		Ctx:     ctx,
		Env:     env,
		Program: program,
		Result:  res,
		Stats: Stats{
			EncodeTime: encodeTime,
			GCLSize:    gcl.Size(program),
			Assertions: len(res.Violations),
		},
		hists: &runHists{},
	}
	if o != nil && o.Metrics != nil {
		// Structural coverage feed: which GCL statement kinds this program
		// compiled into, and how many of each (log2-bucketed downstream).
		for kind, n := range gcl.KindCounts(program) {
			o.Metrics.Counter(obs.CtrGCLStmtPrefix + kind).Add(int64(n))
		}
	}
	t1 := time.Now()
	endSolve := o.Phase(0, "solve")
	err = rep.check(opts)
	endSolve()
	rep.Stats.SolveTime = time.Since(t1)
	rep.Stats.TermNodes = ctx.NumTerms()
	rep.Holds = len(rep.Violations) == 0
	rep.Stats.Histograms = rep.hists.stats()
	if o != nil {
		rep.hists.mergeInto(o.Metrics)
	}
	if o != nil && o.Metrics != nil {
		h1, m1, f1 := ctx.InternStats()
		o.Metrics.Counter(obs.CtrSMTInternHits).Add(h1 - internH0)
		o.Metrics.Counter(obs.CtrSMTInternMisses).Add(m1 - internM0)
		o.Metrics.Counter(obs.CtrSMTFrozenLocks).Add(f1 - frozen0)
		o.Metrics.Gauge(obs.GaugeTermNodes).Set(int64(rep.Stats.TermNodes))
		o.Metrics.Gauge(obs.GaugeVerifyWorkers).Set(int64(rep.Stats.Workers))
	}
	return rep, err
}

// statusString renders a solver verdict for reports and logs.
func statusString(st smt.Status) string {
	switch st {
	case smt.Sat:
		return "sat"
	case smt.Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

func (rep *Report) check(opts Options) error {
	if !opts.FindAll {
		return rep.checkFirst(opts)
	}
	return rep.checkAll(opts)
}

// checkOut is one assertion's result in the find-all engines.
type checkOut struct {
	done   bool
	status smt.Status
	model  *smt.Model
	ss     smt.SolverStats
	cpu    time.Duration
}

// checkOne is the fresh-solver unit of work: check one (possibly sliced)
// condition with a deterministic fresh solver. A Sat under preprocessing
// or a transformed condition is confirmed on the ORIGINAL condition by a
// plain fresh solver, so verdicts and counterexamples match the baseline
// byte-for-byte: a sliced Sat with a full-condition Unsat means the
// dropped (variable-disjoint) remainder was unsatisfiable on its own —
// the assertion holds, exactly the unsliced verdict. The re-check's cost
// is folded into the assertion's stats.
func (rep *Report) checkOne(opts Options, v *gcl.Violation, checkCond *smt.Term, worker int) (out checkOut) {
	o := opts.Observer()
	solver := opts.newSolver(rep.Ctx, opts.Preprocess)
	installProgress(o, solver, v.Label, worker)
	t0 := time.Now()
	out.status = solver.Check(checkCond)
	out.cpu = time.Since(t0)
	out.ss = solver.SolverStats()
	if out.status != smt.Sat {
		return out
	}
	if opts.Preprocess || checkCond != v.Cond {
		s2 := opts.newSolver(rep.Ctx, false)
		installProgress(o, s2, v.Label, worker)
		t1 := time.Now()
		out.status = s2.Check(v.Cond)
		out.cpu += time.Since(t1)
		out.ss = addStats(out.ss, s2.SolverStats())
		solver = s2
	}
	if out.status == smt.Sat {
		out.model = solver.Model()
		solver.ModelCollect(out.model, v.Cond)
	}
	return out
}

// sharedSolver is a long-lived solver answering many checks through
// activation literals: one per incremental shard, and the Session's warm
// solver. prev is its rolling stats snapshot for per-check deltas.
type sharedSolver struct {
	*smt.Solver
	prev smt.SolverStats
	// prefix is the largest single-check Tseitin delta: the check that
	// first touches the real VC blasts the whole shared prefix and later
	// checks reuse its CNF, so the largest delta is that one-time cost (a
	// plain "first check" would under-report when an early condition
	// simplifies to a constant and blasts nothing).
	prefix int64
}

// checkOneShared is the shared-solver unit of work: check one (possibly
// transformed) condition on a long-lived solver via an activation literal,
// then make the verdict canonical exactly as fresh mode would — a Sat is
// re-solved on the ORIGINAL condition by a deterministic fresh solver, a
// sliced Sat whose full condition is Unsat becomes Unsat (the dropped,
// variable-disjoint remainder was unsatisfiable on its own), and a
// contradicting re-check surfaces as Unknown rather than fabricating a
// model. The result's stats are this check's delta including any re-check
// cost; sh.prefix sees the shared solver's own Tseitin delta only.
func (rep *Report) checkOneShared(opts Options, v *gcl.Violation, checkCond *smt.Term, worker int, sh *sharedSolver) (out checkOut) {
	o := opts.Observer()
	installProgress(o, sh.Solver, v.Label, worker)
	t0 := time.Now()
	lit := sh.Indicator(checkCond)
	out.status = sh.CheckLits(lit)
	out.cpu = time.Since(t0)
	cur := sh.SolverStats()
	out.ss = statsDelta(cur, sh.prev)
	sh.prev = cur
	sh.prefix = max(sh.prefix, out.ss.TseitinClauses)
	if out.status != smt.Sat {
		return out
	}
	s2 := opts.newSolver(rep.Ctx, false)
	installProgress(o, s2, v.Label, worker)
	t1 := time.Now()
	st2 := s2.Check(v.Cond)
	out.cpu += time.Since(t1)
	out.ss = addStats(out.ss, s2.SolverStats())
	switch {
	case st2 == smt.Sat:
		out.model = s2.Model()
		s2.ModelCollect(out.model, v.Cond)
	case st2 == smt.Unsat && opts.Slice:
		out.status = smt.Unsat
	default:
		out.status = smt.Unknown
	}
	return out
}

// consume folds one checked assertion into the report, in assertion
// order: its cost row, its "assertion" event, and its violation (viol,
// non-nil iff the verdict is Sat). A budget Unknown ends the run: consume
// logs it and returns ErrBudget, and the caller stops there. Every
// find-all engine — the check loop and the Session — consumes through it.
func (rep *Report) consume(o *obs.Obs, budget int64, label string, out *checkOut, viol *Violation) error {
	rep.Stats.SolveCPU += out.cpu
	rep.Stats.addSolver(out.ss)
	rep.Stats.PerAssertion = append(rep.Stats.PerAssertion, AssertionCost{
		Label:        label,
		Status:       statusString(out.status),
		SolveTime:    out.cpu,
		Conflicts:    out.ss.Conflicts,
		Decisions:    out.ss.Decisions,
		Propagations: out.ss.Propagations,
		Restarts:     out.ss.Restarts,
		CNFClauses:   out.ss.Clauses,
		SATVars:      out.ss.SATVars,
	})
	o.Event("assertion", map[string]any{
		"label": label, "status": statusString(out.status),
		"solve_us": out.cpu.Microseconds(), "conflicts": out.ss.Conflicts,
		"clauses": out.ss.Clauses,
	})
	if out.status == smt.Unknown {
		o.Event("budget_exhausted", map[string]any{"label": label, "budget": budget})
		return ErrBudget
	}
	if viol != nil {
		rep.Violations = append(rep.Violations, viol)
	}
	return nil
}

// checkFirst runs the §8.1 find-first mode: one query over the disjunction
// of all violation conditions ("checking all assertions together").
func (rep *Report) checkFirst(opts Options) error {
	ctx := rep.Ctx
	o := opts.Observer()
	solver := opts.newSolver(ctx, opts.Preprocess)
	rep.Stats.Workers = 1

	disj := ctx.False()
	for _, v := range rep.Result.Violations {
		disj = ctx.Or(disj, v.Cond)
	}
	installProgress(o, solver, "all-assertions", 0)
	endSpan := o.Span(0, "solve:all-assertions")
	t0 := time.Now()
	st := solver.Check(disj)
	d0 := time.Since(t0)
	rep.Stats.SolveCPU += d0
	endSpan()
	ss := solver.SolverStats()
	rep.Stats.addSolver(ss)
	rep.recordCheck(o, "all-assertions", 0, ss, st, d0)
	o.Event("check_done", map[string]any{
		"mode": "find-first", "status": statusString(st),
		"conflicts": ss.Conflicts, "clauses": ss.Clauses,
	})
	if st == smt.Unknown {
		return ErrBudget
	}
	if st == smt.Unsat {
		return nil
	}
	m := solver.Model()
	solver.ModelCollect(m, disj)
	if opts.Preprocess {
		// Preprocessing reconstructs models for eliminated variables, which
		// can yield a different (equally valid) assignment than the plain
		// solver — and the model picks which assertion find-first reports.
		// Re-solve the disjunction with a plain fresh solver and use its
		// deterministic model so reports match the unpreprocessed baseline.
		s2 := opts.newSolver(ctx, false)
		installProgress(o, s2, "all-assertions", 0)
		t1 := time.Now()
		st2 := s2.Check(disj)
		d1 := time.Since(t1)
		rep.Stats.SolveCPU += d1
		ss2 := s2.SolverStats()
		rep.Stats.addSolver(ss2)
		rep.recordCheck(o, "all-assertions", 0, ss2, st2, d1)
		if st2 == smt.Unknown {
			return ErrBudget
		}
		if st2 != smt.Sat {
			return fmt.Errorf("verify: plain re-check contradicts preprocessed sat verdict")
		}
		m = s2.Model()
		s2.ModelCollect(m, disj)
	}
	// Identify the first assertion the model violates.
	for _, v := range rep.Result.Violations {
		if m.Bool(v.Cond) {
			rep.Violations = append(rep.Violations, rep.makeViolation(v, m))
			return nil
		}
	}
	// The model satisfied the disjunction but the evaluator attributes it
	// to no single assertion (possible only through a blaster/evaluator
	// divergence). Re-check each assertion under the model's assignment
	// rather than emitting an unusable "unknown" violation.
	assignment := modelAssignment(ctx, m, disj)
	for _, v := range rep.Result.Violations {
		s2 := opts.newSolver(ctx, false)
		installProgress(o, s2, v.Label, 0)
		t1 := time.Now()
		st2 := s2.Check(ctx.And(assignment, v.Cond))
		d1 := time.Since(t1)
		rep.Stats.SolveCPU += d1
		ss2 := s2.SolverStats()
		rep.Stats.addSolver(ss2)
		rep.recordCheck(o, v.Label, 0, ss2, st2, d1)
		if st2 == smt.Sat {
			m2 := s2.Model()
			s2.ModelCollect(m2, v.Cond)
			rep.Violations = append(rep.Violations, rep.makeViolation(v, m2))
			return nil
		}
	}
	return fmt.Errorf("verify: find-first produced a model matching no assertion (solver/evaluator inconsistency)")
}

// modelAssignment renders m's assignment of the variables of t as a
// conjunction of equalities, for re-checking queries under a fixed model.
func modelAssignment(ctx *smt.Ctx, m *smt.Model, t *smt.Term) *smt.Term {
	cond := ctx.True()
	for _, v := range smt.Vars(t) {
		if v.Op == smt.OpBoolVar {
			cond = ctx.And(cond, ctx.Iff(v, ctx.Bool(m.Bool(v))))
		} else {
			cond = ctx.And(cond, ctx.Eq(v, ctx.BVBig(m.BV(v), v.Width)))
		}
	}
	return cond
}

// streamReleaseMin gates arena rollback under Options.Stream: a release
// rebuilds the intern table over the surviving prefix, so it only pays
// off once a meaningful burst of transient terms has accumulated past the
// watermark. Package variable so tests can force releases on programs far
// smaller than the production VCs the policy exists for.
var streamReleaseMin = 1024

// checkAll runs the §5.1/§8.1 find-all mode: every violation condition is
// checked independently, in three steps.
//
//  1. Prepare the check conditions, serially while the context may still
//     intern: cone-of-influence slices (Options.Slice) and, for shared
//     solvers, algebraic simplification (Options.Simplify).
//  2. With more than one worker, freeze the context and run the workers.
//     The solver policy picks the queue: fresh solvers (the default) take
//     the next index from a shared counter (ForEachWorker); shared solvers
//     (Options.Incremental) each walk one StaticShards shard in ascending
//     order, so the assertion sequence a solver accumulates state over is
//     reproducible. Workers stop at the lowest budget-exhausted index.
//  3. Consume the results in assertion order through consume, up to the
//     first budget Unknown. Checks the workers did not run — every check
//     on the serial path — run inline here under the same policy, so the
//     consumed prefix is identical at every Parallel setting.
//
// Stream is a memory policy of the serial path: conditions are sliced
// lazily in step 3, and the arena is rolled back to a pre-slicing
// watermark after a consume once enough transients have accumulated, so
// peak term memory is the VC plus one assertion's transients. Slices are
// rebuilt identically after a purge (hash-consing), so nothing a report
// shows depends on when releases happen.
//
// Determinism: every verdict is semantic and every Sat is re-solved on
// the original condition by the same deterministic fresh solver, so
// canonical reports are byte-identical across worker counts, solver
// policies and the stream policy. Budget-exhaustion (Unknown) verdicts are
// the one exception: learned clauses change how far a budget reaches, so
// with shared solvers they can differ between worker counts (documented in
// DESIGN.md).
func (rep *Report) checkAll(opts Options) error {
	ctx := rep.Ctx
	conds := rep.Result.Violations
	n := len(conds)
	o := opts.Observer()
	workers := max(1, min(opts.Workers(), n))
	if opts.Stream {
		workers = 1 // Parallel 0 (GOMAXPROCS) passes Validate
	}
	rep.Stats.Workers = workers
	rep.Stats.Stream = opts.Stream
	if opts.Incremental {
		rep.Stats.Incremental = true
		rep.Stats.Shards = workers
		if o != nil && o.Metrics != nil {
			o.Metrics.Gauge(obs.GaugeVerifyShards).Set(int64(workers))
		}
	}

	// Step 1: prepare the check conditions.
	var mark int
	var released0 int64
	if opts.Stream {
		mark, released0 = ctx.Mark(), ctx.ReleasedTerms()
	}
	checkConds := make([]*smt.Term, n)
	for i, v := range conds {
		checkConds[i] = v.Cond
	}
	var sl *slicer
	if opts.Slice {
		sl = newSlicer(ctx)
		if !opts.Stream {
			endSlice := o.Phase(0, "slice")
			for i, v := range conds {
				checkConds[i] = rep.sliceOne(sl, v)
			}
			endSlice()
		}
	}
	if opts.Incremental && opts.Simplify {
		endSimp := o.Phase(0, "simplify")
		simp := smt.NewSimplifier(ctx)
		for i, c := range checkConds {
			checkConds[i] = simp.Simplify(c)
		}
		endSimp()
		rep.Stats.SimplifyRewrites = simp.Rewrites
		if o != nil && o.Metrics != nil {
			o.Metrics.Counter(obs.CtrSMTSimplifyRewrites).Add(simp.Rewrites)
		}
		o.Event("simplify", map[string]any{"rewrites": simp.Rewrites})
	}

	outs := make([]checkOut, n)
	// shared holds the shared-solver policy's solvers: shared[s] serves
	// shard s on the workers; the serial path creates shared[0] on first use.
	var shared []*sharedSolver
	newShared := func() {
		shared = append(shared, &sharedSolver{Solver: opts.newSolver(ctx, opts.Preprocess)})
	}
	// limit is the lowest assertion index seen to exhaust the budget;
	// workers skip checks at or beyond it so every worker stops promptly.
	var limit atomic.Int64
	limit.Store(int64(n))
	runCheck := func(worker, i int, sh *sharedSolver) {
		v := conds[i]
		out := &outs[i]
		endSpan := o.Span(worker, "solve:"+v.Label)
		if sh != nil {
			*out = rep.checkOneShared(opts, v, checkConds[i], worker, sh)
		} else {
			*out = rep.checkOne(opts, v, checkConds[i], worker)
		}
		endSpan()
		rep.recordCheck(o, v.Label, worker, out.ss, out.status, out.cpu)
		out.done = true
		if out.status != smt.Unknown {
			return
		}
		for {
			cur := limit.Load()
			if int64(i) >= cur || limit.CompareAndSwap(cur, int64(i)) {
				return
			}
		}
	}

	// Step 2: the workers.
	if workers > 1 {
		if o != nil && o.Tracer != nil {
			o.Tracer.NameThread(0, "main")
			for w := 1; w <= workers; w++ {
				o.Tracer.NameThread(w, fmt.Sprintf("worker-%d", w))
			}
		}
		// The context becomes shared read-only state; blasting and model
		// extraction never intern, and any stray term creation serializes.
		ctx.Freeze()
		if opts.Incremental {
			shards := StaticShards(workers, n)
			for range shards {
				newShared()
			}
			var wg sync.WaitGroup
			for s, idx := range shards {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, i := range idx {
						if int64(i) >= limit.Load() {
							break
						}
						runCheck(s+1, i, shared[s])
					}
				}()
			}
			wg.Wait()
		} else {
			ForEachWorker(workers, n, func(worker, i int) {
				if int64(i) < limit.Load() {
					runCheck(worker, i, nil)
				}
			})
		}
	}

	// Step 3: consume in assertion order. A shard only skips indices at or
	// beyond the final limit, so with shared solvers every consumed check
	// already ran; the serial path runs each check here, on one shared
	// solver walking the single shard in order.
	var err error
	for i, v := range conds {
		out := &outs[i]
		if !out.done {
			if opts.Stream && sl != nil {
				endSlice := o.Span(0, "slice:"+v.Label)
				checkConds[i] = rep.sliceOne(sl, v)
				endSlice()
			}
			var sh *sharedSolver
			if opts.Incremental {
				if len(shared) == 0 {
					newShared()
				}
				sh = shared[0]
			}
			runCheck(0, i, sh)
		}
		// The counterexample is rendered here, before any stream release:
		// the model is name-keyed and v.Cond predates the watermark, so the
		// stored Violation retains no released pointers.
		var viol *Violation
		if out.status == smt.Sat {
			viol = rep.makeViolation(v, out.model)
		}
		if err = rep.consume(o, opts.Budget, v.Label, out, viol); err != nil {
			break
		}
		if opts.Stream && !ctx.Frozen() && ctx.NumTerms()-mark >= streamReleaseMin {
			if sl != nil {
				sl.purge(mark)
			}
			ctx.Release(mark)
			rep.Stats.StreamReleases++
		}
	}

	for _, sh := range shared {
		rep.Stats.PrefixClauses += sh.prefix
	}
	if sl != nil {
		rep.Stats.SliceConjuncts = sl.Conjuncts
		rep.Stats.SliceDropped = sl.Dropped
		if o != nil && o.Metrics != nil {
			o.Metrics.Counter(obs.CtrVerifySliceDropped).Add(sl.Dropped)
		}
		o.Event("slice", map[string]any{"conjuncts": sl.Conjuncts, "dropped": sl.Dropped})
	}
	if opts.Stream {
		rep.Stats.ReleasedTerms = ctx.ReleasedTerms() - released0
		if o != nil && o.Metrics != nil {
			o.Metrics.Counter(obs.CtrSMTTermsReleased).Add(rep.Stats.ReleasedTerms)
		}
	}
	return err
}

// StaticShards partitions indices 0..n-1 into `shards` slices by index
// modulo: shard s owns s, s+shards, s+2*shards, ... in ascending order.
// Unlike the dynamic scheduling of ForEachWorker, the assignment depends
// only on (shards, n) — the property incremental solving needs, because
// each shard accumulates state in a shared solver and the assertion
// sequence a solver sees must be reproducible. With n <= 0 it returns no
// shards at all: an empty shard would still make its owner spawn a solver
// (and blast the shared prefix) for zero checks, so callers must get
// nothing to iterate instead.
func StaticShards(shards, n int) [][]int {
	if n <= 0 {
		return nil
	}
	if shards > n {
		shards = n
	}
	if shards < 1 {
		shards = 1
	}
	out := make([][]int, shards)
	for i := 0; i < n; i++ {
		out[i%shards] = append(out[i%shards], i)
	}
	return out
}

func (rep *Report) makeViolation(v *gcl.Violation, m *smt.Model) *Violation {
	out := &Violation{Label: v.Label, Model: m, Cond: v.Cond}
	if info, ok := v.Meta.(*lpi.AssertionInfo); ok {
		out.Info = info
	}
	out.Cex = rep.renderCex(v.Cond, m)
	return out
}

// renderCex formats the assignment of the input variables mentioned in the
// violation condition.
func (rep *Report) renderCex(cond *smt.Term, m *smt.Model) string {
	vars := smt.Vars(cond)
	var lines []string
	for _, v := range vars {
		name := v.Name
		// Internal encoder variables are noise in reports.
		if strings.HasPrefix(name, "$enc.") || strings.HasPrefix(name, "choice!") ||
			strings.HasPrefix(name, "havoc$") || strings.Contains(name, "!") {
			continue
		}
		// The residual free value of a header field is its pre-parse
		// content, which is unobservable garbage — suppress it. (Its wire
		// image appears as pkt.<field> instead.)
		if rep.Env != nil && !strings.HasPrefix(name, "pkt.") && !strings.HasPrefix(name, "$") {
			if i := strings.LastIndex(name, "."); i > 0 {
				if inst := rep.Env.Prog.Instance(name[:i]); inst != nil && inst.IsHeader {
					continue
				}
			}
		}
		if v.Op == smt.OpBoolVar {
			lines = append(lines, fmt.Sprintf("%s = %v", name, m.Bool(v)))
		} else {
			lines = append(lines, fmt.Sprintf("%s = 0x%x", name, m.BV(v)))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// BlockedBehaviour names a table behaviour that participates in a
// violation found under any-entries verification (§2: "for the table
// entries potentially triggering bugs, the second case enables us to
// record these entries in a blocklist ahead of time, preventing them in
// runtime").
type BlockedBehaviour struct {
	Table string // fully qualified Control.table
	// Hit and ActionLAID are the free-choice values of the counterexample:
	// an entry making this table hit with this action on the
	// counterexample's packet would trigger the violation.
	Hit        bool
	ActionLAID uint64
	Assertion  string
}

// Blocklist extracts, for each violation, the wildcard-table behaviours of
// its counterexample. Only meaningful when the run had no snapshot (tables
// encoded as function variables).
func (rep *Report) Blocklist() []BlockedBehaviour {
	var out []BlockedBehaviour
	ctx := rep.Ctx
	for _, v := range rep.Violations {
		seen := map[string]bool{}
		for _, t := range smt.Vars(v.Cond) {
			name := t.Name
			if !strings.HasPrefix(name, "$tbl.") || !strings.HasSuffix(name, ".hit") {
				continue
			}
			fq := strings.TrimSuffix(strings.TrimPrefix(name, "$tbl."), ".hit")
			if seen[fq] {
				continue
			}
			seen[fq] = true
			out = append(out, BlockedBehaviour{
				Table:      fq,
				Hit:        v.Model.Bool(ctx.BoolVar("$tbl." + fq + ".hit")),
				ActionLAID: v.Model.Uint64(ctx.Var("$tbl."+fq+".laid", 16)),
				Assertion:  v.Label,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Assertion < out[j].Assertion
	})
	return out
}

// String renders a human-readable report.
func (rep *Report) String() string {
	var b strings.Builder
	if rep.Holds {
		fmt.Fprintf(&b, "verified: all %d assertions hold\n", rep.Stats.Assertions)
	} else {
		fmt.Fprintf(&b, "VIOLATED: %d of %d assertions\n", len(rep.Violations), rep.Stats.Assertions)
		for _, v := range rep.Violations {
			fmt.Fprintf(&b, "  assertion %s", v.Label)
			if v.Info != nil {
				fmt.Fprintf(&b, " (line %d: %s)", v.Info.Line, v.Info.Text)
			}
			b.WriteString("\n")
			for _, line := range strings.Split(v.Cex, "\n") {
				if line != "" {
					fmt.Fprintf(&b, "    %s\n", line)
				}
			}
		}
	}
	fmt.Fprintf(&b, "stats: encode %v, solve %v (cpu %v, %d workers), gcl %d stmts, %d terms, %d clauses, %d sat vars\n",
		rep.Stats.EncodeTime.Round(time.Millisecond), rep.Stats.SolveTime.Round(time.Millisecond),
		rep.Stats.SolveCPU.Round(time.Millisecond), rep.Stats.Workers,
		rep.Stats.GCLSize, rep.Stats.TermNodes, rep.Stats.CNFClauses, rep.Stats.SATVars)
	fmt.Fprintf(&b, "sat:   %d conflicts, %d decisions, %d propagations, %d restarts, %d learnt clauses (%d literals)\n",
		rep.Stats.Conflicts, rep.Stats.Decisions, rep.Stats.Propagations,
		rep.Stats.Restarts, rep.Stats.LearntClauses, rep.Stats.LearntLits)
	if rep.Stats.Incremental {
		fmt.Fprintf(&b, "incr:  %d shards, %d tseitin clauses emitted (%d in shard prefixes), %d blast-cache hits, %d simplifier rewrites, %d learnt deleted\n",
			rep.Stats.Shards, rep.Stats.TseitinClauses, rep.Stats.PrefixClauses,
			rep.Stats.BlastHits, rep.Stats.SimplifyRewrites, rep.Stats.LearntDeleted)
	}
	if rep.Stats.ElimVars+rep.Stats.SubsumedClauses+rep.Stats.StrengthenedClauses > 0 {
		fmt.Fprintf(&b, "prep:  %d vars eliminated, %d clauses subsumed, %d strengthened\n",
			rep.Stats.ElimVars, rep.Stats.SubsumedClauses, rep.Stats.StrengthenedClauses)
	}
	if rep.Stats.SliceConjuncts > 0 {
		fmt.Fprintf(&b, "slice: %d of %d VC conjuncts dropped\n",
			rep.Stats.SliceDropped, rep.Stats.SliceConjuncts)
	}
	if rep.Stats.Stream {
		fmt.Fprintf(&b, "strm:  %d arena releases, %d transient terms discarded\n",
			rep.Stats.StreamReleases, rep.Stats.ReleasedTerms)
	}
	if rep.Stats.DeltaReuse+rep.Stats.DeltaRecheck > 0 {
		fmt.Fprintf(&b, "delta: %d verdicts replayed, %d rechecked\n",
			rep.Stats.DeltaReuse, rep.Stats.DeltaRecheck)
	}
	return b.String()
}

// JSONReport is the machine-readable form of a Report, for CI pipelines
// that gate deployments on verification (the §9 "usage phase" workflow:
// checking data planes during service runtime and before updates).
type JSONReport struct {
	Holds      bool            `json:"holds"`
	Assertions int             `json:"assertions"`
	Violations []JSONViolation `json:"violations,omitempty"`
	Stats      JSONStats       `json:"stats"`
	// PerAssertion is the find-all per-assertion cost breakdown (Figure 11
	// data); absent in find-first mode.
	PerAssertion []JSONAssertionCost `json:"per_assertion,omitempty"`
}

// JSONViolation is one violated assertion.
type JSONViolation struct {
	Label          string            `json:"label"`
	Block          string            `json:"block,omitempty"`
	Line           int               `json:"line,omitempty"`
	Text           string            `json:"text,omitempty"`
	Counterexample map[string]string `json:"counterexample,omitempty"`
}

// JSONStats carries the cost metrics.
type JSONStats struct {
	EncodeMS      int64 `json:"encode_ms"`
	SolveMS       int64 `json:"solve_ms"`
	SolveCPUMS    int64 `json:"solve_cpu_ms"`
	GCLSize       int   `json:"gcl_size"`
	TermNodes     int   `json:"term_nodes"`
	CNFClauses    int   `json:"cnf_clauses"`
	SATVars       int   `json:"sat_vars"`
	Conflicts     int64 `json:"conflicts"`
	Decisions     int64 `json:"decisions"`
	Propagations  int64 `json:"propagations"`
	Restarts      int64 `json:"restarts"`
	LearntClauses int64 `json:"learnt_clauses"`
	LearntLits    int64 `json:"learnt_literals"`

	// Incremental-mode extras (absent in fresh mode and in canonical
	// reports).
	Incremental      bool  `json:"incremental,omitempty"`
	Shards           int   `json:"shards,omitempty"`
	SimplifyRewrites int64 `json:"simplify_rewrites,omitempty"`
	PrefixClauses    int64 `json:"prefix_clauses,omitempty"`
	TseitinClauses   int64 `json:"tseitin_clauses,omitempty"`
	BlastHits        int64 `json:"blast_cache_hits,omitempty"`
	LearntDeleted    int64 `json:"learnt_deleted,omitempty"`

	// Preprocessing / slicing extras (absent with the passes off and in
	// canonical reports).
	ElimVars            int64 `json:"elim_vars,omitempty"`
	SubsumedClauses     int64 `json:"subsumed_clauses,omitempty"`
	StrengthenedClauses int64 `json:"strengthened_clauses,omitempty"`
	SliceConjuncts      int64 `json:"slice_conjuncts,omitempty"`
	SliceDropped        int64 `json:"slice_dropped,omitempty"`

	// Streaming-mode extras (absent with the mode off and in canonical
	// reports).
	Stream         bool  `json:"stream,omitempty"`
	StreamReleases int64 `json:"stream_releases,omitempty"`
	ReleasedTerms  int64 `json:"released_terms,omitempty"`

	// Session-engine extras (absent outside Session.Apply reports and in
	// canonical reports).
	DeltaReuse   int64 `json:"delta_reuse,omitempty"`
	DeltaRecheck int64 `json:"delta_recheck,omitempty"`

	// Flight-recorder histograms (absent in canonical reports).
	Histograms []JSONHistogram `json:"histograms,omitempty"`
}

// JSONHistogram is one flight-recorder distribution: log2 buckets
// (bucket i counts values v with 2^(i-1) <= v < 2^i; bucket 0 is
// v <= 0), trimmed to the highest non-empty bucket.
type JSONHistogram struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Buckets []int64 `json:"buckets,omitempty"`
}

// JSONAssertionCost is one assertion's row in the per-assertion breakdown.
// Times are microseconds (solve_us) for resolution on small formulas.
type JSONAssertionCost struct {
	Label        string `json:"label"`
	Status       string `json:"status"`
	SolveUS      int64  `json:"solve_us"`
	Conflicts    int64  `json:"conflicts"`
	Decisions    int64  `json:"decisions"`
	Propagations int64  `json:"propagations"`
	Restarts     int64  `json:"restarts"`
	CNFClauses   int    `json:"cnf_clauses"`
	SATVars      int    `json:"sat_vars"`
}

// JSON renders the report for machine consumption.
func (rep *Report) JSON() ([]byte, error) {
	out := JSONReport{
		Holds:      rep.Holds,
		Assertions: rep.Stats.Assertions,
		Stats: JSONStats{
			EncodeMS:      rep.Stats.EncodeTime.Milliseconds(),
			SolveMS:       rep.Stats.SolveTime.Milliseconds(),
			SolveCPUMS:    rep.Stats.SolveCPU.Milliseconds(),
			GCLSize:       rep.Stats.GCLSize,
			TermNodes:     rep.Stats.TermNodes,
			CNFClauses:    rep.Stats.CNFClauses,
			SATVars:       rep.Stats.SATVars,
			Conflicts:     rep.Stats.Conflicts,
			Decisions:     rep.Stats.Decisions,
			Propagations:  rep.Stats.Propagations,
			Restarts:      rep.Stats.Restarts,
			LearntClauses: rep.Stats.LearntClauses,
			LearntLits:    rep.Stats.LearntLits,

			Incremental:      rep.Stats.Incremental,
			Shards:           rep.Stats.Shards,
			SimplifyRewrites: rep.Stats.SimplifyRewrites,
			PrefixClauses:    rep.Stats.PrefixClauses,
			TseitinClauses:   rep.Stats.TseitinClauses,
			BlastHits:        rep.Stats.BlastHits,
			LearntDeleted:    rep.Stats.LearntDeleted,

			ElimVars:            rep.Stats.ElimVars,
			SubsumedClauses:     rep.Stats.SubsumedClauses,
			StrengthenedClauses: rep.Stats.StrengthenedClauses,
			SliceConjuncts:      rep.Stats.SliceConjuncts,
			SliceDropped:        rep.Stats.SliceDropped,

			Stream:         rep.Stats.Stream,
			StreamReleases: rep.Stats.StreamReleases,
			ReleasedTerms:  rep.Stats.ReleasedTerms,

			DeltaReuse:   rep.Stats.DeltaReuse,
			DeltaRecheck: rep.Stats.DeltaRecheck,
		},
	}
	for _, h := range rep.Stats.Histograms {
		out.Stats.Histograms = append(out.Stats.Histograms, JSONHistogram{
			Name: h.Name, Count: h.Count, Sum: h.Sum, Buckets: h.Buckets,
		})
	}
	for _, a := range rep.Stats.PerAssertion {
		out.PerAssertion = append(out.PerAssertion, JSONAssertionCost{
			Label:        a.Label,
			Status:       a.Status,
			SolveUS:      a.SolveTime.Microseconds(),
			Conflicts:    a.Conflicts,
			Decisions:    a.Decisions,
			Propagations: a.Propagations,
			Restarts:     a.Restarts,
			CNFClauses:   a.CNFClauses,
			SATVars:      a.SATVars,
		})
	}
	for _, v := range rep.Violations {
		jv := JSONViolation{Label: v.Label, Counterexample: map[string]string{}}
		if v.Info != nil {
			jv.Block, jv.Line, jv.Text = v.Info.Block, v.Info.Line, v.Info.Text
		}
		for _, line := range strings.Split(v.Cex, "\n") {
			if name, val, ok := strings.Cut(line, " = "); ok {
				jv.Counterexample[name] = val
			}
		}
		out.Violations = append(out.Violations, jv)
	}
	return json.MarshalIndent(out, "", "  ")
}

// CanonicalJSON renders the report's semantic outcome: the verdict, the
// assertion count, the violations with their counterexamples, the GCL
// size, and each assertion's label and status. It is built from those
// fields alone, so every cost field (wall times, SAT search counters,
// CNF/term sizes, histograms) renders as zero or is omitted, whatever
// counters Stats grows. The result is deterministic across runs, across
// Parallel settings, with or without observability sinks, and between
// fresh-solver and incremental modes: two canonical reports of the same
// verification problem compare byte-for-byte. Cost counters are excluded
// because solver sharing changes them — that is the optimization, not a
// behavioural difference; the raw JSON() report keeps them all.
func (rep *Report) CanonicalJSON() ([]byte, error) {
	canon := Report{
		Holds:      rep.Holds,
		Violations: rep.Violations,
		Stats: Stats{
			Assertions: rep.Stats.Assertions,
			GCLSize:    rep.Stats.GCLSize,
		},
	}
	for _, a := range rep.Stats.PerAssertion {
		canon.Stats.PerAssertion = append(canon.Stats.PerAssertion,
			AssertionCost{Label: a.Label, Status: a.Status})
	}
	return canon.JSON()
}
