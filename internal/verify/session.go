package verify

import (
	"fmt"
	"sort"
	"time"

	"aquila/internal/encode"
	"aquila/internal/gcl"
	"aquila/internal/lpi"
	"aquila/internal/obs"
	"aquila/internal/p4"
	"aquila/internal/smt"
	"aquila/internal/tables"
)

// Session is the delta re-verification engine: load a program and a
// table snapshot once, then re-verify cheaply as the control plane
// churns entries. It keeps warm, across every applied tables.Delta:
//
//   - the hash-consed term context (never frozen, never released during
//     normal operation), so re-encoding the program over the mutated
//     snapshot re-interns every formula a delta did not touch to the
//     SAME pointer — pointer identity over the warm context IS the
//     change detector;
//   - the cone-of-influence slicer with its factorization and
//     variable-support memos, so only conjunct lists involving new
//     terms are re-factored;
//   - one shared incremental SAT solver whose blasted CNF and learned
//     clauses persist across checks and across deltas ("blast once,
//     re-check little"), with stale activation literals retired
//     (unfrozen) so CNF preprocessing may reclaim dead cones;
//   - a per-assertion verdict cache replayed when a condition is
//     pointer-unchanged.
//
// Replay rules (the determinism contract, see DESIGN.md):
//
//   - full condition pointer unchanged, cached verdict Sat or Unsat →
//     replay the verdict and the cached Violation. The cached model came
//     from a deterministic fresh solver on this very term, so the bytes
//     are what a fresh run would produce.
//   - sliced condition pointer unchanged and cached verdict Unsat →
//     replay Unsat. The slice K and the dropped remainder D have
//     disjoint variable supports, so Unsat(K) implies Unsat(K ∧ D') for
//     every remainder D' — a delta that changes only dropped conjuncts
//     cannot make a held assertion fail.
//   - anything else (changed slice, cached Sat under a changed full
//     condition, cached Unknown) → re-check on the warm shared solver
//     with the same canonicalization the incremental engine uses: a Sat
//     is re-solved on the full condition by a deterministic fresh
//     solver, a sliced Sat whose full condition is Unsat becomes Unsat,
//     a contradiction surfaces as Unknown.
//
// Under those rules every Apply report's CanonicalJSON is byte-identical
// to a fresh verify.Run on the mutated snapshot, with budget-exhaustion
// (Unknown) verdicts the same documented exception incremental mode has.
type Session struct {
	prog *p4.Program
	spec *lpi.Spec
	opts Options

	ctx  *smt.Ctx
	mark int // arena watermark at creation, for Compact
	snap *tables.Snapshot

	slicer *slicer

	// Warm shared solver state. live tracks conditions with an active
	// (frozen) indicator on the current solver; retiring a condition
	// unfreezes its indicator, and re-checking a retired condition simply
	// re-freezes it, so no condition ever forces a rebuild.
	solver *sharedSolver
	live   map[*smt.Term]bool

	cache []sessionEntry
	fqs   []string // all fq table names of the program

	// deps is the fq table -> assertion labels index, built lazily from
	// the latest run's slices (depsEnv/depsConds/depsCheck) the first time
	// Affected is called after an Apply: the index is predictive only, so
	// the DAG walks that build it stay off the per-delta hot path.
	deps      map[string][]string
	depsEnv   *encode.Env
	depsConds []*gcl.Violation
	depsCheck []*smt.Term

	base  *Report
	stats SessionStats
}

// sessionEntry caches one assertion's last verdict, keyed positionally
// (the assertion list is structurally stable across deltas — same spec,
// same program).
type sessionEntry struct {
	label      string
	fullCond   *smt.Term
	slicedCond *smt.Term
	status     smt.Status
	violation  *Violation // non-nil iff status == Sat
}

// SessionStats are the session's cumulative warm-path counters.
type SessionStats struct {
	// Deltas is the number of Apply calls.
	Deltas int
	// ReuseHits counts verdicts replayed from the cache; Rechecks counts
	// assertions re-solved (baseline checks included).
	ReuseHits int64
	Rechecks  int64
	// Retired counts stale indicators released (unfrozen) so CNF
	// preprocessing may reclaim their cones.
	Retired int64
}

// NewSession loads prog + snap once and runs the baseline verification.
// snap may be nil (any-entries mode); Apply then installs the first
// entries. The session forces find-all + slicing (its replay rules are
// built on cone-of-influence slices) and owns a clone of snap.
func NewSession(prog *p4.Program, snap *tables.Snapshot, spec *lpi.Spec, opts Options) (*Session, error) {
	opts.Session = true
	opts.FindAll = true
	opts.Slice = true
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	ctx := smt.NewCtx()
	s := &Session{
		prog:   prog,
		spec:   spec,
		opts:   opts,
		ctx:    ctx,
		mark:   ctx.Mark(),
		snap:   snap.Clone(),
		slicer: newSlicer(ctx),
		live:   map[*smt.Term]bool{},
	}
	for ctlName, ctl := range prog.Controls {
		for tname := range ctl.Tables {
			s.fqs = append(s.fqs, ctlName+"."+tname)
		}
	}
	sort.Strings(s.fqs)
	rep, err := s.run(nil)
	if err != nil && err != ErrBudget {
		return nil, err
	}
	s.base = rep
	return s, err
}

// Baseline returns the report of the session's initial full run.
func (s *Session) Baseline() *Report { return s.base }

// Ctx exposes the session's warm term context (tooling and tests).
func (s *Session) Ctx() *smt.Ctx { return s.ctx }

// Snapshot returns a clone of the session's current table snapshot (the
// baseline snapshot with every applied delta folded in).
func (s *Session) Snapshot() *tables.Snapshot { return s.snap.Clone() }

// SessionStats returns the cumulative warm-path counters.
func (s *Session) SessionStats() SessionStats { return s.stats }

// Apply folds delta into the session snapshot and re-verifies: the
// program is re-encoded over the warm context, conditions are re-sliced
// through the memoized slicer, pointer-unchanged verdicts are replayed,
// and the rest are re-solved on the warm shared solver. The returned
// report's CanonicalJSON is byte-identical to a fresh verify.Run on the
// mutated snapshot (Unknown verdicts excepted, as documented). A failed
// delta (bad table, bad index) leaves the session unchanged.
func (s *Session) Apply(delta *tables.Delta) (*Report, error) {
	if delta == nil {
		return nil, fmt.Errorf("verify: Apply(nil delta)")
	}
	next := s.snap.Clone()
	if next == nil {
		next = tables.NewSnapshot()
	}
	if err := delta.Apply(next); err != nil {
		return nil, err
	}
	s.snap = next
	s.stats.Deltas++
	return s.run(delta)
}

// Affected returns the labels of assertions whose last cone-of-influence
// slice mentions a table the delta touches, sorted. The index is
// PREDICTIVE — it names what should be re-checked; pointer identity over
// the warm context is what actually decides, so a coincidental encoding
// shift can only cause a spurious re-check, never a wrong replay.
func (s *Session) Affected(delta *tables.Delta) []string {
	if s.deps == nil && s.depsConds != nil {
		s.buildDeps(s.depsEnv, s.depsConds, s.depsCheck)
	}
	seen := map[string]bool{}
	var out []string
	for _, fq := range delta.Tables() {
		for _, label := range s.deps[fq] {
			if !seen[label] {
				seen[label] = true
				out = append(out, label)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Compact releases the session's warm memory: the shared solver, the
// verdict cache, the slicer memos, and the term arena (rolled back to
// the creation watermark). The session stays usable — the next Apply
// re-encodes and re-checks everything from scratch, exactly as a new
// session would. Reports previously returned keep their rendered bytes
// (JSON, Cex strings) but their term-level internals (Ctx, Env, Result,
// Violation.Cond/Model) must not be used afterwards.
func (s *Session) Compact() {
	s.dropSolver()
	s.cache = nil
	s.dropDeps()
	s.slicer = newSlicer(s.ctx)
	s.base = nil
	if !s.ctx.Frozen() {
		s.ctx.Release(s.mark)
	}
}

// dropDeps clears the dependency index and the run slices it is built
// from.
func (s *Session) dropDeps() {
	s.deps = nil
	s.depsEnv = nil
	s.depsConds = nil
	s.depsCheck = nil
}

// Close drops every warm structure. The session must not be used after
// Close; the context becomes collectable once the caller's reports are.
func (s *Session) Close() {
	s.dropSolver()
	s.cache = nil
	s.dropDeps()
	s.slicer = nil
	s.base = nil
}

// dropSolver discards the warm shared solver and its bookkeeping.
func (s *Session) dropSolver() {
	s.solver = nil
	s.live = map[*smt.Term]bool{}
}

// ensureSolver returns the warm shared solver, creating it on first use
// and after Compact.
func (s *Session) ensureSolver() *sharedSolver {
	if s.solver == nil {
		s.solver = &sharedSolver{Solver: s.opts.newSolver(s.ctx, s.opts.Preprocess)}
	}
	return s.solver
}

// run is the shared baseline/delta pipeline: encode the program over the
// warm context against the current snapshot, compile, generate VCs,
// re-slice through the persistent slicer, then replay or re-check each
// assertion. delta is nil for the baseline run.
func (s *Session) run(delta *tables.Delta) (*Report, error) {
	o := s.opts.Observer()
	t0 := time.Now()
	eopts := s.opts.Encode
	eopts.TrackModified = lpi.TrackModified(s.spec)
	endEncode := o.Phase(0, "encode")
	env := encode.NewEnv(s.ctx, s.prog, s.snap, eopts)
	endEncode()
	endCompose := o.Phase(0, "compose")
	program, err := lpi.NewCompiler(s.spec, env).Compile()
	endCompose()
	if err != nil {
		return nil, err
	}
	endVCGen := o.Phase(0, "vcgen")
	res := gcl.NewEncoder(s.ctx).Encode(program, nil)
	endVCGen()

	rep := &Report{
		Ctx:     s.ctx,
		Env:     env,
		Program: program,
		Result:  res,
		Stats: Stats{
			EncodeTime: time.Since(t0),
			GCLSize:    gcl.Size(program),
			Assertions: len(res.Violations),
			Workers:    1,
		},
		hists: &runHists{},
	}

	conds := res.Violations
	if len(s.cache) != len(conds) {
		// First run, post-Compact run, or a structural surprise: no entry
		// can be trusted positionally, start cold.
		s.cache = make([]sessionEntry, len(conds))
	}

	// Re-slice through the persistent memoized slicer. Unchanged
	// conditions hit the memo and return the identical slice pointer.
	endSlice := o.Phase(0, "slice")
	checkConds := make([]*smt.Term, len(conds))
	c0, d0 := s.slicer.Conjuncts, s.slicer.Dropped
	for i, v := range conds {
		checkConds[i] = rep.sliceOne(s.slicer, v)
	}
	endSlice()
	rep.Stats.SliceConjuncts = s.slicer.Conjuncts - c0
	rep.Stats.SliceDropped = s.slicer.Dropped - d0

	s.deps = nil // rebuilt lazily by Affected from this run's slices
	s.depsEnv, s.depsConds, s.depsCheck = env, conds, checkConds

	t1 := time.Now()
	endSolve := o.Phase(0, "solve")
	var runErr error
	for i, v := range conds {
		ce := &s.cache[i]
		checkCond := checkConds[i]
		var out checkOut
		var viol *Violation
		if st, ok := s.replay(ce, v, checkCond); ok {
			out.status = st
			viol = ce.violation
			rep.Stats.DeltaReuse++
			s.stats.ReuseHits++
			o.Event("delta_replay", map[string]any{
				"label": v.Label, "status": statusString(st),
			})
		} else {
			out = s.recheck(v, checkCond)
			rep.Stats.DeltaRecheck++
			s.stats.Rechecks++
			rep.recordCheck(o, v.Label, 0, out.ss, out.status, out.cpu)
			if out.status == smt.Sat {
				viol = rep.makeViolation(v, out.model)
			}
		}
		*ce = sessionEntry{
			label:      v.Label,
			fullCond:   v.Cond,
			slicedCond: checkCond,
			status:     out.status,
			violation:  viol,
		}
		if runErr = rep.consume(o, s.opts.Budget, v.Label, &out, viol); runErr != nil {
			break
		}
	}
	current := make(map[*smt.Term]bool, len(checkConds))
	for _, c := range checkConds {
		current[c] = true
	}
	s.retireStale(current)
	endSolve()

	rep.Stats.SolveTime = time.Since(t1)
	rep.Stats.TermNodes = s.ctx.NumTerms()
	rep.Holds = len(rep.Violations) == 0
	rep.Stats.Histograms = rep.hists.stats()
	if o != nil {
		rep.hists.mergeInto(o.Metrics)
	}
	if delta != nil && o != nil && o.Metrics != nil {
		o.Metrics.Counter(obs.CtrVerifyDeltaReuse).Add(rep.Stats.DeltaReuse)
		o.Metrics.Counter(obs.CtrVerifyDeltaRecheck).Add(rep.Stats.DeltaRecheck)
		o.Metrics.Histogram(obs.HistDeltaRecheck).Observe(rep.Stats.DeltaRecheck)
		o.Metrics.Counter(obs.CtrVerifySliceDropped).Add(rep.Stats.SliceDropped)
	}
	return rep, runErr
}

// replay decides whether the cached verdict for this assertion can be
// reused without touching a solver. Unknown verdicts never replay: they
// are budget artifacts, and the warm solver's accumulated clauses may
// resolve them on a re-check.
func (s *Session) replay(ce *sessionEntry, v *gcl.Violation, checkCond *smt.Term) (smt.Status, bool) {
	if ce.label != v.Label || ce.fullCond == nil {
		return 0, false
	}
	if ce.fullCond == v.Cond && (ce.status == smt.Sat || ce.status == smt.Unsat) {
		return ce.status, true
	}
	// Unsat(K) implies Unsat(K ∧ D') — the slice K and every possible
	// dropped remainder D' have disjoint variable supports.
	if ce.slicedCond == checkCond && ce.status == smt.Unsat {
		return smt.Unsat, true
	}
	return 0, false
}

// recheck solves one condition on the warm shared solver with the
// incremental engine's canonicalization (checkOneShared). A previously
// retired condition recurring here is fine: checkOneShared's Indicator
// call re-freezes the variable, restoring it if preprocessing had
// eliminated it in the meantime.
func (s *Session) recheck(v *gcl.Violation, checkCond *smt.Term) checkOut {
	rep := &Report{Ctx: s.ctx} // carrier for the shared check helpers
	out := rep.checkOneShared(s.opts, v, checkCond, 0, s.ensureSolver())
	s.live[checkCond] = true
	return out
}

// retireStale releases the indicators of conditions superseded in this
// run: for every live condition no current check uses, the activation
// variable is unfrozen so CNF preprocessing may eliminate it and resolve
// the dead cone's clauses away. Retiring never constrains the formula,
// so it is safe even when a later delta brings the condition back.
// Called by run after the check loop, when the new conditions are known.
func (s *Session) retireStale(checkConds map[*smt.Term]bool) {
	if s.solver == nil {
		return
	}
	for cond := range s.live {
		if checkConds[cond] {
			continue
		}
		s.solver.Retire(s.solver.Indicator(cond))
		delete(s.live, cond)
		s.stats.Retired++
	}
}

// buildDeps rebuilds the table -> assertion dependency index from the
// current cone-of-influence slices: the encoder records every term a
// table's apply site introduced (entry match conditions, ABV constants,
// the lookup tree, wildcard free choices), and an assertion depends on a
// table when its slice's term DAG contains any of them. Pointer identity
// over the hash-consed context makes the membership test exact for the
// current encoding; constants shared with unrelated program logic can at
// worst add a spurious dependency, never hide one.
func (s *Session) buildDeps(env *encode.Env, conds []*gcl.Violation, checkConds []*smt.Term) {
	idx := map[*smt.Term][]string{}
	for _, fq := range s.fqs {
		for _, t := range env.TableTerms(fq) {
			idx[t] = append(idx[t], fq)
		}
	}
	deps := map[string][]string{}
	for i, v := range conds {
		touched := map[string]bool{}
		seen := map[*smt.Term]bool{}
		stack := []*smt.Term{checkConds[i]}
		for len(stack) > 0 {
			t := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if t == nil || seen[t] {
				continue
			}
			seen[t] = true
			for _, fq := range idx[t] {
				touched[fq] = true
			}
			stack = append(stack, t.Args...)
		}
		for fq := range touched {
			deps[fq] = append(deps[fq], v.Label)
		}
	}
	for fq := range deps {
		sort.Strings(deps[fq])
	}
	s.deps = deps
}
