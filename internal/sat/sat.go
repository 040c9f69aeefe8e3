// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver in the MiniSat lineage: two-watched-literal propagation, VSIDS
// branching with phase saving, first-UIP clause learning with
// recursive-minimization, Luby restarts, LBD-based learnt-clause database
// reduction, and solving under assumptions with final-conflict (unsat core)
// extraction.
//
// Clauses live in a flat arena (alloc.go) addressed by 32-bit crefs rather
// than as individually heap-allocated objects; a compacting garbage
// collection pass reclaims deleted-clause space after database reduction
// and preprocessing. Hot-path scratch buffers (clause dedup, conflict
// analysis, LBD stamps, activity medians, watcher slabs) persist on the
// Solver so steady-state solving allocates almost nothing.
//
// It is the bottom layer of Aquila's verification stack; the bit-vector
// theory in package smt lowers verification conditions to CNF and solves
// them here.
package sat

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// Lit is a literal: variable v has positive literal 2v and negative 2v+1.
// Variables are numbered from 0.
type Lit int32

// MkLit builds a literal from a variable index and sign (true = negated).
func MkLit(v int, neg bool) Lit {
	if neg {
		return Lit(2*v + 1)
	}
	return Lit(2 * v)
}

// Var returns the variable index of the literal.
func (l Lit) Var() int { return int(l) >> 1 }

// Neg reports whether the literal is negative.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complement literal.
func (l Lit) Not() Lit { return l ^ 1 }

func (l Lit) String() string {
	if l.Neg() {
		return fmt.Sprintf("~x%d", l.Var())
	}
	return fmt.Sprintf("x%d", l.Var())
}

// lbool is a lifted boolean.
type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

func boolToLbool(b bool) lbool {
	if b {
		return lTrue
	}
	return lFalse
}

// Status is a solver verdict.
type Status int

const (
	// Unknown means the solve was aborted (budget exhausted).
	Unknown Status = iota
	// Sat means a satisfying assignment was found.
	Sat
	// Unsat means the formula (under the given assumptions) is unsatisfiable.
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// ErrBudget is returned by Solve when the conflict budget is exhausted.
var ErrBudget = errors.New("sat: conflict budget exhausted")

type watcher struct {
	ref     cref
	blocker Lit
}

// watchList locates one literal's watch list in the solver's watcher slab:
// n watchers at watchers[off:off+n], with room for cap before the list must
// move. Neither it nor watcher holds a pointer, so the garbage collector
// never scans a solver's watch lists.
type watchList struct{ off, n, cap uint32 }

type varData struct {
	reason cref // antecedent clause, crefUndef for decisions/assumptions
	level  int32
}

// Solver is a CDCL SAT solver. The zero value is not usable; construct with
// New.
type Solver struct {
	ca      clauseAlloc
	clauses []cref // problem clauses
	learnts []cref

	watches  []watchList // indexed by literal
	watchers []watcher   // slab every watch list is carved from
	wneed    []uint32    // AddClauses scratch: watchers a batch adds per literal

	assigns  []lbool // indexed by var
	vardata  []varData
	polarity []bool // saved phase, indexed by var
	activity []float64
	varInc   float64

	order heap // VSIDS order

	trail    []Lit
	trailLim []int // decision-level boundaries
	qhead    int

	seen      []byte
	analyzeTo []Lit
	minStack  []Lit

	// Reused hot-path scratch: clause dedup in AddClause, the learnt
	// clause under construction in analyze, level stamps for LBD, and the
	// activity array reduceDB medians over.
	addBuf    []Lit
	learntBuf []Lit
	lbdSeen   []int64
	lbdTick   int64
	actBuf    []float64

	clauseInc float64

	ok bool // false once UNSAT at level 0

	assumptions []Lit
	conflictSet []Lit   // final conflict (subset of negated assumptions)
	model       []lbool // snapshot of the last satisfying assignment

	// Stats. Plain fields, not atomics: a solver instance is
	// single-goroutine; parallel verification gives every check a fresh
	// solver and folds these into the observability registry afterwards.
	Conflicts           int64
	Decisions           int64
	Propagations        int64
	Learnt              int64 // learnt clauses retained in the database
	LearntLits          int64 // total literals across learnt clauses (incl. units)
	Restarts            int64 // Luby restarts taken (completed search() rounds)
	Deleted             int64 // learnt clauses evicted by database reduction
	ElimVars            int64 // variables removed by bounded variable elimination
	SubsumedClauses     int64 // clauses deleted by subsumption
	StrengthenedClauses int64 // clauses shrunk by self-subsuming resolution
	// LearntSizes is the learnt-clause length distribution in log2
	// buckets (bucket i covers lengths [2^(i-1), 2^i), clamped at the
	// last bucket). Plain counters like the rest: the driver folds them
	// into the observability histogram at check granularity.
	LearntSizes [NumLearntSizeBuckets]int64

	maxLearnts  float64
	learntCap   float64 // hard ceiling on maxLearnts growth, <=0 unlimited
	lubyIdx     int
	budget      int64 // conflicts allowed per Solve call, <0 means unlimited
	budgetLim   int64 // absolute Conflicts ceiling for the current Solve, <0 unlimited
	numVarsFree int

	// Heartbeat hook (progress.go): progressFn fires every
	// progressEvery conflicts with a Progress sample. Checked with one
	// compare per conflict; nil when no flight recorder is attached.
	progressFn    func(Progress)
	progressEvery int64
	progressNext  int64

	// Cooperative cancellation (SetCancel): search polls the token once
	// per loop iteration, alongside the conflict-budget check. canceled
	// records whether the last Solve's Unknown came from the token rather
	// than the budget.
	cancel   *atomic.Bool
	canceled bool

	// Preprocessing state (preprocess.go). frozen vars are exempt from
	// elimination; elimed vars are currently substituted away and carry an
	// elimStack record for model reconstruction and on-demand restore.
	prep      bool
	dirty     int    // clauses added since the last Preprocess round
	frozen    []bool // indexed by var
	elimed    []bool // indexed by var
	elimStack []elimRecord
	elimIndex map[int]int   // var -> elimStack index while eliminated
	prepState *preprocessor // pooled across Preprocess rounds
}

// New returns an empty solver.
func New() *Solver {
	return &Solver{
		varInc:     1.0,
		clauseInc:  1.0,
		ok:         true,
		budget:     -1,
		budgetLim:  -1,
		maxLearnts: 4000,
		learntCap:  defaultLearntCap,
	}
}

// Search heuristics: VSIDS activity decays by varDecayFactor per
// conflict, restart round i allows luby(i)*restartBase conflicts, fresh
// variables branch false first, and every decision follows the activity
// order (no random branching).
const (
	varDecayFactor = 0.95
	restartBase    = 100
)

// defaultLearntCap bounds the learnt-clause database. Without it the
// reduction threshold grows 5% per restart forever, which is harmless for
// one-shot solving but lets a long-lived incremental solver answering
// hundreds of queries accumulate an arbitrarily large database.
const defaultLearntCap = 50_000

// SetLearntCap sets a hard ceiling on the learnt-clause database size
// (clauses retained before reduceDB triggers). Values <= 0 remove the
// ceiling, restoring unbounded 5%-per-restart growth.
func (s *Solver) SetLearntCap(n int) {
	s.learntCap = float64(n)
	if s.learntCap > 0 && s.maxLearnts > s.learntCap {
		s.maxLearnts = s.learntCap
	}
}

// NumVars returns the number of variables allocated so far.
func (s *Solver) NumVars() int { return len(s.assigns) }

// NumClauses returns the number of problem clauses retained.
func (s *Solver) NumClauses() int { return len(s.clauses) }

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.assigns)
	if v == cap(s.assigns) {
		s.reserveVars(v + 1)
	}
	s.assigns = append(s.assigns, lUndef)
	s.vardata = append(s.vardata, varData{reason: crefUndef})
	s.polarity = append(s.polarity, true) // default phase false (polarity=negated)
	s.activity = append(s.activity, 0)
	if len(s.watches) < 2*v+2 { // AddClauses may have laid them out already
		s.watches = append(s.watches, watchList{}, watchList{})
	}
	s.seen = append(s.seen, 0)
	s.frozen = append(s.frozen, false)
	s.elimed = append(s.elimed, false)
	// A fresh variable's activity, 0, is the heap's minimum, so it joins
	// at the end without sifting: exactly where push would leave it.
	s.order.pos = append(s.order.pos, int32(len(s.order.data)))
	s.order.data = append(s.order.data, int32(v))
	s.numVarsFree++
	return v
}

// reserveVars gives every per-variable array, the trail and the VSIDS heap
// room for n variables. The arrays share one capacity, so NewVar's fast
// path checks only assigns and its appends never reallocate. The first
// reservation is exact; later ones at least double, so a solver that
// keeps taking batches grows geometrically.
func (s *Solver) reserveVars(n int) {
	c := max(n, 2*cap(s.assigns))
	s.assigns = growTo(s.assigns, c)
	s.vardata = growTo(s.vardata, c)
	s.polarity = growTo(s.polarity, c)
	s.activity = growTo(s.activity, c)
	s.watches = growTo(s.watches, 2*c)
	s.seen = growTo(s.seen, c)
	s.frozen = growTo(s.frozen, c)
	s.elimed = growTo(s.elimed, c)
	s.trail = growTo(s.trail, c)
	s.order.data = growTo(s.order.data, c)
	s.order.pos = growTo(s.order.pos, c)
}

// growTo returns buf with capacity at least c: buf itself when it has
// room, else a copy in a new backing array of exactly c.
func growTo[T any](buf []T, c int) []T {
	if c <= cap(buf) {
		return buf
	}
	nb := make([]T, len(buf), c)
	copy(nb, buf)
	return nb
}

// room returns buf with capacity for n more elements, doubling when it
// must grow. Callers test the capacity first and assign only on growth, so
// a steady-state append stores just the length, with no write barrier.
func room[T any](buf []T, n int) []T {
	return growTo(buf, max(len(buf)+n, 2*cap(buf)))
}

// SetBudget limits the number of conflicts spent by each subsequent Solve
// call. The bound is per call — an incremental solver answering many
// queries grants each one a fresh allowance — so budget semantics are
// identical whether checks share one solver or run on separate instances.
// A negative value removes the limit.
func (s *Solver) SetBudget(conflicts int64) { s.budget = conflicts }

// SetCancel installs a cancellation token: once c becomes true, any
// in-flight or future Solve returns Unknown at its next search-loop check
// — the same cooperative mechanism the conflict budget uses. A nil token
// removes cancellation. The solver stays consistent after a cancelled
// Solve (the deferred backtrack to level 0 still runs), so a shared
// incremental solver answers later queries normally once the token clears.
func (s *Solver) SetCancel(c *atomic.Bool) { s.cancel = c }

// Canceled reports whether the last Solve returned Unknown because the
// cancellation token fired, as opposed to exhausting its conflict budget.
func (s *Solver) Canceled() bool { return s.canceled }

// CancelToken returns the installed cancellation token, nil if none.
func (s *Solver) CancelToken() *atomic.Bool { return s.cancel }

// Config is the part of a solver's setup that steers its search. Search
// is deterministic: two solvers with equal configurations that load the
// same clauses and make the same Solve calls take the same search and
// reach the same state. The cancellation token and the progress hook are
// not part of it; they only stop or watch a search.
type Config struct {
	Budget     int64   // SetBudget
	LearntCap  float64 // SetLearntCap
	MaxLearnts float64 // the learnt-database limit the next search starts from
	Preprocess bool    // SetPreprocess
}

// Config returns the solver's current search configuration.
func (s *Solver) Config() Config {
	return Config{Budget: s.budget, LearntCap: s.learntCap, MaxLearnts: s.maxLearnts, Preprocess: s.prep}
}

func (s *Solver) value(l Lit) lbool {
	v := s.assigns[l.Var()]
	if v == lUndef {
		return lUndef
	}
	if l.Neg() {
		if v == lTrue {
			return lFalse
		}
		return lTrue
	}
	return v
}

func (s *Solver) level(v int) int { return int(s.vardata[v].level) }

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// AddClause adds a problem clause. It returns false if the solver is already
// in an unsatisfiable state at level 0. The literal slice is never retained:
// clause bodies are copied into the arena, so callers may pass stack
// buffers (or variadic literals, which then stay off the heap).
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("sat: AddClause above decision level 0")
	}
	// A clause mentioning an eliminated variable forces its restoration:
	// the stored original clauses come back so the variable's semantics
	// are intact before the new constraint lands.
	if len(s.elimStack) > 0 {
		for _, l := range lits {
			if v := l.Var(); v < len(s.elimed) && s.elimed[v] {
				s.restoreVar(v)
				if !s.ok {
					return false
				}
			}
		}
	}
	s.dirty++
	// Drop duplicate and level-0-false literals, keeping the caller's
	// order; a tautology or a level-0-true literal satisfies the clause.
	// restoreVar above never re-enters past this point, so one scratch
	// buffer per solver suffices.
	out := s.addBuf[:0]
	for _, l := range lits {
		if int(l.Var()) >= s.NumVars() {
			panic(fmt.Sprintf("sat: literal %v references unallocated variable", l))
		}
		switch s.value(l) {
		case lTrue:
			return true // clause already satisfied
		case lFalse:
			continue // drop false literal
		}
		dup := false
		for _, o := range out {
			if o == l {
				dup = true
				break
			}
			if o == l.Not() {
				return true // tautology
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	if cap(out) > cap(s.addBuf) {
		s.addBuf = out // keep a grown buffer; storing it every call costs a write barrier
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], crefUndef)
		s.ok = s.propagate() == crefUndef
		return s.ok
	}
	r := s.ca.alloc(out, false)
	if len(s.clauses) == cap(s.clauses) {
		s.clauses = room(s.clauses, 1)
	}
	s.clauses = append(s.clauses, r)
	s.attach(r)
	return true
}

func (s *Solver) attach(r cref) {
	lits := s.ca.lits(r)
	l0, l1 := lits[0], lits[1]
	s.wappend(l0.Not(), watcher{r, l1})
	s.wappend(l1.Not(), watcher{r, l0})
}

// wappend appends w to the watch list of p. A full list moves to the end
// of the slab with twice the room; garbageCollect reclaims the space it
// leaves behind.
func (s *Solver) wappend(p Lit, w watcher) {
	wl := &s.watches[p]
	if wl.n == wl.cap {
		s.moveWatch(wl, max(2*wl.cap, 4))
	}
	s.watchers[wl.off+wl.n] = w
	wl.n++
}

// moveWatch relocates list wl to a new region of ncap watchers at the end
// of the slab, which doubles when it runs out of room. It may move the
// slab: callers must not hold a view of it across the call.
func (s *Solver) moveWatch(wl *watchList, ncap uint32) {
	end := len(s.watchers)
	if cap(s.watchers)-end < int(ncap) {
		s.watchers = room(s.watchers, int(ncap))
	}
	s.watchers = s.watchers[:end+int(ncap)]
	if wl.n > 0 {
		copy(s.watchers[end:], s.watchers[wl.off:wl.off+wl.n])
	}
	wl.off, wl.cap = uint32(end), ncap
}

func (s *Solver) uncheckedEnqueue(l Lit, reason cref) {
	v := l.Var()
	if l.Neg() {
		s.assigns[v] = lFalse
	} else {
		s.assigns[v] = lTrue
	}
	s.vardata[v] = varData{reason: reason, level: int32(s.decisionLevel())}
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns the conflicting clause or
// crefUndef.
func (s *Solver) propagate() cref {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Propagations++
		// The list is compacted in place over watchers[off:end]. ws is a
		// view of the whole slab, refreshed after every wappend (which may
		// move the slab; it never moves p's own list, since the new watch
		// is on a literal that is not false).
		off := int(s.watches[p].off)
		end := off + int(s.watches[p].n)
		ws := s.watchers
		n := off
	nextWatcher:
		for i := off; i < end; i++ {
			w := ws[i]
			if s.value(w.blocker) == lTrue {
				ws[n] = w
				n++
				continue
			}
			r := w.ref
			if s.ca.deleted(r) {
				continue
			}
			lits := s.ca.lits(r)
			// Make sure the false literal is lits[1].
			notP := p.Not()
			if lits[0] == notP {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && s.value(first) == lTrue {
				ws[n] = watcher{r, first}
				n++
				continue
			}
			// Look for a new literal to watch.
			for k := 2; k < len(lits); k++ {
				if s.value(lits[k]) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					s.wappend(lits[1].Not(), watcher{r, first})
					ws = s.watchers
					continue nextWatcher
				}
			}
			// Clause is unit or conflicting.
			ws[n] = watcher{r, first}
			n++
			if s.value(first) == lFalse {
				// Conflict: copy remaining watchers and bail.
				for i++; i < end; i++ {
					ws[n] = ws[i]
					n++
				}
				s.watches[p].n = uint32(n - off)
				s.qhead = len(s.trail)
				return r
			}
			s.uncheckedEnqueue(first, r)
		}
		s.watches[p].n = uint32(n - off)
	}
	return crefUndef
}

func (s *Solver) newDecisionLevel() { s.trailLim = append(s.trailLim, len(s.trail)) }

func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	for i := len(s.trail) - 1; i >= s.trailLim[level]; i-- {
		v := s.trail[i].Var()
		s.polarity[v] = s.trail[i].Neg()
		s.assigns[v] = lUndef
		s.order.pushIfAbsent(s, v)
	}
	s.qhead = s.trailLim[level]
	s.trail = s.trail[:s.trailLim[level]]
	s.trailLim = s.trailLim[:level]
}

func (s *Solver) varBump(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.decrease(s, v)
}

func (s *Solver) varDecay() { s.varInc /= varDecayFactor }

func (s *Solver) clauseBump(r cref) {
	a := s.ca.act(r) + s.clauseInc
	s.ca.setAct(r, a)
	if a > 1e20 {
		for _, lr := range s.learnts {
			s.ca.setAct(lr, s.ca.act(lr)*1e-20)
		}
		s.clauseInc *= 1e-20
	}
}

func (s *Solver) clauseDecay() { s.clauseInc /= 0.999 }

// analyze computes a first-UIP learnt clause from the conflict and returns
// it together with the backtrack level. The returned slice is solver-owned
// scratch, valid until the next analyze call.
func (s *Solver) analyze(confl cref) ([]Lit, int) {
	learnt := append(s.learntBuf[:0], 0) // reserve slot for the asserting literal
	pathC := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		clits := s.ca.lits(confl)
		for i := 0; i < len(clits); i++ {
			q := clits[i]
			if q == p { // reason clauses carry the asserting literal; skip it
				continue
			}
			v := q.Var()
			if s.seen[v] == 0 && s.level(v) > 0 {
				s.varBump(v)
				s.seen[v] = 1
				if s.level(v) >= s.decisionLevel() {
					pathC++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		if s.ca.learnt(confl) {
			s.clauseBump(confl)
		}
		// Select next literal to look at.
		for s.seen[s.trail[idx].Var()] == 0 {
			idx--
		}
		p = s.trail[idx]
		idx--
		confl = s.vardata[p.Var()].reason
		s.seen[p.Var()] = 0
		pathC--
		if pathC <= 0 {
			break
		}
	}
	learnt[0] = p.Not()

	// Clause minimization: remove literals implied by the rest.
	s.analyzeTo = s.analyzeTo[:0]
	for _, l := range learnt {
		s.analyzeTo = append(s.analyzeTo, l)
	}
	j := 1
	for i := 1; i < len(learnt); i++ {
		v := learnt[i].Var()
		if s.vardata[v].reason == crefUndef || !s.litRedundant(learnt[i]) {
			learnt[j] = learnt[i]
			j++
		}
	}
	learnt = learnt[:j]

	// Find backtrack level.
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level(learnt[i].Var()) > s.level(learnt[maxI].Var()) {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = s.level(learnt[1].Var())
	}
	for _, l := range s.analyzeTo {
		s.seen[l.Var()] = 0
	}
	s.learntBuf = learnt
	return learnt, btLevel
}

// litRedundant reports whether l is implied by the other literals of the
// learnt clause (local minimization, non-recursive).
func (s *Solver) litRedundant(l Lit) bool {
	r := s.vardata[l.Var()].reason
	if r == crefUndef {
		return false
	}
	for _, q := range s.ca.lits(r) {
		if q == l.Not() || q == l {
			continue
		}
		v := q.Var()
		if s.level(v) == 0 {
			continue
		}
		if s.seen[v] == 0 {
			return false
		}
	}
	return true
}

// computeLBD counts distinct decision levels via a stamp array instead of
// a per-call map.
func (s *Solver) computeLBD(lits []Lit) int {
	s.lbdTick++
	n := 0
	for _, l := range lits {
		lv := s.level(l.Var())
		for lv >= len(s.lbdSeen) {
			s.lbdSeen = append(s.lbdSeen, 0)
		}
		if s.lbdSeen[lv] != s.lbdTick {
			s.lbdSeen[lv] = s.lbdTick
			n++
		}
	}
	return n
}

// analyzeFinal computes the subset of assumptions responsible for a conflict
// on assumption literal p; the result (negated assumptions) lands in
// s.conflictSet.
func (s *Solver) analyzeFinal(p Lit) {
	s.conflictSet = s.conflictSet[:0]
	s.conflictSet = append(s.conflictSet, p.Not())
	if s.decisionLevel() == 0 {
		return
	}
	s.seen[p.Var()] = 1
	for i := len(s.trail) - 1; i >= s.trailLim[0]; i-- {
		v := s.trail[i].Var()
		if s.seen[v] == 0 {
			continue
		}
		if r := s.vardata[v].reason; r == crefUndef {
			if s.level(v) > 0 {
				s.conflictSet = append(s.conflictSet, s.trail[i].Not())
			}
		} else {
			for _, q := range s.ca.lits(r) {
				if s.level(q.Var()) > 0 {
					s.seen[q.Var()] = 1
				}
			}
		}
		s.seen[v] = 0
	}
	s.seen[p.Var()] = 0
}

func (s *Solver) reduceDB() {
	// Sort learnts by (lbd asc, activity desc) — cheap partial policy:
	// remove the worse half, keeping binary and low-LBD clauses.
	if len(s.learnts) < 2 {
		return
	}
	// Simple selection: compute median activity.
	acts := s.actBuf[:0]
	for _, r := range s.learnts {
		acts = append(acts, s.ca.act(r))
	}
	s.actBuf = acts
	med := quickMedian(acts)
	kept := s.learnts[:0]
	removed := 0
	for _, r := range s.learnts {
		if s.ca.size(r) > 2 && s.ca.lbd(r) > 2 && s.ca.act(r) < med && !s.locked(r) && removed < len(s.learnts)/2 {
			s.ca.markDeleted(r)
			removed++
			s.Deleted++
			continue
		}
		kept = append(kept, r)
	}
	s.learnts = kept
	s.checkGC()
}

func (s *Solver) locked(r cref) bool {
	l := s.ca.lits(r)[0]
	return s.value(l) == lTrue && s.vardata[l.Var()].reason == r
}

// checkGC compacts the clause arena once a fifth of it is dead space.
func (s *Solver) checkGC() {
	if s.ca.wasted > len(s.ca.data)/5 {
		s.garbageCollect()
	}
}

// garbageCollect copies every live clause into a fresh arena and rewrites
// all crefs (watch lists, trail reasons, clause lists) through the
// forwarding references reloc leaves behind. Watchers of deleted clauses
// are dropped here instead of lazily in propagate; either way they were
// invisible to the search, so solver trajectories are unchanged.
//
// The watcher slab is compacted in the same pass: every list keeps its
// capacity and order but moves to the next free offset of a fresh slab,
// which drops the regions full lists left behind when they moved.
func (s *Solver) garbageCollect() {
	to := clauseAlloc{data: make([]Lit, 0, len(s.ca.data)-s.ca.wasted)}
	total := 0
	for _, wl := range s.watches {
		total += int(wl.cap)
	}
	slab := make([]watcher, total, total+total/8) // headroom for moves, as in AddClauses
	off := uint32(0)
	for i := range s.watches {
		wl := &s.watches[i]
		n := uint32(0)
		for _, w := range s.watchers[wl.off : wl.off+wl.n] {
			if s.ca.deleted(w.ref) {
				continue
			}
			w.ref = s.ca.reloc(w.ref, &to)
			slab[off+n] = w
			n++
		}
		wl.off, wl.n = off, n
		off += wl.cap
	}
	s.watchers = slab
	for _, l := range s.trail {
		v := l.Var()
		r := s.vardata[v].reason
		if r == crefUndef {
			continue
		}
		// Level-0 implications can outlive their reason clause (the
		// preprocessor deletes satisfied clauses); the reason is never
		// consulted again, so drop the dangling reference.
		if s.ca.deleted(r) {
			s.vardata[v].reason = crefUndef
		} else {
			s.vardata[v].reason = s.ca.reloc(r, &to)
		}
	}
	for i, r := range s.clauses {
		s.clauses[i] = s.ca.reloc(r, &to)
	}
	for i, r := range s.learnts {
		s.learnts[i] = s.ca.reloc(r, &to)
	}
	s.ca = to
}

// quickMedian selects the median by in-place quickselect; the input is
// scratch and arrives permuted.
func quickMedian(b []float64) float64 {
	if len(b) == 0 {
		return 0
	}
	k := len(b) / 2
	lo, hi := 0, len(b)-1
	for lo < hi {
		p := b[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for b[i] < p {
				i++
			}
			for b[j] > p {
				j--
			}
			if i <= j {
				b[i], b[j] = b[j], b[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return b[k]
}

// luby returns the x-th element of the Luby restart sequence
// (1,1,2,1,1,2,4,...), following MiniSat: find the finite subsequence
// containing index x, then recurse into it by modulo.
func luby(x int) float64 {
	size, seq := 1, 0
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) >> 1
		seq--
		x = x % size
	}
	return math.Pow(2, float64(seq))
}

// search runs CDCL until a restart, a verdict, or budget exhaustion.
func (s *Solver) search(maxConflicts int) Status {
	conflicts := 0
	for {
		// Cooperative cancellation: one relaxed-cost atomic load per
		// propagate round, the same granularity the budget check gets.
		if s.cancel != nil && s.cancel.Load() {
			s.canceled = true
			return Unknown
		}
		confl := s.propagate()
		if confl != crefUndef {
			s.Conflicts++
			conflicts++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			learnt, btLevel := s.analyze(confl)
			s.cancelUntil(btLevel)
			s.LearntLits += int64(len(learnt))
			s.LearntSizes[learntSizeBucket(len(learnt))]++
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], crefUndef)
			} else {
				lbd := s.computeLBD(learnt)
				r := s.ca.alloc(learnt, true)
				s.ca.setLBD(r, lbd)
				if len(s.learnts) == cap(s.learnts) {
					s.learnts = room(s.learnts, 1)
				}
				s.learnts = append(s.learnts, r)
				s.Learnt++
				s.attach(r)
				s.clauseBump(r)
				s.uncheckedEnqueue(learnt[0], r)
			}
			s.varDecay()
			s.clauseDecay()
			if s.progressFn != nil && s.Conflicts >= s.progressNext {
				s.progressNext = s.Conflicts + s.progressEvery
				s.progressFn(s.progressSample())
			}
			continue
		}
		// No conflict.
		if s.budgetLim >= 0 && s.Conflicts >= s.budgetLim {
			return Unknown
		}
		if conflicts >= maxConflicts {
			s.cancelUntil(len(s.assumptions))
			return Unknown // restart
		}
		if float64(len(s.learnts)) >= s.maxLearnts+float64(len(s.trail)) {
			s.reduceDB()
		}
		// Place assumptions as pseudo-decisions.
		var next Lit = -1
		for s.decisionLevel() < len(s.assumptions) {
			p := s.assumptions[s.decisionLevel()]
			switch s.value(p) {
			case lTrue:
				s.newDecisionLevel() // dummy level
			case lFalse:
				s.analyzeFinal(p)
				return Unsat
			default:
				next = p
			}
			if next != -1 {
				break
			}
		}
		if next == -1 {
			// Regular decision.
			v := s.pickBranchVar()
			if v == -1 {
				return Sat
			}
			s.Decisions++
			next = MkLit(v, s.polarity[v])
		}
		s.newDecisionLevel()
		s.uncheckedEnqueue(next, crefUndef)
	}
}

func (s *Solver) pickBranchVar() int {
	for !s.order.empty() {
		v := s.order.pop(s)
		if s.assigns[v] == lUndef && !s.elimed[v] {
			return v
		}
	}
	return -1
}

// Solve determines satisfiability under the given assumption literals.
func (s *Solver) Solve(assumptions ...Lit) Status {
	if !s.ok {
		s.conflictSet = s.conflictSet[:0]
		return Unsat
	}
	// Assumption variables must survive elimination: their truth is decided
	// per call, so baking them into resolvents would change later queries.
	// Freezing also restores any already-eliminated assumption variable.
	for _, a := range assumptions {
		s.FreezeVar(a.Var())
	}
	if !s.ok {
		s.conflictSet = s.conflictSet[:0]
		return Unsat
	}
	if s.prep && s.dirty > 0 &&
		(s.dirty >= prepDirtyMin || s.dirty*prepDirtyFrac >= len(s.clauses)) {
		if !s.Preprocess() {
			s.conflictSet = s.conflictSet[:0]
			return Unsat
		}
	}
	s.assumptions = append(s.assumptions[:0], assumptions...)
	s.conflictSet = s.conflictSet[:0]
	defer s.cancelUntil(0)

	s.budgetLim = -1
	if s.budget >= 0 {
		s.budgetLim = s.Conflicts + s.budget
	}
	s.canceled = false

	s.lubyIdx = 0
	for {
		maxC := int(luby(s.lubyIdx) * restartBase)
		s.lubyIdx++
		st := s.search(maxC)
		switch st {
		case Sat:
			// Snapshot the model before the deferred backtrack erases it,
			// then reconstruct values for eliminated variables.
			s.model = append(s.model[:0], s.assigns...)
			s.extendModel()
			return Sat
		case Unsat:
			return Unsat
		}
		if s.canceled {
			return Unknown
		}
		if s.budgetLim >= 0 && s.Conflicts >= s.budgetLim {
			return Unknown
		}
		s.Restarts++
		s.maxLearnts *= 1.05
		if s.learntCap > 0 && s.maxLearnts > s.learntCap {
			s.maxLearnts = s.learntCap
		}
	}
}

// Value returns the model value of variable v after a Sat verdict.
func (s *Solver) Value(v int) bool { return v < len(s.model) && s.model[v] == lTrue }

// Model returns a copy of the last satisfying assignment (only meaningful
// after a Sat verdict).
func (s *Solver) Model() []bool {
	m := make([]bool, len(s.model))
	for i, a := range s.model {
		m[i] = a == lTrue
	}
	return m
}

// Conflict returns the final conflict clause after an Unsat verdict under
// assumptions: a subset of the negations of the failed assumptions.
func (s *Solver) Conflict() []Lit { return append([]Lit(nil), s.conflictSet...) }

// Okay reports whether the solver is still consistent at level 0.
func (s *Solver) Okay() bool { return s.ok }

// ---- binary heap ordered by activity (max-heap) ----

type heap struct {
	data []int32
	pos  []int32 // var -> index in data, -1 if absent
}

func (h *heap) less(s *Solver, a, b int32) bool {
	return s.activity[a] > s.activity[b]
}

func (h *heap) empty() bool { return len(h.data) == 0 }

func (h *heap) push(s *Solver, v int) {
	if h.pos[v] != -1 {
		return
	}
	h.data = append(h.data, int32(v))
	h.pos[v] = int32(len(h.data) - 1)
	h.up(s, len(h.data)-1)
}

func (h *heap) pushIfAbsent(s *Solver, v int) { h.push(s, v) }

func (h *heap) pop(s *Solver) int {
	top := h.data[0]
	last := h.data[len(h.data)-1]
	h.data = h.data[:len(h.data)-1]
	h.pos[top] = -1
	if len(h.data) > 0 {
		h.data[0] = last
		h.pos[last] = 0
		h.down(s, 0)
	}
	return int(top)
}

func (h *heap) decrease(s *Solver, v int) {
	if h.pos[v] == -1 {
		return
	}
	h.up(s, int(h.pos[v]))
}

func (h *heap) up(s *Solver, i int) {
	x := h.data[i]
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(s, x, h.data[p]) {
			break
		}
		h.data[i] = h.data[p]
		h.pos[h.data[p]] = int32(i)
		i = p
	}
	h.data[i] = x
	h.pos[x] = int32(i)
}

func (h *heap) down(s *Solver, i int) {
	x := h.data[i]
	for {
		l := 2*i + 1
		if l >= len(h.data) {
			break
		}
		c := l
		if r := l + 1; r < len(h.data) && h.less(s, h.data[r], h.data[l]) {
			c = r
		}
		if !h.less(s, h.data[c], x) {
			break
		}
		h.data[i] = h.data[c]
		h.pos[h.data[c]] = int32(i)
		i = c
	}
	h.data[i] = x
	h.pos[x] = int32(i)
}
