package sat

// Cloning. A solver's loaded state lives in a handful of pointer-free
// slices (the clause arena, the watch records and their slab, the
// per-variable arrays, the trail and the branching heap), so copying a
// level-0 solver is a few memmoves. The smt layer uses it to start a fresh
// solver from a snapshot of one that already loaded the same blasted
// condition, instead of rebuilding the CNF.

// Clone returns a copy of s's loaded state under New's configuration.
// s must be at decision level 0 with no eliminated variables; see
// CloneFrom.
func (s *Solver) Clone() *Solver {
	c := New()
	c.CloneFrom(s)
	return c
}

// CloneFrom replaces s's loaded state with a copy of src's: clauses,
// watch lists, variables with their assignments, reasons, phases and
// activities, the trail, the branching heap, the activity increments and
// the work counters. s keeps its own configuration (conflict budget,
// learnt-clause cap and database limit, cancellation token, progress
// hook, preprocessing flag), and the results of an earlier Solve are
// cleared. When src has loaded clauses but not searched, a solver that
// made src's calls under s's configuration would be in exactly this
// state, so its searches take the same trajectory.
//
// src must be at decision level 0 and hold no eliminated variables;
// CloneFrom panics otherwise. src is only read, so several goroutines may
// clone one source at once. Copies keep src's capacities, so clauses
// learnt after the clone do not regrow arrays sized for the batch.
func (s *Solver) CloneFrom(src *Solver) {
	if src.decisionLevel() != 0 {
		panic("sat: CloneFrom a solver above decision level 0")
	}
	if len(src.elimStack) > 0 {
		panic("sat: CloneFrom a solver with eliminated variables")
	}
	s.ca = clauseAlloc{data: dup(src.ca.data), wasted: src.ca.wasted}
	s.clauses = dup(src.clauses)
	s.learnts = dup(src.learnts)
	s.watches = dup(src.watches)
	s.watchers = dup(src.watchers)

	s.assigns = dup(src.assigns)
	s.vardata = dup(src.vardata)
	s.polarity = dup(src.polarity)
	s.activity = dup(src.activity)
	s.varInc = src.varInc
	s.order = heap{data: dup(src.order.data), pos: dup(src.order.pos)}
	s.trail = dup(src.trail)
	s.trailLim = s.trailLim[:0]
	s.qhead = src.qhead
	s.seen = dup(src.seen)
	s.clauseInc = src.clauseInc
	s.ok = src.ok
	s.numVarsFree = src.numVarsFree

	s.Conflicts = src.Conflicts
	s.Decisions = src.Decisions
	s.Propagations = src.Propagations
	s.Learnt = src.Learnt
	s.LearntLits = src.LearntLits
	s.Restarts = src.Restarts
	s.Deleted = src.Deleted
	s.ElimVars = src.ElimVars
	s.SubsumedClauses = src.SubsumedClauses
	s.StrengthenedClauses = src.StrengthenedClauses
	s.LearntSizes = src.LearntSizes

	s.dirty = src.dirty
	s.frozen = dup(src.frozen)
	s.elimed = dup(src.elimed)
	s.elimStack = s.elimStack[:0]
	clear(s.elimIndex)

	s.assumptions = s.assumptions[:0]
	s.conflictSet = s.conflictSet[:0]
	s.model = s.model[:0]
}

// dup copies buf with its capacity. Appending to an empty slice allocates
// without zeroing what the copy overwrites, where make would clear the
// whole array first. The copy's capacity is cut back to buf's, which the
// allocator may have rounded up: the per-variable arrays must keep the
// common capacity NewVar relies on.
func dup[T any](buf []T) []T {
	return append(buf[:0:0], buf[:cap(buf)]...)[:len(buf):cap(buf)]
}

// StateBytes is the size in bytes of the arrays CloneFrom copies: what
// retaining a clone of s costs.
func (s *Solver) StateBytes() int {
	return 4*(cap(s.ca.data)+cap(s.clauses)+cap(s.learnts)+cap(s.trail)+
		cap(s.order.data)+cap(s.order.pos)) +
		12*cap(s.watches) + 8*cap(s.watchers) +
		cap(s.assigns) + 8*cap(s.vardata) + cap(s.polarity) + 8*cap(s.activity) +
		cap(s.seen) + cap(s.frozen) + cap(s.elimed)
}
