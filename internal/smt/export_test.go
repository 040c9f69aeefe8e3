package smt

import (
	"fmt"
	"slices"

	"aquila/internal/sat"
)

// Test hooks for the external memo tests (memo_test.go), which need
// verification conditions from packages that import smt.

// BlastFromScratch blasts t into s without consulting the context's
// verdict memo, as Indicator did before the memo existed.
func BlastFromScratch(s *Solver, t *Term) sat.Lit {
	s.phase = phaseLive
	return s.Indicator(t)
}

// Served reports whether s is answering from a memo record.
func Served(s *Solver) bool { return s.phase == phaseHit || s.phase == phaseHitChecked }

// Conflict returns the SAT core's final conflict after an Unsat verdict.
func Conflict(s *Solver) []sat.Lit {
	s.live()
	return s.sat.Conflict()
}

// SolverDiff reports the first difference between two solvers' SAT state
// (sat.StateDiff, plus the watch-list invariants of each), blaster caches
// and blaster counters, or nil if there is none. A solver answering from
// the memo is materialized first.
func SolverDiff(a, b *Solver) error {
	for _, s := range []*Solver{a, b} {
		s.live()
		if err := sat.CheckWatches(s.sat); err != nil {
			return err
		}
	}
	if err := sat.StateDiff(a.sat, b.sat); err != nil {
		return err
	}
	x, y := a.b, b.b
	switch {
	case !slices.Equal(x.cache.bvAt, y.cache.bvAt) ||
		!slices.Equal(x.cache.bvBits, y.cache.bvBits) ||
		!slices.Equal(x.cache.boolAt, y.cache.boolAt):
		return fmt.Errorf("blaster caches differ")
	case x.cacheHits != y.cacheHits || x.cacheMisses != y.cacheMisses || x.clausesEmitted != y.clausesEmitted:
		return fmt.Errorf("blaster counters %d/%d/%d vs %d/%d/%d", x.cacheHits, x.cacheMisses,
			x.clausesEmitted, y.cacheHits, y.cacheMisses, y.clausesEmitted)
	case x.litTrue != y.litTrue || x.log != nil || y.log != nil:
		return fmt.Errorf("blaster constants or pending logs differ")
	}
	return nil
}
