package smt

import (
	"fmt"
	"slices"

	"aquila/internal/sat"
)

// Test hooks for the external snapshot tests (snapshot_test.go), which
// need verification conditions from packages that import smt.

// BlastFromScratch blasts t into s without consulting the context's
// snapshots, as Indicator did before snapshots existed.
func BlastFromScratch(s *Solver, t *Term) sat.Lit {
	s.pristine = false
	return s.Indicator(t)
}

// HasSnapshot reports whether ctx holds a snapshot for t.
func HasSnapshot(ctx *Ctx, t *Term) bool {
	ctx.snaps.mu.Lock()
	defer ctx.snaps.mu.Unlock()
	return ctx.snaps.snaps[t.ID] != nil
}

// SetSnapshotLimit lowers ctx's snapshot byte limit.
func SetSnapshotLimit(ctx *Ctx, bytes int) { ctx.snaps.limit = bytes }

// SnapshotState returns the blasted-state byte size CloneFrom would copy
// for s, as the snapshot cache counts it.
func SnapshotState(s *Solver) int {
	return s.sat.StateBytes() + s.b.cache.bytes()
}

// Conflict returns the SAT core's final conflict after an Unsat verdict.
func Conflict(s *Solver) []sat.Lit { return s.sat.Conflict() }

// SolverDiff reports the first difference between two solvers' SAT state
// (sat.StateDiff, plus the watch-list invariants of each), blaster caches
// and blaster counters, or nil if there is none.
func SolverDiff(a, b *Solver) error {
	for _, s := range []*Solver{a, b} {
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
