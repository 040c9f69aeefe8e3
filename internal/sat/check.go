package sat

import (
	"fmt"
	"slices"
)

// Invariant checks for differential tests: here and in the smt layer,
// whose verdict memo must leave a solver it materializes identical to one
// that made the same calls itself.

// CheckWatches verifies the watch-list invariants: every list lies inside
// the slab with n <= cap, no two lists' regions overlap, and every live
// clause is watched exactly once on each of its first two literals'
// negations and nowhere else. Watchers of deleted clauses are ignored:
// propagate and garbageCollect drop them lazily.
func CheckWatches(s *Solver) error {
	type region struct{ off, end uint32 }
	var regions []region
	on := map[cref]map[Lit]int{}
	for p, wl := range s.watches {
		if wl.n > wl.cap {
			return fmt.Errorf("watch list %v holds %d watchers in room for %d", Lit(p), wl.n, wl.cap)
		}
		if int(wl.off+wl.cap) > len(s.watchers) {
			return fmt.Errorf("watch list %v [%d,%d) runs past the slab (%d)", Lit(p), wl.off, wl.off+wl.cap, len(s.watchers))
		}
		if wl.cap > 0 {
			regions = append(regions, region{wl.off, wl.off + wl.cap})
		}
		for _, w := range s.watchers[wl.off : wl.off+wl.n] {
			if s.ca.deleted(w.ref) {
				continue
			}
			if on[w.ref] == nil {
				on[w.ref] = map[Lit]int{}
			}
			on[w.ref][Lit(p)]++
		}
	}
	slices.SortFunc(regions, func(a, b region) int { return int(a.off) - int(b.off) })
	for i := 1; i < len(regions); i++ {
		if regions[i].off < regions[i-1].end {
			return fmt.Errorf("watch regions [%d,%d) and [%d,%d) overlap",
				regions[i-1].off, regions[i-1].end, regions[i].off, regions[i].end)
		}
	}
	live := 0
	for _, list := range [2][]cref{s.clauses, s.learnts} {
		for _, r := range list {
			if s.ca.deleted(r) {
				continue
			}
			live++
			lits := s.ca.lits(r)
			want := map[Lit]int{lits[0].Not(): 1, lits[1].Not(): 1}
			if got := on[r]; len(got) != 2 || got[lits[0].Not()] != 1 || got[lits[1].Not()] != 1 {
				return fmt.Errorf("clause %d %v is watched %v, want %v", r, lits, got, want)
			}
		}
	}
	if len(on) != live {
		return fmt.Errorf("%d clauses are watched, %d are live", len(on), live)
	}
	return nil
}

// StateDiff reports the first difference between two solvers' clause
// databases, watch lists, variables, trails, branching heaps, activity
// increments and work counters, or nil if there is none. Watch lists
// compare by content, not by where they sit in the slab.
func StateDiff(a, b *Solver) error {
	switch {
	case a.ok != b.ok:
		return fmt.Errorf("ok %v vs %v", a.ok, b.ok)
	case a.Conflicts != b.Conflicts || a.Decisions != b.Decisions || a.Propagations != b.Propagations:
		return fmt.Errorf("conflicts/decisions/propagations %d/%d/%d vs %d/%d/%d",
			a.Conflicts, a.Decisions, a.Propagations, b.Conflicts, b.Decisions, b.Propagations)
	case a.Learnt != b.Learnt || a.LearntLits != b.LearntLits || a.Restarts != b.Restarts ||
		a.Deleted != b.Deleted || a.LearntSizes != b.LearntSizes:
		return fmt.Errorf("learnt/restart counters differ")
	case a.ElimVars != b.ElimVars || a.SubsumedClauses != b.SubsumedClauses ||
		a.StrengthenedClauses != b.StrengthenedClauses:
		return fmt.Errorf("eliminated %d vs %d variables", a.ElimVars, b.ElimVars)
	case !slices.Equal(a.ca.data, b.ca.data) || a.ca.wasted != b.ca.wasted:
		return fmt.Errorf("clause arenas differ (%d vs %d words)", len(a.ca.data), len(b.ca.data))
	case !slices.Equal(a.clauses, b.clauses) || !slices.Equal(a.learnts, b.learnts):
		return fmt.Errorf("clause lists differ")
	case !slices.Equal(a.trail, b.trail) || !slices.Equal(a.trailLim, b.trailLim) || a.qhead != b.qhead:
		return fmt.Errorf("trails differ: %v vs %v", a.trail, b.trail)
	case !slices.Equal(a.assigns, b.assigns) || !slices.Equal(a.vardata, b.vardata) ||
		!slices.Equal(a.elimed, b.elimed) || !slices.Equal(a.frozen, b.frozen):
		return fmt.Errorf("assignments differ")
	case !slices.Equal(a.polarity, b.polarity) || !slices.Equal(a.activity, b.activity) ||
		a.varInc != b.varInc || a.clauseInc != b.clauseInc:
		return fmt.Errorf("phases or activities differ")
	case !slices.Equal(a.order.data, b.order.data) || !slices.Equal(a.order.pos, b.order.pos) ||
		a.numVarsFree != b.numVarsFree:
		return fmt.Errorf("branching heaps differ")
	case a.dirty != b.dirty:
		return fmt.Errorf("%d vs %d clauses added since preprocessing", a.dirty, b.dirty)
	case len(a.watches) != len(b.watches):
		return fmt.Errorf("%d vs %d watch lists", len(a.watches), len(b.watches))
	}
	for p := range a.watches {
		wa, wb := a.watches[p], b.watches[p]
		if !slices.Equal(a.watchers[wa.off:wa.off+wa.n], b.watchers[wb.off:wb.off+wb.n]) {
			return fmt.Errorf("watch lists of %v differ", Lit(p))
		}
	}
	return nil
}
