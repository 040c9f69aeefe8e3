package sat

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// checkWatches verifies the watch-list invariants: every list lies inside
// the slab with n <= cap, no two lists' regions overlap, and every live
// clause is watched exactly once on each of its first two literals'
// negations and nowhere else. Watchers of deleted clauses are ignored:
// propagate and garbageCollect drop them lazily.
func checkWatches(s *Solver) error {
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

// sameState reports the first difference between two solvers' clause
// databases, watch lists, trails, branching heaps and search counters.
func sameState(a, b *Solver) error {
	switch {
	case a.ok != b.ok:
		return fmt.Errorf("ok %v vs %v", a.ok, b.ok)
	case a.Conflicts != b.Conflicts || a.Decisions != b.Decisions || a.Propagations != b.Propagations:
		return fmt.Errorf("conflicts/decisions/propagations %d/%d/%d vs %d/%d/%d",
			a.Conflicts, a.Decisions, a.Propagations, b.Conflicts, b.Decisions, b.Propagations)
	case a.ElimVars != b.ElimVars:
		return fmt.Errorf("eliminated %d vs %d variables", a.ElimVars, b.ElimVars)
	case !slices.Equal(a.ca.data, b.ca.data):
		return fmt.Errorf("clause arenas differ (%d vs %d words)", len(a.ca.data), len(b.ca.data))
	case !slices.Equal(a.clauses, b.clauses) || !slices.Equal(a.learnts, b.learnts):
		return fmt.Errorf("clause lists differ")
	case !slices.Equal(a.trail, b.trail):
		return fmt.Errorf("trails differ: %v vs %v", a.trail, b.trail)
	case !slices.Equal(a.assigns, b.assigns) || !slices.Equal(a.elimed, b.elimed):
		return fmt.Errorf("assignments differ")
	case !slices.Equal(a.order.data, b.order.data) || !slices.Equal(a.order.pos, b.order.pos):
		return fmt.Errorf("branching heaps differ")
	}
	for p := 0; p < 2*a.NumVars(); p++ {
		wa, wb := a.watches[p], b.watches[p]
		if !slices.Equal(a.watchers[wa.off:wa.off+wa.n], b.watchers[wb.off:wb.off+wb.n]) {
			return fmt.Errorf("watch lists of %v differ", Lit(p))
		}
	}
	return nil
}

// batchGen writes one random batch to two solvers at once: clause at a time
// into one, through a ClauseLog into the other. Clauses mix in units,
// duplicate and complementary literals, and negations of earlier units,
// which are false at level 0.
type batchGen struct {
	rng   *rand.Rand
	units []Lit
}

func (g *batchGen) batch(one, log *Solver, l *ClauseLog, newVars, nClauses int) {
	upfront := newVars / 2
	for c := 0; c < nClauses; c++ {
		for newVars > 0 && (upfront > 0 || g.rng.Intn(3) == 0) {
			if v, w := one.NewVar(), l.NewVar(log); v != w {
				panic(fmt.Sprintf("log numbered variable %d, solver allocated %d", w, v))
			}
			newVars--
			upfront--
		}
		nv := one.NumVars()
		lit := func() Lit { return MkLit(g.rng.Intn(nv), g.rng.Intn(2) == 0) }
		var cl []Lit
		switch r := g.rng.Intn(40); {
		case r == 0:
			cl = []Lit{lit()}
			g.units = append(g.units, cl[0])
		case r == 1:
			x := lit()
			cl = []Lit{x, lit(), x, lit()}
		case r == 2:
			x := lit()
			cl = []Lit{lit(), x, x.Not()}
		case r == 3 && len(g.units) > 0:
			cl = []Lit{lit(), g.units[g.rng.Intn(len(g.units))].Not(), lit()}
		default:
			cl = []Lit{lit(), lit(), lit()}
			if g.rng.Intn(3) == 0 {
				cl = append(cl, lit())
			}
		}
		one.AddClause(cl...)
		l.AddClause(cl...)
	}
	for ; newVars > 0; newVars-- {
		one.NewVar()
		l.NewVar(log)
	}
	log.AddClauses(l)
}

// TestAddClausesTrajectory is the differential test of batch loading: on
// random CNFs, a solver fed through ClauseLog and AddClauses must stay
// identical to one fed the same calls clause at a time, through several
// batches, Solve calls under assumptions, preprocessing rounds (which
// rebuild the watch lists and eliminate variables that later batches
// restore) and arena compactions. checkWatches runs after every batch,
// solve and compaction.
func TestAddClausesTrajectory(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	check := func(iter int, stage string, one, log *Solver) {
		t.Helper()
		for _, s := range []*Solver{one, log} {
			if err := checkWatches(s); err != nil {
				t.Fatalf("iter %d %s: %v", iter, stage, err)
			}
		}
		if err := sameState(one, log); err != nil {
			t.Fatalf("iter %d %s: %v", iter, stage, err)
		}
	}
	var solved, restored int
	var conflicts, elim int64
	for iter := 0; iter < 200; iter++ {
		one, log := New(), New()
		if iter%2 == 1 {
			one.SetPreprocess(true)
			log.SetPreprocess(true)
		}
		g := &batchGen{rng: rng}
		l := &ClauseLog{}
		for step := 0; step < 5; step++ {
			newVars := 30 + rng.Intn(60)
			g.batch(one, log, l, newVars, newVars*(2+rng.Intn(3)))
			check(iter, fmt.Sprintf("step %d batch", step), one, log)

			var assumptions []Lit
			for len(assumptions) < rng.Intn(4) {
				assumptions = append(assumptions, MkLit(rng.Intn(one.NumVars()), rng.Intn(2) == 0))
			}
			st1, st2 := one.Solve(assumptions...), log.Solve(assumptions...)
			if st1 != st2 {
				t.Fatalf("iter %d step %d: clause-at-a-time %v, batched %v", iter, step, st1, st2)
			}
			switch st1 {
			case Sat:
				solved++
				if !slices.Equal(one.Model(), log.Model()) {
					t.Fatalf("iter %d step %d: models differ", iter, step)
				}
			case Unsat:
				if !slices.Equal(one.Conflict(), log.Conflict()) {
					t.Fatalf("iter %d step %d: conflicts %v vs %v", iter, step, one.Conflict(), log.Conflict())
				}
			}
			check(iter, fmt.Sprintf("step %d solve", step), one, log)

			if step == 2 {
				one.Preprocess()
				log.Preprocess()
				check(iter, "preprocess", one, log)
			}
			if step%2 == 1 {
				one.garbageCollect()
				log.garbageCollect()
				check(iter, fmt.Sprintf("step %d gc", step), one, log)
			}
			if !one.Okay() {
				break
			}
		}
		conflicts += one.Conflicts
		elim += one.ElimVars
		for _, rec := range one.elimStack {
			if rec.clauses == nil {
				restored++
			}
		}
	}
	if solved == 0 || conflicts == 0 || elim == 0 || restored == 0 {
		t.Fatalf("weak workload: %d sat verdicts, %d conflicts, %d variables eliminated, %d restored",
			solved, conflicts, elim, restored)
	}
}

// TestAddClausesEmptyLog checks that loading an empty log, or one holding
// only variables, matches the equivalent NewVar calls.
func TestAddClausesEmptyLog(t *testing.T) {
	s, l := New(), &ClauseLog{}
	if !s.AddClauses(l) || s.NumVars() != 0 {
		t.Fatalf("empty log: ok=%v vars=%d", s.Okay(), s.NumVars())
	}
	for i := 0; i < 3; i++ {
		if v := l.NewVar(s); v != i {
			t.Fatalf("log numbered variable %d, want %d", v, i)
		}
	}
	if !s.AddClauses(l) || s.NumVars() != 3 || s.Solve() != Sat {
		t.Fatalf("variables-only log: ok=%v vars=%d", s.Okay(), s.NumVars())
	}
	if err := checkWatches(s); err != nil {
		t.Fatal(err)
	}
}
