package sat

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

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
// restore) and arena compactions. CheckWatches runs after every batch,
// solve and compaction.
func TestAddClausesTrajectory(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	check := func(iter int, stage string, one, log *Solver) {
		t.Helper()
		for _, s := range []*Solver{one, log} {
			if err := CheckWatches(s); err != nil {
				t.Fatalf("iter %d %s: %v", iter, stage, err)
			}
		}
		if err := StateDiff(one, log); err != nil {
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
	if err := CheckWatches(s); err != nil {
		t.Fatal(err)
	}
}
