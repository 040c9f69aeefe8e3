package sat

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestCloneTrajectory is the differential test of CloneFrom: a solver
// cloned from one that has loaded a batch must be identical to it, and
// must stay identical through further batches, solves under assumptions
// and arena compactions when both receive the same calls. The clone is
// made under a different configuration (a conflict budget and a learnt
// cap on the source), which must not carry over.
func TestCloneTrajectory(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	check := func(iter int, stage string, a, b *Solver) {
		t.Helper()
		for _, s := range []*Solver{a, b} {
			if err := CheckWatches(s); err != nil {
				t.Fatalf("iter %d %s: %v", iter, stage, err)
			}
		}
		if err := StateDiff(a, b); err != nil {
			t.Fatalf("iter %d %s: %v", iter, stage, err)
		}
	}
	var solved, refuted int
	for iter := 0; iter < 100; iter++ {
		orig, src := New(), New()
		src.SetBudget(10)
		src.SetLearntCap(100)
		g := &batchGen{rng: rng}
		l := &ClauseLog{}
		newVars := 30 + rng.Intn(60)
		g.batch(orig, src, l, newVars, newVars*(2+rng.Intn(3)))
		check(iter, "load", orig, src)
		clone := New()
		if iter%2 == 1 {
			clone = src.Clone()
		} else {
			clone.CloneFrom(src)
		}
		check(iter, "clone", orig, clone)
		if clone.budget != -1 || clone.learntCap != defaultLearntCap || clone.maxLearnts != 4000 {
			t.Fatalf("iter %d: clone took the source's configuration (budget %d, learnt cap %v, limit %v)",
				iter, clone.budget, clone.learntCap, clone.maxLearnts)
		}
		for step := 0; step < 4; step++ {
			var assumptions []Lit
			for len(assumptions) < rng.Intn(4) {
				assumptions = append(assumptions, MkLit(rng.Intn(orig.NumVars()), rng.Intn(2) == 0))
			}
			st1, st2 := orig.Solve(assumptions...), clone.Solve(assumptions...)
			if st1 != st2 {
				t.Fatalf("iter %d step %d: original %v, clone %v", iter, step, st1, st2)
			}
			switch st1 {
			case Sat:
				solved++
				if !slices.Equal(orig.Model(), clone.Model()) {
					t.Fatalf("iter %d step %d: models differ", iter, step)
				}
			case Unsat:
				refuted++
				if !slices.Equal(orig.Conflict(), clone.Conflict()) {
					t.Fatalf("iter %d step %d: conflicts %v vs %v", iter, step, orig.Conflict(), clone.Conflict())
				}
			}
			check(iter, fmt.Sprintf("step %d solve", step), orig, clone)
			if !orig.Okay() {
				break
			}
			newVars := 5 + rng.Intn(20)
			g.batch(orig, clone, l, newVars, newVars*2)
			check(iter, fmt.Sprintf("step %d batch", step), orig, clone)
			if step == 1 {
				orig.garbageCollect()
				clone.garbageCollect()
				check(iter, "gc", orig, clone)
			}
		}
	}
	if solved == 0 || refuted == 0 {
		t.Fatalf("weak workload: %d sat and %d unsat verdicts", solved, refuted)
	}
}

// TestCloneKeepsReceiverBudget clones a budget-limited solver that gives
// up on a hard instance into an unbudgeted one, which must decide it.
func TestCloneKeepsReceiverBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := New()
	src.SetBudget(10)
	for i := 0; i < 150; i++ {
		src.NewVar()
	}
	for i := 0; i < 639; i++ { // clause/variable ratio 4.26: hard random 3-SAT
		src.AddClause(MkLit(rng.Intn(150), rng.Intn(2) == 0),
			MkLit(rng.Intn(150), rng.Intn(2) == 0), MkLit(rng.Intn(150), rng.Intn(2) == 0))
	}
	clone := src.Clone()
	if st := src.Solve(); st != Unknown {
		t.Fatalf("budget 10 decided the instance (%v); the test needs a harder one", st)
	}
	if st := clone.Solve(); st == Unknown {
		t.Fatal("unbudgeted clone returned unknown")
	}
}

// TestClonePanicsOnEliminatedVars checks that a source whose variables
// were eliminated by preprocessing is refused: the clone would not carry
// the elimination records its models and restores need.
func TestClonePanicsOnEliminatedVars(t *testing.T) {
	s := New()
	for i := 0; i < 3; i++ {
		s.NewVar()
	}
	s.AddClause(MkLit(0, false), MkLit(1, false))
	s.AddClause(MkLit(0, true), MkLit(2, false))
	s.Preprocess()
	if len(s.elimStack) == 0 {
		t.Fatal("preprocessing eliminated nothing; the test needs another formula")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Clone of a solver with eliminated variables did not panic")
		}
	}()
	s.Clone()
}
