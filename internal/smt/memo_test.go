package smt_test

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"aquila/internal/encode"
	"aquila/internal/gcl"
	"aquila/internal/genprog"
	"aquila/internal/lpi"
	"aquila/internal/progs"
	"aquila/internal/smt"
)

// violationConds encodes bm under its invalid-header-access spec and
// returns the context and its violation conditions, in assertion order.
func violationConds(t testing.TB, bm *progs.Benchmark) (*smt.Ctx, []*smt.Term) {
	t.Helper()
	prog, err := bm.Parse()
	if err != nil {
		t.Fatalf("%s: parse: %v", bm.Name, err)
	}
	spec, err := lpi.Parse(progs.InvalidHeaderAccessSpec(prog, bm.Calls))
	if err != nil {
		t.Fatalf("%s: spec: %v", bm.Name, err)
	}
	ctx := smt.NewCtx()
	env := encode.NewEnv(ctx, prog, nil, encode.Options{TrackModified: lpi.TrackModified(spec)})
	program, err := lpi.NewCompiler(spec, env).Compile()
	if err != nil {
		t.Fatalf("%s: compile: %v", bm.Name, err)
	}
	var conds []*smt.Term
	for _, v := range gcl.NewEncoder(ctx).Encode(program, nil).Violations {
		conds = append(conds, v.Cond)
	}
	return ctx, conds
}

func switchBench(t testing.TB) *progs.Benchmark {
	for _, bm := range genprog.Table3Suite() {
		if bm.Name == "Switch from vendor" {
			return bm
		}
	}
	t.Fatal(`Table 3 suite has no "Switch from vendor" program`)
	return nil
}

// sameResult checks two solvers that were checked the same way: the same
// verdict, work counters, model (evaluated over cond's variables) and
// final conflict.
func sameResult(a, b *smt.Solver, sa, sb smt.Status, cond *smt.Term) error {
	if sa != sb {
		return fmt.Errorf("verdicts %v vs %v", sa, sb)
	}
	if x, y := a.SolverStats(), b.SolverStats(); x != y {
		return fmt.Errorf("stats %+v vs %+v", x, y)
	}
	switch sa {
	case smt.Sat:
		ma, mb := a.Model(), b.Model()
		a.ModelCollect(ma, cond)
		b.ModelCollect(mb, cond)
		if x, y := fmt.Sprint(ma.Env().BV, ma.Env().Bool), fmt.Sprint(mb.Env().BV, mb.Env().Bool); x != y {
			return fmt.Errorf("models differ:\n%s\n%s", x, y)
		}
	case smt.Unsat:
		if x, y := smt.Conflict(a), smt.Conflict(b); !slices.Equal(x, y) {
			return fmt.Errorf("conflicts %v vs %v", x, y)
		}
	}
	return nil
}

// sameCounts checks that a solver answers the size and work accessors
// like a reference solver in the same position.
func sameCounts(ref, s *smt.Solver) error {
	if x, y := ref.SolverStats(), s.SolverStats(); x != y {
		return fmt.Errorf("stats %+v vs %+v", x, y)
	}
	d1, c1, p1 := ref.Stats()
	d2, c2, p2 := s.Stats()
	if d1 != d2 || c1 != c2 || p1 != p2 || ref.NumClauses() != s.NumClauses() || ref.NumSATVars() != s.NumSATVars() {
		return fmt.Errorf("counts %d/%d/%d %d clauses %d vars vs %d/%d/%d %d clauses %d vars",
			d1, c1, p1, ref.NumClauses(), ref.NumSATVars(), d2, c2, p2, s.NumClauses(), s.NumSATVars())
	}
	return nil
}

// checkMemoIdentity is the differential test of the memo on one
// condition. A first fresh solver checks cond, recording it if Unsat.
// Then a solver that blasts from scratch and one that goes through the
// memo make the same calls and must agree on every answer: after
// Indicator, after CheckLits, and after a call that materializes the
// memo solver (how is 0: Assert, 1: UnsatAssumptions, 2: a second
// CheckLits), where their SAT states must be identical and the next
// check must give the same conflict set.
func checkMemoIdentity(t *testing.T, ctx *smt.Ctx, cond *smt.Term, how int) {
	t.Helper()
	first := smt.NewSolver(ctx)
	recorded := first.CheckLits(first.Indicator(cond)) == smt.Unsat

	ref, s := smt.NewSolver(ctx), smt.NewSolver(ctx)
	lr, l := smt.BlastFromScratch(ref, cond), s.Indicator(cond)
	if lr != l {
		t.Fatalf("condition %d: literal %v from scratch, %v through the memo", cond.ID, lr, l)
	}
	if got := smt.Served(s); got != recorded {
		t.Fatalf("condition %d: served %v, recorded %v", cond.ID, got, recorded)
	}
	if err := sameCounts(ref, s); err != nil {
		t.Fatalf("condition %d after blasting: %v", cond.ID, err)
	}
	sr, ss := ref.CheckLits(lr), s.CheckLits(l)
	if sr == smt.Unknown {
		t.Fatalf("condition %d: unbudgeted check returned unknown", cond.ID)
	}
	if sr != ss {
		t.Fatalf("condition %d: %v from scratch, %v through the memo", cond.ID, sr, ss)
	}
	if err := sameCounts(ref, s); err != nil {
		t.Fatalf("condition %d after checking: %v", cond.ID, err)
	}
	if sr != smt.Unsat {
		return
	}

	switch how {
	case 0:
		other := ctx.Not(cond)
		ref.Assert(other)
		s.Assert(other)
	case 1:
		x, y := ref.UnsatAssumptions([]*smt.Term{cond}), s.UnsatAssumptions([]*smt.Term{cond})
		if !slices.Equal(x, y) {
			t.Fatalf("condition %d: unsat assumptions %v vs %v", cond.ID, x, y)
		}
	case 2:
		sr, ss = ref.CheckLits(lr), s.CheckLits(l)
		if sr != ss {
			t.Fatalf("condition %d: second checks %v vs %v", cond.ID, sr, ss)
		}
	}
	if smt.Served(s) {
		t.Fatalf("condition %d: still served after materializing", cond.ID)
	}
	if err := smt.SolverDiff(ref, s); err != nil {
		t.Fatalf("condition %d after materializing: %v", cond.ID, err)
	}
	sr, ss = ref.CheckLits(lr), s.CheckLits(l)
	if err := sameResult(ref, s, sr, ss, cond); err != nil {
		t.Fatalf("condition %d checked after materializing: %v", cond.ID, err)
	}
	if err := smt.SolverDiff(ref, s); err != nil {
		t.Fatalf("condition %d checked after materializing: %v", cond.ID, err)
	}
}

// distinct returns conds without repeats, in first-occurrence order.
func distinct(conds []*smt.Term) []*smt.Term {
	var out []*smt.Term
	for _, c := range conds {
		if !slices.Contains(out, c) {
			out = append(out, c)
		}
	}
	return out
}

// TestSnapshotCloneIdentity checks that a solver served from the memo, a
// lazy clone of the solver that recorded the verdict, answers as a solver
// that blasted from scratch, before and after it materializes. The name
// dates from the solver-snapshot cache the memo replaced, which this test
// checked over the same suites.
func TestSnapshotCloneIdentity(t *testing.T) {
	suites := []*progs.Benchmark{progs.DCGatewayBench()}
	if !testing.Short() {
		suites = append(suites, switchBench(t))
	}
	for seed := int64(1); seed <= 6; seed++ {
		suites = append(suites, genprog.Assemble(genprog.RandomConfig(seed)))
	}
	for _, bm := range suites {
		t.Run(bm.Name, func(t *testing.T) {
			ctx, conds := violationConds(t, bm)
			if len(conds) == 0 {
				t.Skip("no violation conditions")
			}
			for i, c := range distinct(conds) {
				checkMemoIdentity(t, ctx, c, i%3)
			}
		})
	}
}

// unsatCond returns a DC gateway condition that is Unsat within ten
// conflicts, in a context with an empty memo.
func unsatCond(t *testing.T) (*smt.Ctx, *smt.Term) {
	t.Helper()
	ctx, conds := violationConds(t, progs.DCGatewayBench())
	for _, c := range distinct(conds) {
		s := smt.NewSolver(ctx)
		s.SetBudget(10)
		if s.CheckLits(smt.BlastFromScratch(s, c)) == smt.Unsat {
			return ctx, c
		}
	}
	t.Fatal("no DC gateway condition is Unsat within ten conflicts")
	return nil, nil
}

// check runs cond's first check on a fresh solver set up by config and
// reports the verdict and whether the memo served it.
func check(ctx *smt.Ctx, cond *smt.Term, config func(*smt.Solver)) (smt.Status, bool) {
	s := smt.NewSolver(ctx)
	config(s)
	st := s.CheckLits(s.Indicator(cond))
	return st, smt.Served(s)
}

// TestMemoRecordsFirstSighting pins the memo's policy: the first Unsat
// check of a term records it and the next one is served, while a Sat
// verdict, a solver that loaded something else first and a call between
// Indicator and CheckLits record nothing.
func TestMemoRecordsFirstSighting(t *testing.T) {
	ctx, c := unsatCond(t)
	plain := func(*smt.Solver) {}
	for i, want := range []bool{false, true, true} {
		if st, served := check(ctx, c, plain); st != smt.Unsat || served != want {
			t.Fatalf("sighting %d: %v, served %v, want unsat, served %v", i+1, st, served, want)
		}
	}
	if n := ctx.MemoLen(); n != 1 {
		t.Fatalf("%d records, want 1", n)
	}

	ctx.DropMemo()
	if n := ctx.MemoLen(); n != 0 {
		t.Fatalf("DropMemo kept %d records", n)
	}
	s := smt.NewSolver(ctx)
	s.Indicator(ctx.True())
	s.CheckLits(s.Indicator(c))
	s = smt.NewSolver(ctx)
	l := s.Indicator(c)
	s.Preprocess()
	s.CheckLits(l)
	x := ctx.Var("x", 8)
	if st, _ := check(ctx, ctx.Ult(x, ctx.BV(9, 8)), plain); st != smt.Sat {
		t.Fatalf("x < 9 is %v", st)
	}
	if n := ctx.MemoLen(); n != 0 {
		t.Fatalf("%d records after checks the memo must not record", n)
	}
}

// TestMemoKeyedByBudget checks that a verdict recorded under one
// conflict budget is not served under another.
func TestMemoKeyedByBudget(t *testing.T) {
	ctx, c := unsatCond(t)
	budget := func(s *smt.Solver) { s.SetBudget(10) }
	none := func(*smt.Solver) {}
	for _, order := range [][2]func(*smt.Solver){{budget, none}, {none, budget}} {
		ctx.DropMemo()
		check(ctx, c, order[0])
		if _, served := check(ctx, c, order[1]); served {
			t.Fatal("a verdict recorded under one budget was served under another")
		}
		if _, served := check(ctx, c, order[0]); !served {
			t.Fatal("a verdict was not served under the budget it was recorded under")
		}
	}
}

// TestMemoCancelAndProgress checks that no solver is served once its
// cancellation token has fired, and that a solver with a progress hook
// neither records nor is served.
func TestMemoCancelAndProgress(t *testing.T) {
	ctx, c := unsatCond(t)
	check(ctx, c, func(*smt.Solver) {})
	var fired atomic.Bool
	fired.Store(true)
	if st, served := check(ctx, c, func(s *smt.Solver) { s.SetCancel(&fired) }); st != smt.Unknown || served {
		t.Fatalf("canceled solver: %v, served %v; want unknown from a real search", st, served)
	}
	hook := func(s *smt.Solver) { s.SetProgress(1, func(smt.SolveProgress) {}) }
	if _, served := check(ctx, c, hook); served {
		t.Fatal("a solver with a progress hook was served")
	}
	ctx.DropMemo()
	check(ctx, c, hook)
	if n := ctx.MemoLen(); n != 0 {
		t.Fatalf("a solver with a progress hook recorded %d verdicts", n)
	}
}

// TestMemoReleasePurge records an Unsat term, releases it, creates a
// different (satisfiable) term in its ID, and requires the new term's
// first check to be a from-scratch one: released IDs are reused, so a
// surviving record would serve the old term's Unsat.
func TestMemoReleasePurge(t *testing.T) {
	ctx := smt.NewCtx()
	x, y := ctx.Var("x", 8), ctx.Var("y", 8)
	mark := ctx.Mark()
	a := ctx.And(ctx.Ult(ctx.BVAdd(x, ctx.BV(3, 8)), y), ctx.Ult(y, ctx.BVAdd(x, ctx.BV(3, 8))))
	s := smt.NewSolver(ctx)
	if st := s.CheckLits(s.Indicator(a)); st != smt.Unsat {
		t.Fatalf("x+3 < y < x+3 is %v", st)
	}
	if ctx.MemoLen() != 1 {
		t.Fatal("the Unsat check was not recorded")
	}
	id := a.ID
	ctx.Release(mark)
	if n := ctx.MemoLen(); n != 0 {
		t.Fatalf("Release kept %d records", n)
	}
	b := ctx.And(ctx.Eq(ctx.BVXor(x, ctx.BV(5, 8)), y), ctx.Ult(x, y))
	if b.ID != id {
		t.Fatalf("replacement term took ID %d, want the released %d", b.ID, id)
	}
	ref := smt.NewSolver(ctx)
	lr := smt.BlastFromScratch(ref, b)
	s = smt.NewSolver(ctx)
	l := s.Indicator(b)
	if smt.Served(s) || l != lr {
		t.Fatalf("literal %v (served %v), from scratch %v", l, smt.Served(s), lr)
	}
	if err := smt.SolverDiff(ref, s); err != nil {
		t.Fatalf("first blast after Release: %v", err)
	}
	if sr, ss := ref.CheckLits(lr), s.CheckLits(l); sr != smt.Sat || ss != smt.Sat {
		t.Fatalf("x^5 = y > x is %v from scratch, %v after Release", sr, ss)
	}
}

// TestMemoConcurrentWorkers runs two workers over a frozen context, each
// checking every DC gateway condition three times on fresh solvers, so
// records and hits of the same terms race; every check must match a
// from-scratch reference, and every Unsat one after the first round must
// be served. Run under -race.
func TestMemoConcurrentWorkers(t *testing.T) {
	ctx, conds := violationConds(t, progs.DCGatewayBench())
	type result struct {
		st smt.Status
		ss smt.SolverStats
	}
	want := map[*smt.Term]result{}
	for _, c := range distinct(conds) {
		s := smt.NewSolver(ctx)
		want[c] = result{s.CheckLits(smt.BlastFromScratch(s, c)), s.SolverStats()}
	}
	ctx.Freeze()
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for _, c := range conds {
					s := smt.NewSolver(ctx)
					got := result{s.CheckLits(s.Indicator(c)), s.SolverStats()}
					if got != want[c] {
						errs <- fmt.Errorf("worker %d round %d condition %d: %+v, want %+v", w, round, c.ID, got, want[c])
						return
					}
					if round > 0 && got.st == smt.Unsat && !smt.Served(s) {
						errs <- fmt.Errorf("worker %d round %d condition %d: Unsat not served", w, round, c.ID)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if ctx.MemoLen() == 0 {
		t.Fatal("no verdict was recorded")
	}
}
