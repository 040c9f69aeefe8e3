package smt_test

import (
	"fmt"
	"slices"
	"sync"
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

// checkCloneIdentity is the state-identity differential test on one
// condition: a solver cloned from a snapshot must equal one that blasted
// the condition itself, before and after checking it. The snapshot is
// captured by a solver under a 10-conflict budget; the clone and the
// reference are unbudgeted.
func checkCloneIdentity(t *testing.T, ctx *smt.Ctx, cond *smt.Term) {
	t.Helper()
	for i := 0; !smt.HasSnapshot(ctx, cond); i++ {
		if i == 2 {
			t.Fatalf("no snapshot after two sightings of %d", cond.ID)
		}
		s := smt.NewSolver(ctx)
		s.SetBudget(10)
		s.Indicator(cond)
	}
	ref := smt.NewSolver(ctx)
	lr := smt.BlastFromScratch(ref, cond)
	clone := smt.NewSolver(ctx)
	lc := clone.Indicator(cond)
	if lr != lc {
		t.Fatalf("condition %d: literal %v from scratch, %v from the snapshot", cond.ID, lr, lc)
	}
	if err := smt.SolverDiff(ref, clone); err != nil {
		t.Fatalf("condition %d after blasting: %v", cond.ID, err)
	}
	sr, sc := ref.CheckLits(lr), clone.CheckLits(lc)
	if sr == smt.Unknown {
		t.Fatalf("condition %d: unbudgeted check returned unknown", cond.ID)
	}
	if err := sameResult(ref, clone, sr, sc, cond); err != nil {
		t.Fatalf("condition %d after checking: %v", cond.ID, err)
	}
	if err := smt.SolverDiff(ref, clone); err != nil {
		t.Fatalf("condition %d after checking: %v", cond.ID, err)
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
				// The switch's conditions are alike and large; a third
				// of them keeps the test quick.
				if bm.Name != "Switch from vendor" || i%3 == 0 {
					checkCloneIdentity(t, ctx, c)
				}
			}
		})
	}
}

// TestSnapshotCaptureOnSecondSighting pins the capture policy: the first
// sighting of a term records it, the second captures, later ones clone.
func TestSnapshotCaptureOnSecondSighting(t *testing.T) {
	ctx, conds := violationConds(t, progs.DCGatewayBench())
	c := conds[0]
	for i, want := range []bool{false, true, true} {
		smt.NewSolver(ctx).Indicator(c)
		if got := smt.HasSnapshot(ctx, c); got != want {
			t.Fatalf("after sighting %d: snapshot %v, want %v", i+1, got, want)
		}
	}
	// A solver that blasted something else first is not pristine and
	// neither captures nor clones.
	s := smt.NewSolver(ctx)
	s.Indicator(conds[len(conds)-1])
	s.Indicator(c)
	ctx.DropSnapshots()
	if ctx.SnapshotBytes() != 0 || smt.HasSnapshot(ctx, c) {
		t.Fatal("DropSnapshots kept a snapshot")
	}
}

// TestSnapshotReleasePurge releases a term with a snapshot, creates a
// different term in its ID, and requires its first blast to be a
// from-scratch one: released IDs are reused, so a surviving snapshot
// would load the old term's CNF.
func TestSnapshotReleasePurge(t *testing.T) {
	ctx := smt.NewCtx()
	x, y := ctx.Var("x", 8), ctx.Var("y", 8)
	mark := ctx.Mark()
	a := ctx.Ult(ctx.BVAdd(x, ctx.BV(3, 8)), y)
	for range 2 {
		smt.NewSolver(ctx).Indicator(a)
	}
	if !smt.HasSnapshot(ctx, a) {
		t.Fatal("no snapshot after two sightings")
	}
	id := a.ID
	ctx.Release(mark)
	if ctx.SnapshotBytes() != 0 {
		t.Fatal("Release kept a snapshot")
	}
	b := ctx.Eq(ctx.BVXor(x, ctx.BV(5, 8)), y)
	if b.ID != id {
		t.Fatalf("replacement term took ID %d, want the released %d", b.ID, id)
	}
	ref := smt.NewSolver(ctx)
	lr := smt.BlastFromScratch(ref, b)
	s := smt.NewSolver(ctx)
	if l := s.Indicator(b); l != lr {
		t.Fatalf("literal %v, from scratch %v", l, lr)
	}
	if err := smt.SolverDiff(ref, s); err != nil {
		t.Fatalf("first blast after Release: %v", err)
	}
}

// TestSnapshotLimit checks the byte bound: snapshots beyond it evict the
// least recently used, and one larger than it is never kept.
func TestSnapshotLimit(t *testing.T) {
	ctx := smt.NewCtx()
	var terms []*smt.Term // alike but for their variables, so equal in size
	for i := 0; i < 3; i++ {
		v := func(name string) *smt.Term { return ctx.Var(fmt.Sprint(name, i), 16) }
		terms = append(terms, ctx.Ult(ctx.BVMul(v("x"), v("y")), v("z")))
	}
	size := 0
	for _, c := range terms {
		s := smt.NewSolver(ctx)
		smt.BlastFromScratch(s, c)
		size = max(size, smt.SnapshotState(s))
	}
	sightings := func(c *smt.Term) {
		for range 2 {
			smt.NewSolver(ctx).Indicator(c)
		}
	}
	smt.SetSnapshotLimit(ctx, 2*size)
	sightings(terms[0])
	sightings(terms[1])
	smt.NewSolver(ctx).Indicator(terms[0]) // terms[1] is now least recently used
	sightings(terms[2])
	for i, want := range []bool{true, false, true} {
		if got := smt.HasSnapshot(ctx, terms[i]); got != want {
			t.Fatalf("term %d: snapshot %v, want %v", i, got, want)
		}
	}
	if b := ctx.SnapshotBytes(); b > 2*size {
		t.Fatalf("%d snapshot bytes retained, limit %d", b, 2*size)
	}

	ctx.DropSnapshots()
	smt.SetSnapshotLimit(ctx, 1)
	for range 3 {
		smt.NewSolver(ctx).Indicator(terms[0])
	}
	if ctx.SnapshotBytes() != 0 {
		t.Fatal("a snapshot over the limit was kept")
	}
}

// TestSnapshotConcurrentWorkers runs two workers over a frozen context,
// each blasting every DC gateway condition three times on fresh solvers,
// so captures and clones of the same terms race; every check must match
// a from-scratch reference. Run under -race.
func TestSnapshotConcurrentWorkers(t *testing.T) {
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
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if ctx.SnapshotBytes() == 0 {
		t.Fatal("no snapshot was captured")
	}
}
