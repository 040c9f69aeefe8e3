package sat

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestTrivialSat(t *testing.T) {
	s := New()
	a := s.NewVar()
	b := s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, false))
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v, want Sat", got)
	}
	if !s.Value(a) && !s.Value(b) {
		t.Fatal("model does not satisfy a|b")
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(MkLit(a, false))
	s.AddClause(MkLit(a, true))
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v, want Unsat", got)
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New()
	if s.AddClause() {
		t.Fatal("empty clause should make the solver inconsistent")
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v, want Unsat", got)
	}
}

func TestUnitPropagationChain(t *testing.T) {
	s := New()
	const n = 50
	vars := make([]int, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	s.AddClause(MkLit(vars[0], false))
	for i := 0; i+1 < n; i++ {
		// v[i] -> v[i+1]
		s.AddClause(MkLit(vars[i], true), MkLit(vars[i+1], false))
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v, want Sat", got)
	}
	for i, v := range vars {
		if !s.Value(v) {
			t.Fatalf("var %d should be true by implication chain", i)
		}
	}
}

func TestPigeonhole(t *testing.T) {
	// PHP(n+1, n): n+1 pigeons in n holes — classically UNSAT and a good
	// stress test for clause learning.
	for _, n := range []int{3, 4, 5} {
		s := New()
		p := make([][]int, n+1)
		for i := range p {
			p[i] = make([]int, n)
			for j := range p[i] {
				p[i][j] = s.NewVar()
			}
		}
		for i := 0; i <= n; i++ {
			lits := make([]Lit, n)
			for j := 0; j < n; j++ {
				lits[j] = MkLit(p[i][j], false)
			}
			s.AddClause(lits...)
		}
		for j := 0; j < n; j++ {
			for i := 0; i <= n; i++ {
				for k := i + 1; k <= n; k++ {
					s.AddClause(MkLit(p[i][j], true), MkLit(p[k][j], true))
				}
			}
		}
		if got := s.Solve(); got != Unsat {
			t.Fatalf("PHP(%d+1,%d) = %v, want Unsat", n, n, got)
		}
	}
}

func TestAssumptionsAndCore(t *testing.T) {
	s := New()
	a := s.NewVar()
	b := s.NewVar()
	c := s.NewVar()
	// a & b -> false, c free.
	s.AddClause(MkLit(a, true), MkLit(b, true))
	if got := s.Solve(MkLit(a, false), MkLit(b, false), MkLit(c, false)); got != Unsat {
		t.Fatalf("Solve under a,b,c = %v, want Unsat", got)
	}
	core := s.Conflict()
	if len(core) == 0 || len(core) > 2 {
		t.Fatalf("conflict core = %v, want subset of {~a,~b} of size 1-2", core)
	}
	for _, l := range core {
		if l.Var() == c {
			t.Fatalf("core %v mentions irrelevant assumption c", core)
		}
	}
	// Without the conflicting assumptions it must be satisfiable again.
	if got := s.Solve(MkLit(c, false)); got != Sat {
		t.Fatalf("Solve under c = %v, want Sat", got)
	}
}

func TestIncrementalReuse(t *testing.T) {
	s := New()
	x := s.NewVar()
	y := s.NewVar()
	s.AddClause(MkLit(x, false), MkLit(y, false))
	if s.Solve(MkLit(x, true)) != Sat {
		t.Fatal("want Sat under ~x (y must hold)")
	}
	if !s.Value(y) {
		t.Fatal("y must be true when x assumed false")
	}
	if s.Solve(MkLit(y, true)) != Sat {
		t.Fatal("want Sat under ~y (x must hold)")
	}
	if !s.Value(x) {
		t.Fatal("x must be true when y assumed false")
	}
	if s.Solve(MkLit(x, true), MkLit(y, true)) != Unsat {
		t.Fatal("want Unsat under ~x,~y")
	}
}

// bruteForce decides satisfiability of the CNF by enumeration.
func bruteForce(nVars int, cnf [][]Lit) bool {
	for m := 0; m < 1<<nVars; m++ {
		ok := true
		for _, cl := range cnf {
			sat := false
			for _, l := range cl {
				val := m&(1<<l.Var()) != 0
				if l.Neg() {
					val = !val
				}
				if val {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestRandomCNFAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 500; iter++ {
		nVars := 3 + rng.Intn(8)
		nClauses := 1 + rng.Intn(40)
		cnf := make([][]Lit, nClauses)
		for i := range cnf {
			width := 1 + rng.Intn(3)
			cl := make([]Lit, width)
			for j := range cl {
				cl[j] = MkLit(rng.Intn(nVars), rng.Intn(2) == 0)
			}
			cnf[i] = cl
		}
		s := New()
		for v := 0; v < nVars; v++ {
			s.NewVar()
		}
		for _, cl := range cnf {
			s.AddClause(cl...)
		}
		got := s.Solve() == Sat
		want := bruteForce(nVars, cnf)
		if got != want {
			t.Fatalf("iter %d: solver=%v brute=%v cnf=%v", iter, got, want, cnf)
		}
		if got {
			// Verify the model actually satisfies the CNF.
			for _, cl := range cnf {
				sat := false
				for _, l := range cl {
					v := s.Value(l.Var())
					if l.Neg() {
						v = !v
					}
					if v {
						sat = true
						break
					}
				}
				if !sat {
					t.Fatalf("iter %d: reported model does not satisfy clause %v", iter, cl)
				}
			}
		}
	}
}

func TestQuickModelSoundness(t *testing.T) {
	// Property: for any 3-CNF the solver's Sat verdict comes with a model
	// that satisfies every clause.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nVars := 4 + rng.Intn(10)
		s := New()
		for v := 0; v < nVars; v++ {
			s.NewVar()
		}
		var cnf [][]Lit
		for i := 0; i < 5+rng.Intn(60); i++ {
			cl := make([]Lit, 1+rng.Intn(3))
			for j := range cl {
				cl[j] = MkLit(rng.Intn(nVars), rng.Intn(2) == 0)
			}
			cnf = append(cnf, cl)
			s.AddClause(cl...)
		}
		if s.Solve() != Sat {
			return true // nothing to check; completeness covered elsewhere
		}
		for _, cl := range cnf {
			sat := false
			for _, l := range cl {
				v := s.Value(l.Var())
				if l.Neg() {
					v = !v
				}
				if v {
					sat = true
				}
			}
			if !sat {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBudget(t *testing.T) {
	// A hard instance with a tiny budget should return Unknown.
	n := 8
	s := New()
	p := make([][]int, n+1)
	for i := range p {
		p[i] = make([]int, n)
		for j := range p[i] {
			p[i][j] = s.NewVar()
		}
	}
	for i := 0; i <= n; i++ {
		lits := make([]Lit, n)
		for j := 0; j < n; j++ {
			lits[j] = MkLit(p[i][j], false)
		}
		s.AddClause(lits...)
	}
	for j := 0; j < n; j++ {
		for i := 0; i <= n; i++ {
			for k := i + 1; k <= n; k++ {
				s.AddClause(MkLit(p[i][j], true), MkLit(p[k][j], true))
			}
		}
	}
	s.SetBudget(10)
	if got := s.Solve(); got != Unknown {
		t.Fatalf("Solve with budget 10 = %v, want Unknown", got)
	}
}

func TestLitHelpers(t *testing.T) {
	l := MkLit(7, false)
	if l.Var() != 7 || l.Neg() {
		t.Fatalf("MkLit(7,false) = %v", l)
	}
	n := l.Not()
	if n.Var() != 7 || !n.Neg() {
		t.Fatalf("Not() = %v", n)
	}
	if n.Not() != l {
		t.Fatal("double negation should be identity")
	}
	if l.String() != "x7" || n.String() != "~x7" {
		t.Fatalf("String() = %q / %q", l.String(), n.String())
	}
}

func TestStatusString(t *testing.T) {
	if Sat.String() != "sat" || Unsat.String() != "unsat" || Unknown.String() != "unknown" {
		t.Fatal("Status.String mismatch")
	}
}

func TestLubySequence(t *testing.T) {
	want := []float64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(i); got != w {
			t.Fatalf("luby(%d) = %v, want %v", i, got, w)
		}
	}
}

func TestManyRestartsTerminate(t *testing.T) {
	// A hard random 3-SAT instance near the phase transition forces many
	// restarts; luby() must stay well-defined at every index (regression
	// for a negative-shift bug at restart index 3).
	rng := rand.New(rand.NewSource(7))
	s := New()
	const n = 60
	for i := 0; i < n; i++ {
		s.NewVar()
	}
	for i := 0; i < int(4.2*n); i++ {
		var cl []Lit
		for j := 0; j < 3; j++ {
			cl = append(cl, MkLit(rng.Intn(n), rng.Intn(2) == 0))
		}
		s.AddClause(cl...)
	}
	if got := s.Solve(); got == Unknown {
		t.Fatal("should decide without budget")
	}
}

// TestSearchCounters pins the counter semantics on a formula whose search
// is fully determined: a unit chain x, x→y, y→z assigns everything by
// level-0 propagation, so the solver makes no decisions and hits no
// conflicts, and each of the three literals is popped from the
// propagation queue exactly once.
func TestSearchCounters(t *testing.T) {
	s := New()
	x := s.NewVar()
	y := s.NewVar()
	z := s.NewVar()
	s.AddClause(MkLit(x, true), MkLit(y, false)) // ¬x ∨ y
	s.AddClause(MkLit(y, true), MkLit(z, false)) // ¬y ∨ z
	s.AddClause(MkLit(x, false))                 // x (unit: triggers the chain)
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v, want Sat", got)
	}
	if !s.Value(x) || !s.Value(y) || !s.Value(z) {
		t.Fatalf("model = %v %v %v, want all true", s.Value(x), s.Value(y), s.Value(z))
	}
	if s.Propagations != 3 {
		t.Errorf("Propagations = %d, want 3 (x, y, z each popped once)", s.Propagations)
	}
	if s.Decisions != 0 {
		t.Errorf("Decisions = %d, want 0 (everything fixed at level 0)", s.Decisions)
	}
	if s.Conflicts != 0 || s.Restarts != 0 || s.Learnt != 0 || s.LearntLits != 0 {
		t.Errorf("Conflicts/Restarts/Learnt/LearntLits = %d/%d/%d/%d, want all 0",
			s.Conflicts, s.Restarts, s.Learnt, s.LearntLits)
	}
}

// TestLearntCounters: a formula that forces at least one conflict must
// record it, along with the learnt clause literals.
func TestLearntCounters(t *testing.T) {
	s := New()
	a := s.NewVar()
	b := s.NewVar()
	c := s.NewVar()
	// (a∨b∨c) ∧ (a∨b∨¬c) ∧ (a∨¬b) ∧ (¬a∨b) ∧ (¬a∨¬b) is unsat on {a,b};
	// search must conflict before concluding Unsat.
	s.AddClause(MkLit(a, false), MkLit(b, false), MkLit(c, false))
	s.AddClause(MkLit(a, false), MkLit(b, false), MkLit(c, true))
	s.AddClause(MkLit(a, false), MkLit(b, true))
	s.AddClause(MkLit(a, true), MkLit(b, false))
	s.AddClause(MkLit(a, true), MkLit(b, true))
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v, want Unsat", got)
	}
	if s.Conflicts == 0 {
		t.Error("Conflicts = 0, want > 0")
	}
	if s.LearntLits == 0 {
		t.Error("LearntLits = 0, want > 0 (analyze produced learnt literals)")
	}
	if s.Decisions == 0 {
		t.Error("Decisions = 0, want > 0")
	}
}

// TestLearntCapAndDeletion: with a tiny learnt-clause ceiling the database
// reduction must fire (evicting clauses and counting them in Deleted)
// while the verdict stays correct. A second solver without the ceiling
// pins the expected verdict.
func TestLearntCapAndDeletion(t *testing.T) {
	build := func(s *Solver) {
		rng := rand.New(rand.NewSource(11))
		const n = 70
		for i := 0; i < n; i++ {
			s.NewVar()
		}
		for i := 0; i < int(4.2*n); i++ {
			var cl []Lit
			for j := 0; j < 3; j++ {
				cl = append(cl, MkLit(rng.Intn(n), rng.Intn(2) == 0))
			}
			s.AddClause(cl...)
		}
	}
	ref := New()
	ref.SetLearntCap(0) // unbounded
	build(ref)
	want := ref.Solve()
	if want == Unknown {
		t.Fatal("reference solve should decide")
	}

	s := New()
	s.SetLearntCap(30)
	build(s)
	if got := s.Solve(); got != want {
		t.Fatalf("Solve with learnt cap = %v, want %v", got, want)
	}
	if s.Deleted == 0 {
		t.Error("Deleted = 0, want > 0 (cap must trigger database reduction)")
	}
	if s.maxLearnts > 30 {
		t.Errorf("maxLearnts = %v grew past the cap 30", s.maxLearnts)
	}
	if int64(len(s.learnts))+s.Deleted != s.Learnt {
		t.Errorf("retained %d + deleted %d != learnt %d", len(s.learnts), s.Deleted, s.Learnt)
	}
}

// TestCancelPreSet: a token that is already true cancels the very first
// search round, and Canceled distinguishes the cause from a budget stop.
func TestCancelPreSet(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New()
	var tok atomic.Bool
	tok.Store(true)
	s.SetCancel(&tok)
	for i := 0; i < 40; i++ {
		s.NewVar()
	}
	for _, cl := range randomCNF(rng, 40, 160, 3) {
		if !s.AddClause(cl...) {
			t.Skip("instance trivially unsat at level 0")
		}
	}
	if st := s.Solve(); st != Unknown {
		t.Fatalf("pre-set token: Solve = %v, want Unknown", st)
	}
	if !s.Canceled() {
		t.Fatal("Canceled() = false after token-driven Unknown")
	}
	// Clearing the token makes the same solver answer normally, and the
	// verdict resets the canceled flag.
	tok.Store(false)
	if st := s.Solve(); st == Unknown {
		t.Fatal("cleared token: still Unknown")
	}
	if s.Canceled() {
		t.Fatal("Canceled() sticky across a completed Solve")
	}
}

// TestCancelMidSolve fires the token from another goroutine while the
// solver grinds a hard formula; Solve must return Unknown promptly.
func TestCancelMidSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := New()
	var tok atomic.Bool
	s.SetCancel(&tok)
	// Hard random instance near the phase transition; big enough that a
	// verdict inside the test's grace period is implausible.
	nVars := 300
	for i := 0; i < nVars; i++ {
		s.NewVar()
	}
	for _, cl := range randomCNF(rng, nVars, int(4.26*float64(nVars)), 3) {
		if !s.AddClause(cl...) {
			t.Skip("instance trivially unsat at level 0")
		}
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		tok.Store(true)
	}()
	done := make(chan Status, 1)
	go func() { done <- s.Solve() }()
	select {
	case st := <-done:
		if st == Unknown && !s.Canceled() {
			t.Fatal("Unknown without Canceled()")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not stop the solver")
	}
}

// TestBudgetUnknownIsNotCanceled pins the disambiguation Canceled exists
// for: budget exhaustion yields Unknown with Canceled() == false.
func TestBudgetUnknownIsNotCanceled(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	s := New()
	var tok atomic.Bool
	s.SetCancel(&tok)
	s.SetBudget(5)
	nVars := 200
	for i := 0; i < nVars; i++ {
		s.NewVar()
	}
	for _, cl := range randomCNF(rng, nVars, int(4.26*float64(nVars)), 3) {
		if !s.AddClause(cl...) {
			t.Skip("instance trivially unsat at level 0")
		}
	}
	st := s.Solve()
	if st != Unknown {
		t.Skipf("instance solved within 5 conflicts (%v)", st)
	}
	if s.Canceled() {
		t.Fatal("budget Unknown reported as canceled")
	}
}
