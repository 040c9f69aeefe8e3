package sat

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func TestPreprocessSubsumption(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, false))
	s.AddClause(MkLit(a, false), MkLit(b, false), MkLit(c, false))
	// Freeze everything so BVE cannot hide the subsumption effect.
	for _, v := range []int{a, b, c} {
		s.FreezeVar(v)
	}
	if !s.Preprocess() {
		t.Fatal("Preprocess reported unsat")
	}
	if s.SubsumedClauses != 1 {
		t.Fatalf("SubsumedClauses = %d, want 1", s.SubsumedClauses)
	}
	if s.NumClauses() != 1 {
		t.Fatalf("NumClauses = %d, want 1", s.NumClauses())
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v, want Sat", got)
	}
}

func TestPreprocessSelfSubsumption(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	// (a|b) and (~a|b|c): the first self-subsumes the second to (b|c).
	s.AddClause(MkLit(a, false), MkLit(b, false))
	s.AddClause(MkLit(a, true), MkLit(b, false), MkLit(c, false))
	for _, v := range []int{a, b, c} {
		s.FreezeVar(v)
	}
	if !s.Preprocess() {
		t.Fatal("Preprocess reported unsat")
	}
	if s.StrengthenedClauses != 1 {
		t.Fatalf("StrengthenedClauses = %d, want 1", s.StrengthenedClauses)
	}
}

func TestPreprocessBVEAndModel(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	// b is defined by a and forces c: (~a|b) (a|~b) (~b|c).
	s.AddClause(MkLit(a, true), MkLit(b, false))
	s.AddClause(MkLit(a, false), MkLit(b, true))
	s.AddClause(MkLit(b, true), MkLit(c, false))
	s.AddClause(MkLit(a, false)) // force a true
	if !s.Preprocess() {
		t.Fatal("Preprocess reported unsat")
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v, want Sat", got)
	}
	// The model must cover eliminated variables too: a=1 forces b=1
	// forces c=1 in the ORIGINAL formula.
	if !s.Value(a) || !s.Value(b) || !s.Value(c) {
		t.Fatalf("model a=%v b=%v c=%v, want all true", s.Value(a), s.Value(b), s.Value(c))
	}
}

func TestPreprocessPureLiteral(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	// a occurs only positively: pure-literal elimination is BVE with zero
	// resolvents. b is frozen so the clause survives until BVE looks at a.
	s.AddClause(MkLit(a, false), MkLit(b, false))
	s.FreezeVar(b)
	if !s.Preprocess() {
		t.Fatal("Preprocess reported unsat")
	}
	if s.ElimVars == 0 {
		t.Fatal("expected at least one eliminated variable")
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v, want Sat", got)
	}
	if !s.Value(a) {
		t.Fatal("reconstructed model must set the pure literal true")
	}
}

func TestPreprocessRestoreOnAddClause(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, true), MkLit(b, false))
	s.AddClause(MkLit(a, false), MkLit(b, true))
	s.AddClause(MkLit(c, false), MkLit(b, false))
	if !s.Preprocess() {
		t.Fatal("Preprocess reported unsat")
	}
	if s.ElimVars == 0 {
		t.Skip("nothing eliminated; restore path not exercised")
	}
	// New clauses referencing eliminated variables must restore their
	// original semantics: force a, then contradict b (defined as a). The
	// restored clauses make the conflict visible — AddClause may already
	// report it, and Solve must settle on Unsat either way.
	s.AddClause(MkLit(a, false))
	s.AddClause(MkLit(b, true))
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v, want Unsat (a forces b)", got)
	}
}

func TestPreprocessFrozenAssumptions(t *testing.T) {
	// Assumption variables must answer differently across queries even
	// when preprocessing runs in between.
	s := New()
	s.SetPreprocess(true)
	sel := s.NewVar()
	x := s.NewVar()
	s.AddClause(MkLit(sel, true), MkLit(x, false)) // sel -> x
	s.AddClause(MkLit(sel, false), MkLit(x, true)) // ~sel -> ~x
	if got := s.Solve(MkLit(sel, false)); got != Sat {
		t.Fatalf("Solve(sel) = %v, want Sat", got)
	}
	if !s.Value(x) {
		t.Fatal("sel assumed true must force x")
	}
	if got := s.Solve(MkLit(sel, true)); got != Sat {
		t.Fatalf("Solve(~sel) = %v, want Sat", got)
	}
	if s.Value(x) {
		t.Fatal("sel assumed false must force ~x")
	}
}

// randomCNF builds a random k-SAT instance over nVars variables.
func randomCNF(rng *rand.Rand, nVars, nClauses, k int) [][]Lit {
	out := make([][]Lit, 0, nClauses)
	for i := 0; i < nClauses; i++ {
		cl := make([]Lit, 0, k)
		used := map[int]bool{}
		for len(cl) < k {
			v := rng.Intn(nVars)
			if used[v] {
				continue
			}
			used[v] = true
			cl = append(cl, MkLit(v, rng.Intn(2) == 0))
		}
		out = append(out, cl)
	}
	return out
}

func clauseSatisfied(s *Solver, cl []Lit) bool {
	for _, l := range cl {
		if s.Value(l.Var()) != l.Neg() {
			return true
		}
	}
	return false
}

// checkOcc verifies the lazy occurrence-list invariants of a round: every
// live clause is on the list of each of its literals exactly once, and
// nocc[l] is the number of live clauses on occ[l] that still contain l.
// Other entries are stale: deleted, or strengthened away from l.
func checkOcc(p *preprocessor) error {
	type entry struct {
		l  Lit
		ci int32
	}
	onList := map[entry]int{}
	for l, list := range p.occ {
		live := int32(0)
		for _, ci := range list {
			if p.deleted(int(ci)) || !slices.Contains(p.lits(int(ci)), Lit(l)) {
				continue
			}
			live++
			onList[entry{Lit(l), ci}]++
		}
		if live != p.nocc[l] {
			return fmt.Errorf("nocc[%v] = %d, occ list holds %d live clauses", Lit(l), p.nocc[l], live)
		}
	}
	for ci := range p.cls {
		if p.deleted(ci) {
			continue
		}
		for _, l := range p.lits(ci) {
			if n := onList[entry{l, int32(ci)}]; n != 1 {
				return fmt.Errorf("live clause %d %v is on occ[%v] %d times, want 1", ci, p.lits(ci), l, n)
			}
		}
	}
	return nil
}

// hookCheckOcc runs checkOcc at the end of every preprocessing round for
// the rest of the test and returns a pointer to the number of rounds
// checked.
func hookCheckOcc(t *testing.T) *int {
	t.Helper()
	rounds := new(int)
	testHookPreprocessRound = func(p *preprocessor) {
		*rounds++
		if err := checkOcc(p); err != nil {
			t.Fatalf("round %d: %v", *rounds, err)
		}
	}
	t.Cleanup(func() { testHookPreprocessRound = nil })
	return rounds
}

// TestPreprocessDifferentialRandom3SAT is the core property test: on random
// 3-SAT instances, preprocessing must preserve the verdict, the returned
// model must satisfy every ORIGINAL clause, and unsat cores must remain
// subsets of the negated assumptions.
func TestPreprocessDifferentialRandom3SAT(t *testing.T) {
	rounds := hookCheckOcc(t)
	rng := rand.New(rand.NewSource(20260805))
	for iter := 0; iter < 300; iter++ {
		nVars := 5 + rng.Intn(16)
		nClauses := 5 + rng.Intn(5*nVars)
		cnf := randomCNF(rng, nVars, nClauses, 3)

		plain, prep := New(), New()
		prep.SetPreprocess(true)
		for i := 0; i < nVars; i++ {
			plain.NewVar()
			prep.NewVar()
		}
		okPlain, okPrep := true, true
		for _, cl := range cnf {
			okPlain = plain.AddClause(cl...) && okPlain
			okPrep = prep.AddClause(cl...) && okPrep
		}

		var assumptions []Lit
		if iter%3 == 0 {
			for len(assumptions) < 1+rng.Intn(3) {
				assumptions = append(assumptions, MkLit(rng.Intn(nVars), rng.Intn(2) == 0))
			}
		}

		got := prep.Solve(assumptions...)
		want := plain.Solve(assumptions...)
		if got != want {
			t.Fatalf("iter %d: preprocess verdict %v, plain %v (vars=%d clauses=%d assume=%v)",
				iter, got, want, nVars, nClauses, assumptions)
		}
		switch got {
		case Sat:
			for ci, cl := range cnf {
				if !clauseSatisfied(prep, cl) {
					t.Fatalf("iter %d: reconstructed model violates original clause %d: %v",
						iter, ci, cl)
				}
			}
			for _, a := range assumptions {
				if prep.Value(a.Var()) == a.Neg() {
					t.Fatalf("iter %d: model violates assumption %v", iter, a)
				}
			}
		case Unsat:
			core := prep.Conflict()
			for _, l := range core {
				found := false
				for _, a := range assumptions {
					if l == a.Not() {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("iter %d: core literal %v is not a negated assumption %v",
						iter, l, assumptions)
				}
			}
		}
	}
	if *rounds == 0 {
		t.Fatal("no preprocessing round ran")
	}
}

// TestPreprocessIncrementalSequence interleaves clause additions and
// assumption queries on a single long-lived pair of solvers, which is the
// access pattern of the incremental verification engine.
func TestPreprocessIncrementalSequence(t *testing.T) {
	rounds := hookCheckOcc(t)
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 20; round++ {
		nVars := 8 + rng.Intn(10)
		plain, prep := New(), New()
		prep.SetPreprocess(true)
		for i := 0; i < nVars; i++ {
			plain.NewVar()
			prep.NewVar()
		}
		for step := 0; step < 6; step++ {
			for _, cl := range randomCNF(rng, nVars, 2+rng.Intn(3*nVars), 3) {
				plain.AddClause(cl...)
				prep.AddClause(cl...)
			}
			var assumptions []Lit
			for len(assumptions) < rng.Intn(3) {
				assumptions = append(assumptions, MkLit(rng.Intn(nVars), rng.Intn(2) == 0))
			}
			got, want := prep.Solve(assumptions...), plain.Solve(assumptions...)
			if got != want {
				t.Fatalf("round %d step %d: preprocess %v, plain %v", round, step, got, want)
			}
			if want == Unsat && len(assumptions) == 0 {
				break // both permanently unsat
			}
		}
	}
	if *rounds == 0 {
		t.Fatal("no preprocessing round ran")
	}
}

func TestPreprocessStatsCounted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := New()
	s.SetPreprocess(true)
	const nVars = 30
	for i := 0; i < nVars; i++ {
		s.NewVar()
	}
	for _, cl := range randomCNF(rng, nVars, 120, 3) {
		s.AddClause(cl...)
	}
	s.Solve()
	if s.ElimVars == 0 && s.SubsumedClauses == 0 && s.StrengthenedClauses == 0 {
		t.Fatal("preprocessing ran but recorded no work in any stat")
	}
}

// wideLookup is a CNF shaped like a table lookup over n entries: key bits
// select one hit_i (hit_i <-> key == i), the selector sel gates every entry
// through a chain of implications sel & hit_i -> m_i0 -> ... -> act_i, and
// act_i is one of a few shared action bits in either polarity. ~sel is in
// n clauses, and each chain variable BVE eliminates deletes one of them.
type wideLookup struct {
	nVars   int
	clauses [][]Lit
	sel     int
	keyBits []int
	act     []Lit // entry -> action literal its chain forces
}

func newWideLookup(n, chain int) *wideLookup {
	w := &wideLookup{}
	newVar := func() int { w.nVars++; return w.nVars - 1 }
	w.sel = newVar()
	for 1<<len(w.keyBits) < n {
		w.keyBits = append(w.keyBits, newVar())
	}
	actBits := make([]int, 16)
	for i := range actBits {
		actBits[i] = newVar()
	}
	for i := 0; i < n; i++ {
		hit := newVar()
		back := []Lit{MkLit(hit, false)}
		for _, l := range w.key(i) {
			w.clauses = append(w.clauses, []Lit{MkLit(hit, true), l})
			back = append(back, l.Not())
		}
		w.clauses = append(w.clauses, back)
		prev := newVar()
		w.clauses = append(w.clauses, []Lit{MkLit(w.sel, true), MkLit(hit, true), MkLit(prev, false)})
		for j := 0; j < chain; j++ {
			next := newVar()
			w.clauses = append(w.clauses, []Lit{MkLit(prev, true), MkLit(next, false)})
			prev = next
		}
		act := MkLit(actBits[i%len(actBits)], (i/len(actBits))%2 == 1)
		w.act = append(w.act, act)
		w.clauses = append(w.clauses, []Lit{MkLit(prev, true), act})
	}
	return w
}

// key returns the key-bit assignment that selects entry i.
func (w *wideLookup) key(i int) []Lit {
	out := make([]Lit, len(w.keyBits))
	for b, v := range w.keyBits {
		out[b] = MkLit(v, i>>b&1 == 0)
	}
	return out
}

func (w *wideLookup) solver(prep bool) *Solver {
	s := New()
	s.SetPreprocess(prep)
	for i := 0; i < w.nVars; i++ {
		s.NewVar()
	}
	for _, cl := range w.clauses {
		s.AddClause(cl...)
	}
	return s
}

// TestPreprocessWideOccurrence is the regression test for deletion cost on
// a literal with thousands of occurrences: verdicts must match a plain
// solver across lookups, and every Sat model must satisfy the original
// clauses and the assumptions.
func TestPreprocessWideOccurrence(t *testing.T) {
	const entries = 5000
	w := newWideLookup(entries, 4)
	prep, plain := w.solver(true), w.solver(false)
	sel := MkLit(w.sel, false)
	queries := []struct {
		name        string
		assumptions []Lit
		want        Status
	}{
		{"hit entry 17", append([]Lit{sel}, w.key(17)...), Sat},
		{"entry 17 without its action", append([]Lit{sel, w.act[17].Not()}, w.key(17)...), Unsat},
		{"hit entry 4242 with its action", append([]Lit{sel, w.act[4242]}, w.key(4242)...), Sat},
		{"entry 4242 without sel", append([]Lit{sel.Not(), w.act[4242].Not()}, w.key(4242)...), Sat},
		{"no assumptions", nil, Sat},
	}
	for _, q := range queries {
		got, want := prep.Solve(q.assumptions...), plain.Solve(q.assumptions...)
		if got != want || got != q.want {
			t.Fatalf("%s: preprocess %v, plain %v, want %v", q.name, got, want, q.want)
		}
		if got != Sat {
			continue
		}
		for ci, cl := range w.clauses {
			if !clauseSatisfied(prep, cl) {
				t.Fatalf("%s: reconstructed model violates original clause %d: %v", q.name, ci, cl)
			}
		}
		for _, a := range q.assumptions {
			if prep.Value(a.Var()) == a.Neg() {
				t.Fatalf("%s: model violates assumption %v", q.name, a)
			}
		}
	}
	if prep.ElimVars < entries {
		t.Fatalf("ElimVars = %d, want at least one per entry (%d)", prep.ElimVars, entries)
	}
}

// BenchmarkPreprocessWideOccurrence times one lookup query, preprocessing
// included, on the 5000-entry wide-occurrence CNF.
func BenchmarkPreprocessWideOccurrence(b *testing.B) {
	w := newWideLookup(5000, 4)
	assumptions := append([]Lit{MkLit(w.sel, false)}, w.key(17)...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := w.solver(true)
		if got := s.Solve(assumptions...); got != Sat {
			b.Fatalf("Solve = %v, want Sat", got)
		}
	}
}
