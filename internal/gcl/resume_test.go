package gcl

import (
	"math/rand"
	"slices"
	"testing"

	"aquila/internal/smt"
)

// TestResumerMatchesEncode encodes a series of programs that share
// leading statements through one Resumer and requires each Result to be
// the one a new Encoder gives: the same path, violations and final store.
// The series resumes from a kept state, keeps a longer one, starts over
// when a program shares less, and resumes through new but alike nodes,
// as a recompiled program's are.
func TestResumerMatchesEncode(t *testing.T) {
	ctx := smt.NewCtx()
	x, y, z := ctx.Var("x", 8), ctx.Var("y", 8), ctx.Var("z", 8)
	b := ctx.BoolVar("b")
	assign := func(v *smt.Term, k uint64) Stmt { return &Assign{Var: v, Rhs: ctx.BVAdd(v, ctx.BV(k, 8))} }
	branch := func(k uint64) Stmt {
		return &If{Cond: ctx.Ult(x, ctx.BV(k, 8)), Then: assign(y, k), Else: &Havoc{Var: z}}
	}
	check := &Assert{Cond: ctx.Ult(y, z), Label: "y<z"}
	head := []Stmt{&Havoc{Var: x}, &Assume{Cond: b}, &Assert{Cond: ctx.Ult(x, y), Label: "x<y"}, branch(3)}
	program := func(tail ...Stmt) Stmt {
		return &Seq{Stmts: append(slices.Clone(head), append(tail, check)...)}
	}
	alike := &Seq{Stmts: []Stmt{&Havoc{Var: x}, &Assume{Cond: b}, head[2], branch(3), assign(z, 2), branch(7), check}}
	series := []struct {
		p    Stmt
		mark int // statements the kept state covers after encoding p, 0 for none
	}{
		{program(assign(z, 1), branch(5)), 0},
		{program(assign(z, 1), branch(6)), 5}, // shares 5 statements with the one before
		{program(assign(z, 1), branch(6)), 7}, // resumes after 5, shares all 7
		{program(assign(z, 2), branch(6)), 4}, // shares 4: starts over
		{alike, 5},                            // resumes after 4, through alike nodes
		{&Seq{Stmts: []Stmt{&Havoc{Var: y}, check}}, 0},
		{program(assign(z, 2), branch(7)), 0}, // shares nothing with the one before
	}
	r := NewResumer(ctx)
	for i, step := range series {
		got, want := r.Encode(step.p), NewEncoder(ctx).Encode(step.p, nil)
		if got.Path != want.Path {
			t.Fatalf("program %d: paths differ", i)
		}
		if !slices.EqualFunc(got.Violations, want.Violations, func(a, b *Violation) bool {
			return a.Label == b.Label && a.Cond == b.Cond && a.Reach == b.Reach && a.Check == b.Check
		}) {
			t.Fatalf("program %d: violations differ", i)
		}
		names := want.Store.Names()
		if !slices.Equal(got.Store.Names(), names) {
			t.Fatalf("program %d: bound names %v, want %v", i, got.Store.Names(), names)
		}
		for _, n := range names {
			g, _ := got.Store.Lookup(n)
			w, _ := want.Store.Lookup(n)
			if g != w {
				t.Fatalf("program %d: %s = %v, want %v", i, n, g, w)
			}
		}
		kept := 0
		if r.mark != nil {
			kept = r.mark.n
		}
		if kept != step.mark {
			t.Fatalf("program %d: kept state after %d statements, want %d", i, kept, step.mark)
		}
	}
}

// TestResumerKeptSubstIdentity encodes seeded series of programs through
// one Resumer. The programs share sub-terms (a lookup tree over two key
// variables, guards over several variables) while the statements before
// them bind those variables differently from run to run, to values that
// recur and to new ones, across branches and through resumed prefixes.
// Every Result must be pointer-identical to a new Encoder's on the same
// context, and that fresh encoding must create no term: the Resumer's
// kept substitutions built every term it needs, and a kept result is
// used only while all of its free variables are bound as it was computed.
func TestResumerKeptSubstIdentity(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ctx := smt.NewCtx()
		vars := []*smt.Term{ctx.Var("a", 8), ctx.Var("b", 8), ctx.Var("c", 8), ctx.Var("d", 8)}
		p, q := ctx.BoolVar("p"), ctx.BoolVar("q")
		a, b, c, d := vars[0], vars[1], vars[2], vars[3]
		// A lookup tree keyed on a and b, as a table encodes one.
		var tree func(lo, hi int) (val, hit *smt.Term)
		tree = func(lo, hi int) (val, hit *smt.Term) {
			if hi-lo == 1 {
				m := ctx.And(ctx.Eq(a, ctx.BV(uint64(lo%5), 8)), ctx.Eq(b, ctx.BV(uint64(lo/5), 8)))
				return ctx.BV(uint64(lo), 8), m
			}
			mid := (lo + hi) / 2
			lv, lh := tree(lo, mid)
			rv, rh := tree(mid, hi)
			return ctx.Ite(lh, lv, rv), ctx.Or(lh, rh)
		}
		look, hit := tree(0, 16)
		shared := []*smt.Term{
			look,
			ctx.Ite(hit, look, c),
			ctx.BVAdd(ctx.Ite(ctx.Ult(c, d), a, b), ctx.BVAnd(d, look)),
			ctx.Concat(ctx.Extract(c, 3, 0), ctx.Extract(ctx.BVXor(a, d), 3, 0)),
		}
		guards := []*smt.Term{
			hit,
			ctx.And(p, ctx.Ult(a, c)),
			ctx.Or(ctx.Not(q), ctx.Eq(ctx.BVAdd(b, d), c)),
			ctx.Implies(ctx.Ule(d, b), ctx.Iff(p, q)),
		}
		stmt := func() Stmt {
			v := vars[rng.Intn(len(vars))]
			switch rng.Intn(7) {
			case 0, 1: // a value that recurs often
				return &Assign{Var: v, Rhs: ctx.BVAdd(vars[rng.Intn(len(vars))], ctx.BV(uint64(rng.Intn(3)), 8))}
			case 2:
				return &Assign{Var: v, Rhs: shared[rng.Intn(len(shared))]}
			case 3:
				return &If{Cond: guards[rng.Intn(len(guards))],
					Then: &Assign{Var: v, Rhs: shared[rng.Intn(len(shared))]},
					Else: &Assign{Var: vars[rng.Intn(len(vars))], Rhs: ctx.BV(uint64(rng.Intn(4)), 8)}}
			case 4:
				return &Choice{A: &Havoc{Var: v}, B: &Assign{Var: p, Rhs: guards[rng.Intn(len(guards))]}}
			case 5:
				return &Assume{Cond: guards[rng.Intn(len(guards))]}
			}
			g := guards[rng.Intn(len(guards))]
			return &Assert{Cond: ctx.Or(g, ctx.Eq(shared[rng.Intn(len(shared))], vars[rng.Intn(len(vars))])), Label: "g"}
		}
		stmts := make([]Stmt, 10)
		for i := range stmts {
			stmts[i] = stmt()
		}
		r := NewResumer(ctx)
		for run := 0; run < 25; run++ {
			// Change one or two statements: the runs share a prefix, and
			// the statements after the change see new bindings.
			for n := 1 + rng.Intn(2); n > 0; n-- {
				stmts[rng.Intn(len(stmts))] = stmt()
			}
			prog := &Seq{Stmts: slices.Clone(stmts)}
			got := r.Encode(prog)
			terms := ctx.NumTerms()
			want := NewEncoder(ctx).Encode(prog, nil)
			if n := ctx.NumTerms(); n != terms {
				t.Fatalf("seed %d run %d: a fresh encoding created %d terms the kept one did not", seed, run, n-terms)
			}
			if got.Path != want.Path {
				t.Fatalf("seed %d run %d: paths differ", seed, run)
			}
			if !slices.EqualFunc(got.Violations, want.Violations, func(a, b *Violation) bool {
				return a.Cond == b.Cond && a.Reach == b.Reach && a.Check == b.Check
			}) {
				t.Fatalf("seed %d run %d: violations differ", seed, run)
			}
			for _, v := range append(slices.Clone(vars), p, q) {
				if g, w := got.Store.Get(v), want.Store.Get(v); g != w {
					t.Fatalf("seed %d run %d: %s = %v, want %v", seed, run, v.Name, g, w)
				}
			}
		}
	}
}
