package gcl

import (
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
