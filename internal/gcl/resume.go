package gcl

import (
	"slices"

	"aquila/internal/smt"
)

// Resumer encodes a series of programs over one context that share
// leading top-level statements. The delta session re-encodes the whole
// program after every table change, and its programs agree up to the
// first statement a changed table's encoding reaches. Encoding is
// deterministic and the context hash-conses every term it builds, so the
// encoder's state after a statement prefix is the same whichever program
// the prefix came from. A Resumer keeps that state for the prefix its
// last two programs shared and starts the next program from it when the
// next program shares the prefix too; the Result is the one Encode gives.
// Its encoder also keeps every substitution across runs (substKept), so
// the statements after the prefix re-substitute only the sub-terms whose
// free variables are bound differently.
//
// The context must keep the terms the kept state holds (no Release):
// the kept substitutions are indexed by term ID, and a released ID is
// given to a new term. Drop the Resumer with the terms.
type Resumer struct {
	enc  *Encoder
	prev []Stmt       // the last program's top-level statements
	mark *resumePoint // state after prev[:mark.n], nil if none
}

// resumePoint is the encoder state after a program's first n top-level
// statements.
type resumePoint struct {
	n     int
	store *Store
	path  *smt.Term
	viols []*Violation
	fresh int
}

// NewResumer returns a Resumer over ctx.
func NewResumer(ctx *smt.Ctx) *Resumer {
	return &Resumer{enc: &Encoder{ctx: ctx, keep: newKeeper()}}
}

// Encode produces the verification conditions of s from an all-symbolic
// store, like Encoder.Encode(s, nil).
func (r *Resumer) Encode(s Stmt) *Result {
	stmts := []Stmt{s}
	if seq, ok := s.(*Seq); ok {
		stmts = seq.Stmts
	}
	shared := 0
	for shared < len(stmts) && shared < len(r.prev) && sameStmt(stmts[shared], r.prev[shared]) {
		shared++
	}
	e, res := r.enc, &Result{}
	store, path, start := NewStore(), e.ctx.True(), 0
	if m := r.mark; m != nil && m.n <= shared {
		store, path, start = m.store.clone(), m.path, m.n
		res.Violations = slices.Clone(m.viols)
		e.fresh = m.fresh
	} else {
		r.mark = nil
		e.fresh = 0
	}
	for i := start; ; i++ {
		if i == shared && shared > 0 && (r.mark == nil || r.mark.n < shared) {
			r.mark = &resumePoint{n: i, store: store.clone(), path: path,
				viols: slices.Clone(res.Violations), fresh: e.fresh}
		}
		if i == len(stmts) {
			break
		}
		path = e.encode(stmts[i], store, path, res)
	}
	r.prev = stmts
	res.Store, res.Path = store, path
	return res
}

// sameStmt reports whether two statements are the same program: the same
// node, or alike nodes over the same terms and alike children. Asserts
// must be the same node, since their Meta rides into the Violations.
func sameStmt(a, b Stmt) bool {
	if a == b {
		return true
	}
	switch x := a.(type) {
	case *Assign:
		y, ok := b.(*Assign)
		return ok && x.Var == y.Var && x.Rhs == y.Rhs
	case *Havoc:
		y, ok := b.(*Havoc)
		return ok && x.Var == y.Var
	case *Assume:
		y, ok := b.(*Assume)
		return ok && x.Cond == y.Cond
	case *Skip:
		_, ok := b.(*Skip)
		return ok
	case *If:
		y, ok := b.(*If)
		return ok && x.Cond == y.Cond && sameStmt(x.Then, y.Then) && sameStmt(x.Else, y.Else)
	case *Choice:
		y, ok := b.(*Choice)
		return ok && sameStmt(x.A, y.A) && sameStmt(x.B, y.B)
	case *While:
		y, ok := b.(*While)
		return ok && x.Cond == y.Cond && x.Bound == y.Bound && sameStmt(x.Body, y.Body)
	case *Seq:
		y, ok := b.(*Seq)
		return ok && slices.EqualFunc(x.Stmts, y.Stmts, sameStmt)
	}
	return false
}
