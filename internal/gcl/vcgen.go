package gcl

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"aquila/internal/smt"
)

// Violation is a potential assertion failure discovered by the encoder:
// Cond is satisfiable exactly when some execution reaches the assertion
// with its condition false.
type Violation struct {
	Label string
	Cond  *smt.Term
	Meta  interface{}
	// Reach is the path condition at the assertion (the paper's `before_i`
	// label, §5.1).
	Reach *smt.Term
	// Check is the asserted condition evaluated in the state at the
	// assertion.
	Check *smt.Term
}

// Result is the outcome of encoding a GCL program.
type Result struct {
	// Path is satisfiable iff some execution reaches the end of the
	// program with every assume holding.
	Path *smt.Term
	// Violations lists the assertion obligations in program order.
	Violations []*Violation
	// Store maps variable names to their final symbolic values.
	Store *Store
}

// nameTable interns variable names to dense indices so stores can hold
// their bindings in a flat slice instead of a string map. All stores of
// one encoding run share a table (clone propagates it), which makes
// clones a single slice copy and lets merge iterate bound names in a
// precomputed lexicographic order instead of sorting per branch join —
// the dominant cost of re-encoding a churning program over a warm
// context was exactly these per-join map copies and sorts.
type nameTable struct {
	ids    map[string]int
	names  []string
	sorted []int // name ids in lexicographic name order
	// varIDs caches the interned id per variable term: variable terms are
	// hash-consed, so pointer identity saves the string hash on every
	// Store.Get in Subst's inner loop.
	varIDs map[*smt.Term]int
}

func newNameTable() *nameTable {
	return &nameTable{ids: map[string]int{}, varIDs: map[*smt.Term]int{}}
}

// intern returns the dense id of name, creating one (and splicing it
// into the sorted order) on first sight.
func (t *nameTable) intern(name string) int {
	if id, ok := t.ids[name]; ok {
		return id
	}
	id := len(t.names)
	t.ids[name] = id
	t.names = append(t.names, name)
	at := sort.Search(len(t.sorted), func(i int) bool { return t.names[t.sorted[i]] >= name })
	t.sorted = append(t.sorted, 0)
	copy(t.sorted[at+1:], t.sorted[at:])
	t.sorted[at] = id
	return id
}

// Store is a persistent symbolic state: variable name -> current value.
type Store struct {
	tbl  *nameTable
	vals []*smt.Term // indexed by interned name id; nil = unbound
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{tbl: newNameTable()} }

func (s *Store) clone() *Store {
	return &Store{tbl: s.tbl, vals: append([]*smt.Term(nil), s.vals...)}
}

func (s *Store) at(id int) *smt.Term {
	if id < len(s.vals) {
		return s.vals[id]
	}
	return nil
}

func (s *Store) setID(id int, val *smt.Term) {
	for len(s.vals) <= id {
		s.vals = append(s.vals, nil)
	}
	s.vals[id] = val
}

// Get returns the current value of a variable term, defaulting to the
// variable itself (its initial value).
func (s *Store) Get(v *smt.Term) *smt.Term {
	id, ok := s.tbl.varIDs[v]
	if !ok {
		id, ok = s.tbl.ids[v.Name]
		if !ok {
			return v
		}
		s.tbl.varIDs[v] = id
	}
	if got := s.at(id); got != nil {
		return got
	}
	return v
}

// Lookup returns the value bound to name, if any.
func (s *Store) Lookup(name string) (*smt.Term, bool) {
	id, ok := s.tbl.ids[name]
	if !ok {
		return nil, false
	}
	v := s.at(id)
	return v, v != nil
}

// Set binds a variable name to a value.
func (s *Store) Set(name string, val *smt.Term) { s.setID(s.tbl.intern(name), val) }

// Names returns the bound variable names, sorted.
func (s *Store) Names() []string {
	var out []string
	for _, id := range s.tbl.sorted {
		if s.at(id) != nil {
			out = append(out, s.tbl.names[id])
		}
	}
	return out
}

// Encoder turns GCL statements into verification conditions.
type Encoder struct {
	ctx   *smt.Ctx
	fresh int

	// Subst's memo, paged by term ID. An entry is valid where its stamp
	// equals gen, and each Subst call starts a new generation, so the many
	// small substitutions of one encoding share the pages instead of each
	// growing a map. Pages are allocated for the ID ranges Subst visits,
	// which keeps an encoding over a long-lived context, full of dead
	// terms, from paying for the whole ID space.
	memo []*memoPage
	gen  uint32

	// keep is set on a Resumer's encoder only: Subst then keeps its
	// results across calls and runs (see substKept).
	keep *keeper
}

const memoPageShift = 7

type memoPage struct {
	gen  [1 << memoPageShift]uint32
	val  [1 << memoPageShift]*smt.Term
	kept *keptPage // nil on a cold encoder
}

// keptPage holds what substKept keeps per term ID across Subst calls: the
// term's free variables, and its last substitution with the bindings of
// those variables it was computed under.
type keptPage struct {
	fv  [1 << memoPageShift]*varSet
	sig [1 << memoPageShift]*bindings
	val [1 << memoPageShift]*smt.Term
}

// NewEncoder returns an encoder over ctx.
func NewEncoder(ctx *smt.Ctx) *Encoder { return &Encoder{ctx: ctx} }

// Ctx returns the encoder's term context.
func (e *Encoder) Ctx() *smt.Ctx { return e.ctx }

// FreshVar returns a fresh bit-vector variable (width>0) or boolean
// variable (width==0) with a reserved name.
func (e *Encoder) FreshVar(hint string, width int) *smt.Term {
	e.fresh++
	name := fmt.Sprintf("%s!%d", hint, e.fresh)
	if width == 0 {
		return e.ctx.BoolVar(name)
	}
	return e.ctx.Var(name, width)
}

// Subst substitutes store values for variables in t.
func (e *Encoder) Subst(t *smt.Term, store *Store) *smt.Term {
	e.gen++
	if e.gen == 0 { // wrapped: no stamp may look current
		clear(e.memo)
		if e.keep != nil {
			e.keep = newKeeper()
		}
		e.gen = 1
	}
	if e.keep != nil {
		return e.substKept(t, store)
	}
	var walk func(x *smt.Term) *smt.Term
	walk = func(x *smt.Term) *smt.Term {
		pg, off := e.page(x.ID)
		if pg.gen[off] == e.gen {
			return pg.val[off]
		}
		var out *smt.Term
		switch x.Op {
		case smt.OpBVVar, smt.OpBoolVar:
			out = store.Get(x)
		case smt.OpBVConst, smt.OpBoolConst:
			out = x
		default:
			var buf [3]*smt.Term // no term has more than three arguments
			args := buf[:len(x.Args)]
			changed := false
			for i, a := range x.Args {
				args[i] = walk(a)
				if args[i] != a {
					changed = true
				}
			}
			if !changed {
				out = x
			} else {
				out = e.rebuild(x, args)
			}
		}
		pg.gen[off], pg.val[off] = e.gen, out
		return out
	}
	return walk(t)
}

// page returns the memo page of term ID id, allocating it (and, on a
// warm encoder, its kept half) on first use, and id's offset in it.
func (e *Encoder) page(id int) (*memoPage, int) {
	n, off := id>>memoPageShift, id&(1<<memoPageShift-1)
	if n >= len(e.memo) {
		e.memo = append(e.memo, make([]*memoPage, n+1-len(e.memo))...)
	}
	pg := e.memo[n]
	if pg == nil {
		pg = new(memoPage)
		if e.keep != nil {
			pg.kept = new(keptPage)
		}
		e.memo[n] = pg
	}
	return pg, off
}

// substKept is Subst on a warm encoder. A term's substitution depends
// only on what the store binds its free variables to (an unbound
// variable standing for itself, as in Store.Get), so a result kept from
// an earlier call is still the answer while those bindings are the same
// pointers. A hit skips the whole subtree: after a one-entry table delta
// only the lookup tree's new root-to-leaf path misses, and its unchanged
// siblings hit. The context hash-conses, so every term a skipped subtree
// would build exists already: a hit creates no term and moves no ID.
func (e *Encoder) substKept(x *smt.Term, store *Store) *smt.Term {
	pg, off := e.page(x.ID)
	if pg.gen[off] == e.gen {
		return pg.val[off]
	}
	k, kp := e.keep, pg.kept
	fv := kp.fv[off]
	var out *smt.Term
	switch x.Op {
	case smt.OpBVVar, smt.OpBoolVar:
		out = store.Get(x)
		if fv == nil {
			fv = k.intern([]*smt.Term{x})
		}
	case smt.OpBVConst, smt.OpBoolConst:
		out, fv = x, k.empty
	default:
		if fv != nil && kp.sig[off] == k.bindingsOf(fv, store, e.gen) {
			out = kp.val[off]
			break
		}
		var buf [3]*smt.Term // no term has more than three arguments
		args := buf[:len(x.Args)]
		changed, union := false, k.empty
		for i, a := range x.Args {
			args[i] = e.substKept(a, store)
			if args[i] != a {
				changed = true
			}
			if fv == nil {
				union = k.union(union, e.memo[a.ID>>memoPageShift].kept.fv[a.ID&(1<<memoPageShift-1)])
			}
		}
		if fv == nil {
			fv = union
		}
		if !changed {
			out = x
		} else {
			out = e.rebuild(x, args)
		}
		kp.sig[off], kp.val[off] = k.bindingsOf(fv, store, e.gen), out
	}
	kp.fv[off] = fv
	pg.gen[off], pg.val[off] = e.gen, out
	return out
}

// keeper interns the free-variable sets of a warm encoder's terms. Terms
// are hash-consed, so a term's set never changes; sets are interned by
// content, and the many lookup-tree nodes over the same key variables
// share one set, whose bindings each Subst call computes once.
type keeper struct {
	empty *varSet
	sets  map[string]*varSet // by member term IDs
	key   []byte             // scratch for sets' map keys
	vars  []*smt.Term        // scratch for union
	vals  []*smt.Term        // scratch for bindingsOf
}

// varSet is an interned set of variable terms.
type varSet struct {
	vars []*smt.Term // ascending term ID
	// The bindings of vars last computed, under the store of Subst call
	// gen. A later call that binds the vars alike gets the same pointer.
	gen uint32
	cur *bindings
}

// bindings is what a store binds a varSet's variables to, in order. Its
// pointer stands for the values: two calls see the same pointer only
// when they bind every variable of the set to the same terms. Bindings
// that come back after others were met get a new pointer, so a result
// kept under the old one misses once.
type bindings struct{ vals []*smt.Term }

func newKeeper() *keeper {
	return &keeper{empty: &varSet{}, sets: map[string]*varSet{}}
}

// intern returns the set of vars, which must be in ascending ID order.
// A new set keeps a copy of vars.
func (k *keeper) intern(vars []*smt.Term) *varSet {
	k.key = k.key[:0]
	for _, v := range vars {
		k.key = binary.AppendUvarint(k.key, uint64(v.ID))
	}
	if s, ok := k.sets[string(k.key)]; ok {
		return s
	}
	s := &varSet{vars: slices.Clone(vars)}
	k.sets[string(k.key)] = s
	return s
}

// union returns the interned union of two sets.
func (k *keeper) union(a, b *varSet) *varSet {
	switch {
	case a == b || len(b.vars) == 0:
		return a
	case len(a.vars) == 0:
		return b
	}
	merged := k.vars[:0]
	i, j := 0, 0
	for i < len(a.vars) || j < len(b.vars) {
		switch {
		case j == len(b.vars) || i < len(a.vars) && a.vars[i].ID < b.vars[j].ID:
			merged = append(merged, a.vars[i])
			i++
		case i == len(a.vars) || b.vars[j].ID < a.vars[i].ID:
			merged = append(merged, b.vars[j])
			j++
		default:
			merged = append(merged, a.vars[i])
			i, j = i+1, j+1
		}
	}
	k.vars = merged
	return k.intern(merged)
}

// bindingsOf returns what store binds s's variables to, computed once per
// Subst call gen.
func (k *keeper) bindingsOf(s *varSet, store *Store, gen uint32) *bindings {
	if s.gen == gen {
		return s.cur
	}
	k.vals = k.vals[:0]
	for _, v := range s.vars {
		k.vals = append(k.vals, store.Get(v))
	}
	if s.cur == nil || !slices.Equal(s.cur.vals, k.vals) {
		s.cur = &bindings{vals: slices.Clone(k.vals)}
	}
	s.gen = gen
	return s.cur
}

func (e *Encoder) rebuild(x *smt.Term, args []*smt.Term) *smt.Term {
	c := e.ctx
	switch x.Op {
	case smt.OpBVNot:
		return c.BVNot(args[0])
	case smt.OpBVNeg:
		return c.BVNeg(args[0])
	case smt.OpBVAnd:
		return c.BVAnd(args[0], args[1])
	case smt.OpBVOr:
		return c.BVOr(args[0], args[1])
	case smt.OpBVXor:
		return c.BVXor(args[0], args[1])
	case smt.OpBVAdd:
		return c.BVAdd(args[0], args[1])
	case smt.OpBVSub:
		return c.BVSub(args[0], args[1])
	case smt.OpBVMul:
		return c.BVMul(args[0], args[1])
	case smt.OpBVShl:
		return c.BVShl(args[0], args[1])
	case smt.OpBVLshr:
		return c.BVLshr(args[0], args[1])
	case smt.OpBVConcat:
		return c.Concat(args[0], args[1])
	case smt.OpBVExtract:
		return c.Extract(args[0], x.Hi, x.Lo)
	case smt.OpBVIte:
		return c.Ite(args[0], args[1], args[2])
	case smt.OpNot:
		return c.Not(args[0])
	case smt.OpAnd:
		return c.And(args[0], args[1])
	case smt.OpOr:
		return c.Or(args[0], args[1])
	case smt.OpImplies:
		return c.Implies(args[0], args[1])
	case smt.OpIff:
		return c.Iff(args[0], args[1])
	case smt.OpEq:
		return c.Eq(args[0], args[1])
	case smt.OpUlt:
		return c.Ult(args[0], args[1])
	case smt.OpUle:
		return c.Ule(args[0], args[1])
	case smt.OpBoolIte:
		return c.BoolIte(args[0], args[1], args[2])
	default:
		panic(fmt.Sprintf("gcl: rebuild: unexpected op %d", x.Op))
	}
}

// Encode produces the verification conditions of s starting from the given
// store (nil means all variables start symbolic).
func (e *Encoder) Encode(s Stmt, init *Store) *Result {
	if init == nil {
		init = NewStore()
	}
	st := init.clone()
	res := &Result{Store: st}
	path := e.encode(s, st, e.ctx.True(), res)
	res.Path = path
	return res
}

// encode walks s updating store in place and returns the new path
// condition.
func (e *Encoder) encode(s Stmt, store *Store, path *smt.Term, res *Result) *smt.Term {
	c := e.ctx
	switch x := s.(type) {
	case nil, *Skip:
		return path
	case *Assign:
		store.Set(x.Var.Name, e.Subst(x.Rhs, store))
		return path
	case *Havoc:
		var w int
		if !x.Var.IsBool() {
			w = x.Var.Width
		}
		store.Set(x.Var.Name, e.FreshVar("havoc$"+x.Var.Name, w))
		return path
	case *Assume:
		return c.And(path, e.Subst(x.Cond, store))
	case *Assert:
		check := e.Subst(x.Cond, store)
		res.Violations = append(res.Violations, &Violation{
			Label: x.Label,
			Cond:  c.And(path, c.Not(check)),
			Meta:  x.Meta,
			Reach: path,
			Check: check,
		})
		return path
	case *Seq:
		for _, st := range x.Stmts {
			path = e.encode(st, store, path, res)
		}
		return path
	case *If:
		cond := e.Subst(x.Cond, store)
		thenStore := store.clone()
		elseStore := store.clone()
		thenPath := e.encode(x.Then, thenStore, c.And(path, cond), res)
		elsePath := path
		if x.Else != nil {
			elsePath = e.encode(x.Else, elseStore, c.And(path, c.Not(cond)), res)
		} else {
			elsePath = c.And(path, c.Not(cond))
		}
		e.merge(store, cond, thenStore, elseStore)
		return c.Or(thenPath, elsePath)
	case *Choice:
		b := e.FreshVar("choice", 0)
		aStore := store.clone()
		bStore := store.clone()
		aPath := e.encode(x.A, aStore, c.And(path, b), res)
		bPath := e.encode(x.B, bStore, c.And(path, c.Not(b)), res)
		e.merge(store, b, aStore, bStore)
		return c.Or(aPath, bPath)
	case *While:
		// Bounded unrolling; beyond the bound the condition is assumed
		// false (bounded verification).
		var unrolled Stmt = &Assume{Cond: c.Not(x.Cond)}
		for i := 0; i < x.Bound; i++ {
			unrolled = &If{Cond: x.Cond, Then: NewSeq(x.Body, unrolled), Else: &Skip{}}
		}
		return e.encode(unrolled, store, path, res)
	default:
		panic(fmt.Sprintf("gcl: encode: unknown statement %T", s))
	}
}

// merge writes ite(cond, a, b) for every variable that differs between the
// two branch stores. The merged names are visited in sorted order: term
// construction order assigns term IDs, and commutative constructors
// canonicalize operands by ID, so iterating the name set in map order
// would make the VC's shape — and with it the SAT variable order and the
// particular model found for multi-model assertions — vary from run to
// run.
func (e *Encoder) merge(store *Store, cond *smt.Term, a, b *Store) {
	// a and b are clones of store, so all three share one name table; the
	// table's precomputed lexicographic order replaces the per-join sort,
	// and bindings are read and written by id, not by name.
	tbl := a.tbl
	for _, id := range tbl.sorted {
		av, bv := a.at(id), b.at(id)
		aok, bok := av != nil, bv != nil
		switch {
		case aok && bok:
			if av == bv {
				store.setID(id, av)
			} else if av.IsBool() {
				store.setID(id, e.ctx.BoolIte(cond, av, bv))
			} else {
				store.setID(id, e.ctx.Ite(cond, av, bv))
			}
		case aok:
			// Variable assigned only in the then-branch; the else value is
			// its prior value (or the symbolic initial value).
			prior := priorValue(store, e.ctx, id, av)
			if av == prior {
				store.setID(id, av)
			} else if av.IsBool() {
				store.setID(id, e.ctx.BoolIte(cond, av, prior))
			} else {
				store.setID(id, e.ctx.Ite(cond, av, prior))
			}
		case bok:
			prior := priorValue(store, e.ctx, id, bv)
			if bv == prior {
				store.setID(id, bv)
			} else if bv.IsBool() {
				store.setID(id, e.ctx.BoolIte(cond, prior, bv))
			} else {
				store.setID(id, e.ctx.Ite(cond, prior, bv))
			}
		}
	}
}

// priorValue is the value store binds to name id, or else the name's
// initial symbolic value: a variable term of like's sort.
func priorValue(store *Store, ctx *smt.Ctx, id int, like *smt.Term) *smt.Term {
	if v := store.at(id); v != nil {
		return v
	}
	name := store.tbl.names[id]
	if like.IsBool() {
		return ctx.BoolVar(name)
	}
	return ctx.Var(name, like.Width)
}
