package smt

import (
	"fmt"
	"sync"

	"aquila/internal/sat"
)

// blaster lowers hash-consed terms to CNF over a sat.Solver via Tseitin
// encoding. Caching is per-term (the term DAG is already maximally shared
// by hash-consing), so every subterm is encoded at most once.
//
// The blaster never reads SAT assignments, only literal identities, so it
// numbers fresh variables itself and records them and its clauses in a
// sat.ClauseLog; flush loads the log with one AddClauses call, which sizes
// the solver for the whole term at once. Every Solver method that blasts
// flushes before it returns or touches the SAT core, so the buffering is
// invisible: the solver sees the same calls in the same order.
type blaster struct {
	sat     *sat.Solver
	log     *sat.ClauseLog // nil when nothing is pending; from clauseLogs
	cache   termCache
	litTrue sat.Lit

	// Instrumentation (plain fields: a blaster is single-goroutine).
	// cacheHits/cacheMisses count bv()/boolLit() lookups against the
	// per-term caches; clausesEmitted counts Tseitin clauses handed to the
	// SAT solver (>= retained clauses, which drop satisfied/tautological
	// ones).
	cacheHits      int64
	cacheMisses    int64
	clausesEmitted int64
}

// clauseLogs pools clause logs across solvers: a log grows to the size of
// the largest term blasted, and fresh per-check solvers would otherwise
// regrow one each.
var clauseLogs = sync.Pool{New: func() any { return new(sat.ClauseLog) }}

// pending returns the clause log, taking one from the pool if none is
// pending.
func (b *blaster) pending() *sat.ClauseLog {
	if b.log == nil {
		b.log = clauseLogs.Get().(*sat.ClauseLog)
	}
	return b.log
}

// addClause logs a Tseitin clause, counting emissions.
func (b *blaster) addClause(lits ...sat.Lit) {
	b.clausesEmitted++
	b.pending().AddClause(lits...)
}

// flush loads the pending log into the SAT solver and returns it to the
// pool.
func (b *blaster) flush() {
	if b.log == nil {
		return
	}
	b.sat.AddClauses(b.log)
	clauseLogs.Put(b.log)
	b.log = nil
}

func newBlaster(s *sat.Solver) *blaster {
	b := &blaster{sat: s}
	v := s.NewVar()
	b.litTrue = sat.MkLit(v, false)
	s.AddClause(b.litTrue)
	return b
}

func (b *blaster) litFalse() sat.Lit { return b.litTrue.Not() }

// termCache holds the literals of blasted terms in pointer-free arrays
// indexed by term ID, which the garbage collector never scans. bvAt[id]
// is 1 + the offset of the term's bits in bvBits (Width literals),
// boolAt[id] is 1 + the term's literal, and 0 marks a term not blasted
// yet.
type termCache struct {
	bvAt   []uint32
	bvBits []sat.Lit
	boolAt []sat.Lit
}

// fitID returns idx with room for index id, doubling when it must grow.
func fitID[T uint32 | sat.Lit](idx []T, id int) []T {
	if id < len(idx) {
		return idx
	}
	n := make([]T, max(id+1, 2*len(idx), 1024))
	copy(n, idx)
	return n
}

// bv returns the bits of t if t has been blasted. The view is read-only
// and stays valid: bvBits only grows.
func (c *termCache) bv(t *Term) ([]sat.Lit, bool) {
	if t.ID >= len(c.bvAt) || c.bvAt[t.ID] == 0 {
		return nil, false
	}
	off := int(c.bvAt[t.ID] - 1)
	return c.bvBits[off : off+t.Width : off+t.Width], true
}

// bool returns the literal of t if t has been blasted.
func (c *termCache) bool(t *Term) (sat.Lit, bool) {
	if t.ID >= len(c.boolAt) || c.boolAt[t.ID] == 0 {
		return 0, false
	}
	return c.boolAt[t.ID] - 1, true
}

func (c *termCache) setBV(t *Term, bits []sat.Lit) {
	c.bvAt = fitID(c.bvAt, t.ID)
	c.bvAt[t.ID] = uint32(len(c.bvBits) + 1)
	c.bvBits = append(c.bvBits, bits...)
}

func (c *termCache) setBool(t *Term, l sat.Lit) {
	c.boolAt = fitID(c.boolAt, t.ID)
	c.boolAt[t.ID] = l + 1
}

func (b *blaster) fresh() sat.Lit { return sat.MkLit(b.pending().NewVar(b.sat), false) }

func (b *blaster) isTrue(l sat.Lit) bool  { return l == b.litTrue }
func (b *blaster) isFalse(l sat.Lit) bool { return l == b.litFalse() }

// and returns a literal equivalent to x & y.
func (b *blaster) and(x, y sat.Lit) sat.Lit {
	switch {
	case b.isFalse(x) || b.isFalse(y):
		return b.litFalse()
	case b.isTrue(x):
		return y
	case b.isTrue(y):
		return x
	case x == y:
		return x
	case x == y.Not():
		return b.litFalse()
	}
	o := b.fresh()
	b.addClause(o.Not(), x)
	b.addClause(o.Not(), y)
	b.addClause(o, x.Not(), y.Not())
	return o
}

func (b *blaster) or(x, y sat.Lit) sat.Lit { return b.and(x.Not(), y.Not()).Not() }

// xor returns a literal equivalent to x ^ y.
func (b *blaster) xor(x, y sat.Lit) sat.Lit {
	switch {
	case b.isFalse(x):
		return y
	case b.isFalse(y):
		return x
	case b.isTrue(x):
		return y.Not()
	case b.isTrue(y):
		return x.Not()
	case x == y:
		return b.litFalse()
	case x == y.Not():
		return b.litTrue
	}
	o := b.fresh()
	b.addClause(o.Not(), x, y)
	b.addClause(o.Not(), x.Not(), y.Not())
	b.addClause(o, x.Not(), y)
	b.addClause(o, x, y.Not())
	return o
}

// mux returns a literal equivalent to c ? x : y.
func (b *blaster) mux(c, x, y sat.Lit) sat.Lit {
	switch {
	case b.isTrue(c):
		return x
	case b.isFalse(c):
		return y
	case x == y:
		return x
	}
	if b.isTrue(x) {
		return b.or(c, y)
	}
	if b.isFalse(x) {
		return b.and(c.Not(), y)
	}
	if b.isTrue(y) {
		return b.or(c.Not(), x)
	}
	if b.isFalse(y) {
		return b.and(c, x)
	}
	o := b.fresh()
	b.addClause(c.Not(), x.Not(), o)
	b.addClause(c.Not(), x, o.Not())
	b.addClause(c, y.Not(), o)
	b.addClause(c, y, o.Not())
	return o
}

// fullAdder returns (sum, carry) of x+y+cin.
func (b *blaster) fullAdder(x, y, cin sat.Lit) (sum, cout sat.Lit) {
	xy := b.xor(x, y)
	sum = b.xor(xy, cin)
	cout = b.or(b.and(x, y), b.and(cin, xy))
	return sum, cout
}

// bv blasts a bit-vector term into its literal vector, LSB first.
func (b *blaster) bv(t *Term) []sat.Lit {
	if got, ok := b.cache.bv(t); ok {
		b.cacheHits++
		return got
	}
	b.cacheMisses++
	var out []sat.Lit
	switch t.Op {
	case OpBVConst:
		out = make([]sat.Lit, t.Width)
		for i := 0; i < t.Width; i++ {
			if t.Val.Bit(i) == 1 {
				out[i] = b.litTrue
			} else {
				out[i] = b.litFalse()
			}
		}
	case OpBVVar:
		out = make([]sat.Lit, t.Width)
		for i := range out {
			out[i] = b.fresh()
		}
	case OpBVNot:
		a := b.bv(t.Args[0])
		out = make([]sat.Lit, t.Width)
		for i := range out {
			out[i] = a[i].Not()
		}
	case OpBVNeg:
		// -a == ~a + 1
		a := b.bv(t.Args[0])
		out = make([]sat.Lit, t.Width)
		carry := b.litTrue
		for i := range out {
			out[i], carry = b.fullAdder(a[i].Not(), b.litFalse(), carry)
		}
	case OpBVAnd, OpBVOr, OpBVXor:
		x := b.bv(t.Args[0])
		y := b.bv(t.Args[1])
		out = make([]sat.Lit, t.Width)
		for i := range out {
			switch t.Op {
			case OpBVAnd:
				out[i] = b.and(x[i], y[i])
			case OpBVOr:
				out[i] = b.or(x[i], y[i])
			default:
				out[i] = b.xor(x[i], y[i])
			}
		}
	case OpBVAdd, OpBVSub:
		x := b.bv(t.Args[0])
		y := b.bv(t.Args[1])
		out = make([]sat.Lit, t.Width)
		var carry sat.Lit
		if t.Op == OpBVAdd {
			carry = b.litFalse()
		} else {
			carry = b.litTrue // a - b == a + ~b + 1
		}
		for i := range out {
			yi := y[i]
			if t.Op == OpBVSub {
				yi = yi.Not()
			}
			out[i], carry = b.fullAdder(x[i], yi, carry)
		}
	case OpBVMul:
		x := b.bv(t.Args[0])
		y := b.bv(t.Args[1])
		w := t.Width
		acc := make([]sat.Lit, w)
		for i := range acc {
			acc[i] = b.litFalse()
		}
		for i := 0; i < w; i++ {
			// acc += (y[i] ? x << i : 0)
			carry := b.litFalse()
			for j := i; j < w; j++ {
				bit := b.and(y[i], x[j-i])
				acc[j], carry = b.fullAdder(acc[j], bit, carry)
			}
		}
		out = acc
	case OpBVShl, OpBVLshr:
		x := b.bv(t.Args[0])
		sh := b.bv(t.Args[1])
		out = b.barrelShift(x, sh, t.Op == OpBVShl)
	case OpBVConcat:
		hi := b.bv(t.Args[0])
		lo := b.bv(t.Args[1])
		out = make([]sat.Lit, 0, t.Width)
		out = append(out, lo...)
		out = append(out, hi...)
	case OpBVExtract:
		a := b.bv(t.Args[0])
		out = a[t.Lo : t.Hi+1] // stored by copy below
	case OpBVIte:
		c := b.boolLit(t.Args[0])
		x := b.bv(t.Args[1])
		y := b.bv(t.Args[2])
		out = make([]sat.Lit, t.Width)
		for i := range out {
			out[i] = b.mux(c, x[i], y[i])
		}
	default:
		panic(fmt.Sprintf("smt: blast: not a bit-vector op: %v", opNames[t.Op]))
	}
	b.cache.setBV(t, out)
	return out
}

// barrelShift shifts x by the amount encoded in sh; left when isLeft.
// Amounts >= len(x) produce zero.
func (b *blaster) barrelShift(x []sat.Lit, sh []sat.Lit, isLeft bool) []sat.Lit {
	w := len(x)
	cur := append([]sat.Lit(nil), x...)
	stages := 0
	for 1<<stages < w {
		stages++
	}
	for s := 0; s < stages && s < len(sh); s++ {
		amt := 1 << s
		next := make([]sat.Lit, w)
		for i := 0; i < w; i++ {
			var shifted sat.Lit
			if isLeft {
				if i-amt >= 0 {
					shifted = cur[i-amt]
				} else {
					shifted = b.litFalse()
				}
			} else {
				if i+amt < w {
					shifted = cur[i+amt]
				} else {
					shifted = b.litFalse()
				}
			}
			next[i] = b.mux(sh[s], shifted, cur[i])
		}
		cur = next
	}
	// Any shift bit at or above 'stages' zeroes the result.
	overflow := b.litFalse()
	for s := stages; s < len(sh); s++ {
		overflow = b.or(overflow, sh[s])
	}
	if !b.isFalse(overflow) {
		for i := range cur {
			cur[i] = b.and(cur[i], overflow.Not())
		}
	}
	return cur
}

// boolLit blasts a boolean term into a single literal.
func (b *blaster) boolLit(t *Term) sat.Lit {
	if got, ok := b.cache.bool(t); ok {
		b.cacheHits++
		return got
	}
	b.cacheMisses++
	var out sat.Lit
	switch t.Op {
	case OpBoolConst:
		if t.ConstBool() {
			out = b.litTrue
		} else {
			out = b.litFalse()
		}
	case OpBoolVar:
		out = b.fresh()
	case OpNot:
		out = b.boolLit(t.Args[0]).Not()
	case OpAnd:
		out = b.and(b.boolLit(t.Args[0]), b.boolLit(t.Args[1]))
	case OpOr:
		out = b.or(b.boolLit(t.Args[0]), b.boolLit(t.Args[1]))
	case OpImplies:
		out = b.or(b.boolLit(t.Args[0]).Not(), b.boolLit(t.Args[1]))
	case OpIff:
		out = b.xor(b.boolLit(t.Args[0]), b.boolLit(t.Args[1])).Not()
	case OpBoolIte:
		out = b.mux(b.boolLit(t.Args[0]), b.boolLit(t.Args[1]), b.boolLit(t.Args[2]))
	case OpEq:
		x := b.bv(t.Args[0])
		y := b.bv(t.Args[1])
		out = b.litTrue
		for i := range x {
			out = b.and(out, b.xor(x[i], y[i]).Not())
		}
	case OpUlt, OpUle:
		x := b.bv(t.Args[0])
		y := b.bv(t.Args[1])
		// Process LSB to MSB; higher bits dominate.
		var lt sat.Lit
		if t.Op == OpUlt {
			lt = b.litFalse()
		} else {
			lt = b.litTrue // a <= b starts from equality counting as true
		}
		for i := 0; i < len(x); i++ {
			eq := b.xor(x[i], y[i]).Not()
			bi := b.and(x[i].Not(), y[i])
			lt = b.mux(eq, lt, bi)
		}
		out = lt
	default:
		panic(fmt.Sprintf("smt: blast: not a boolean op: %v", opNames[t.Op]))
	}
	b.cache.setBool(t, out)
	return out
}
