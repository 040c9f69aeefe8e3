package smt

import (
	"fmt"
	"math/big"
	"slices"
	"sort"
	"sync"
	"testing"
)

// TestInterningStructKeys pins the hash-consing contract of the
// struct-keyed intern table: structurally equal terms are pointer-equal,
// including wide (>64-bit) constants that take the hex-string key path.
func TestInterningStructKeys(t *testing.T) {
	c := NewCtx()
	x := c.Var("x", 32)
	y := c.Var("y", 32)
	if c.Var("x", 32) != x {
		t.Fatal("variable re-construction not interned")
	}
	if c.BVAdd(x, y) != c.BVAdd(x, y) {
		t.Fatal("BVAdd not interned")
	}
	if c.BVAdd(x, y) != c.BVAdd(y, x) {
		t.Fatal("commutative arguments not canonicalized")
	}
	if c.BVSub(x, y) == c.BVSub(y, x) {
		t.Fatal("distinct argument orders must not collide")
	}
	if c.BV(7, 32) != c.BV(7, 32) {
		t.Fatal("small constant not interned")
	}
	if c.BV(7, 32) == c.BV(7, 16) {
		t.Fatal("same value at different widths must not collide")
	}
	wide := new(big.Int).Lsh(big.NewInt(1), 100)
	w1 := c.BVBig(wide, 128)
	if c.BVBig(new(big.Int).Lsh(big.NewInt(1), 100), 128) != w1 {
		t.Fatal("wide constant not interned")
	}
	lo := c.BV(1<<40, 128)
	if lo == w1 {
		t.Fatal("wide and narrow values must not collide")
	}
	if c.Extract(x, 15, 8) != c.Extract(x, 15, 8) {
		t.Fatal("Extract not interned")
	}
	if c.Extract(x, 15, 8) == c.Extract(x, 15, 0) {
		t.Fatal("distinct extract ranges must not collide")
	}
}

// TestFrozenCtxConcurrentUse is the parallel engine's safety contract: a
// frozen context may be used by many goroutines at once — solving over
// the shared DAG and even (stray) term creation, which serializes on the
// intern lock. Run under -race to make the claim meaningful.
func TestFrozenCtxConcurrentUse(t *testing.T) {
	c := NewCtx()
	x := c.Var("x", 16)
	y := c.Var("y", 16)
	sum := c.BVAdd(x, y)
	queries := []*Term{
		c.Eq(sum, c.BV(300, 16)),
		c.Eq(c.BVXor(x, y), c.BV(0xff, 16)),
		c.Not(c.Eq(x, y)),
		c.Eq(c.BVAnd(x, y), c.BV(0, 16)),
	}
	c.Freeze()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := queries[g%len(queries)]
			s := NewSolver(c)
			if st := s.Check(q); st != Sat {
				t.Errorf("goroutine %d: status %v, want Sat", g, st)
				return
			}
			m := s.Model()
			s.ModelCollect(m, q)
			if !m.Bool(q) {
				t.Errorf("goroutine %d: model does not satisfy query", g)
			}
			// Stray interning after Freeze must serialize, not race.
			_ = c.BVAdd(x, c.BV(uint64(g), 16))
		}(g)
	}
	wg.Wait()
}

// varsByMap is the map-visited walk Vars used before its stamped walk:
// the reference its output must equal, order included.
func varsByMap(t *Term) []*Term {
	seen := map[int]bool{t.ID: true}
	var out []*Term
	stack := []*Term{t}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x.Op == OpBVVar || x.Op == OpBoolVar {
			out = append(out, x)
			continue
		}
		for _, a := range x.Args {
			if !seen[a.ID] {
				seen[a.ID] = true
				stack = append(stack, a)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// varsTerms builds terms sharing subterms in a DAG, over variables
// created between them so term IDs interleave.
func varsTerms(c *Ctx) []*Term {
	var ts []*Term
	acc := c.Var("v0", 8)
	for i := 1; i < 40; i++ {
		v := c.Var(fmt.Sprintf("v%d", i), 8)
		acc = c.BVAdd(acc, c.BVXor(v, c.BV(uint64(i), 8)))
		b := c.BoolVar(fmt.Sprintf("b%d", i%7))
		ts = append(ts, c.Or(b, c.Eq(acc, v)), acc, v)
	}
	ts = append(ts, c.True(), c.And(ts[0], ts[len(ts)-3]))
	return ts
}

// TestVarsStampedWalk pins Vars' output to the map-visited walk it
// replaced (same variables, same order) across many calls on one pooled
// walker, across an epoch wrap, and on a frozen context shared by
// concurrent callers (run under -race).
func TestVarsStampedWalk(t *testing.T) {
	c := NewCtx()
	ts := varsTerms(c)
	check := func(step string) {
		t.Helper()
		for i, x := range ts {
			if got, want := Vars(x), varsByMap(x); !slices.Equal(got, want) {
				t.Fatalf("%s: term %d: Vars = %v, want %v", step, i, got, want)
			}
		}
	}
	check("fresh")
	check("repeated")

	// Across an epoch wrap a stale stamp must not read as visited: the
	// first walk stamps epoch 1, and the wrapped one restarts at 1.
	w := new(termWalk)
	w.begin()
	for _, x := range ts {
		w.visit(x)
	}
	w.epoch = ^uint32(0)
	w.begin()
	for i, x := range ts {
		if !w.visit(x) {
			t.Fatalf("epoch wrap: term %d reads as visited in a new walk", i)
		}
	}

	c.Freeze()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				for i, x := range ts {
					if got, want := Vars(x), varsByMap(x); !slices.Equal(got, want) {
						t.Errorf("concurrent: term %d: Vars = %v, want %v", i, got, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
