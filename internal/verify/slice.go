package verify

import (
	"aquila/internal/gcl"
	"aquila/internal/smt"
)

// slicer computes per-assertion cone-of-influence slices of violation
// conditions. A violation condition is And(path, Not(check)): the path
// condition conjoins constraints from the whole pipeline, but only the
// conjuncts whose free variables (transitively) reach the checked condition
// can influence its truth.
//
// The VC generator wraps every control-flow merge as
// Or(And(prefix, c, ...), And(prefix, !c, ...)), so a naive flattening of
// the top-level And sees one opaque Or blob containing everything. The
// slicer therefore first FACTORS the condition: conjuncts common to every
// disjunct of an Or are pulled out (reverse distributivity, an
// equivalence), which unwinds each sequential merge into its shared prefix
// conjuncts plus one branch-local residual. On the factored conjunct list
// it seeds a variable set from the assertion's check term, closes it over
// variable-sharing conjuncts, and drops the rest.
//
// Soundness: factoring is an equivalence, and the kept conjunction K and
// the dropped remainder D have disjoint variable supports by construction,
// so Sat(K and D) implies Sat(K) — an Unsat slice proves the full
// condition Unsat (the assertion holds). The converse does not hold: D
// alone may be unsatisfiable (e.g. unreachable-branch constraints), so a
// Sat slice must be confirmed on the full condition before reporting a
// violation. The check drivers do that with a plain fresh solver, which
// also keeps counterexample models byte-identical to the unsliced
// baseline.
//
// Factorizations and per-conjunct variable supports are memoized by term
// ID: assertions in one program share long path prefixes in the
// hash-consed DAG, so most of the work is done once and reused across
// every assertion.
type slicer struct {
	ctx     *smt.Ctx
	memo    map[int][]*smt.Term // term ID -> equivalent conjunct list
	support map[int][]int       // conjunct term ID -> free-variable term IDs

	// journal records every key inserted into memo or support, in insertion
	// order, so the streaming engine's purge can find (and drop) exactly the
	// entries that reference terms past its arena watermark without scanning
	// the whole maps.
	journal []int

	// Conjuncts and Dropped total the factored conjuncts seen and removed
	// across all sliced assertions.
	Conjuncts int64
	Dropped   int64
}

func newSlicer(ctx *smt.Ctx) *slicer {
	return &slicer{ctx: ctx, memo: map[int][]*smt.Term{}, support: map[int][]int{}}
}

// sliceOne returns the cone-of-influence slice of v's condition and
// records the assertion's slice-drop ratio in the run histograms.
func (rep *Report) sliceOne(sl *slicer, v *gcl.Violation) *smt.Term {
	c0, d0 := sl.Conjuncts, sl.Dropped
	t := sl.slice(v)
	rep.hists.observeSlice(sl.Conjuncts-c0, sl.Dropped-d0)
	return t
}

// flattenAnd splits t's And-tree into its non-And leaves, left to right.
// A non-And term is its own single leaf.
func flattenAnd(t *smt.Term) []*smt.Term {
	if t.Op != smt.OpAnd {
		return []*smt.Term{t}
	}
	var out []*smt.Term
	stack := []*smt.Term{t}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x.Op == smt.OpAnd {
			for i := len(x.Args) - 1; i >= 0; i-- {
				stack = append(stack, x.Args[i])
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

// conjuncts returns a list of terms whose conjunction is equivalent to t,
// factoring shared conjuncts out of disjunctions. Memoized by term ID.
func (sl *slicer) conjuncts(t *smt.Term) []*smt.Term {
	if cs, ok := sl.memo[t.ID]; ok {
		return cs
	}
	var out []*smt.Term
	switch {
	case t.Op == smt.OpAnd:
		seen := map[int]bool{}
		for _, a := range t.Args {
			for _, c := range sl.conjuncts(a) {
				if !seen[c.ID] {
					seen[c.ID] = true
					out = append(out, c)
				}
			}
		}
	case t.Op == smt.OpOr:
		out = sl.factorDisjunction(t, t.Args)
	case t.Op == smt.OpNot && t.Args[0].Op == smt.OpAnd:
		// The term constructors build Or(a, b) as Not(And(Not(a), Not(b))),
		// so this shape IS a disjunction; recover the disjuncts (Not folds
		// double negation).
		inner := flattenAnd(t.Args[0])
		disj := make([]*smt.Term, len(inner))
		for i, a := range inner {
			disj[i] = sl.ctx.Not(a)
		}
		out = sl.factorDisjunction(t, disj)
	default:
		out = []*smt.Term{t}
	}
	sl.memo[t.ID] = out
	sl.journal = append(sl.journal, t.ID)
	return out
}

// purge drops memoized entries that are keyed by — or whose values
// reference — terms at or past the arena watermark mark, before the
// streaming engine releases those terms (term IDs are reused afterwards,
// so a stale entry would alias a future term). Entries whose key and
// values all predate the watermark survive: the watermark never moves
// during a streaming run, so the shared-prefix factorizations that make
// slicing cheap stay memoized across every assertion.
func (sl *slicer) purge(mark int) {
	keep := sl.journal[:0]
	for _, k := range sl.journal {
		stale := k >= mark
		if !stale {
			for _, c := range sl.memo[k] {
				if c.ID >= mark {
					stale = true
					break
				}
			}
		}
		if !stale {
			for _, id := range sl.support[k] {
				if id >= mark {
					stale = true
					break
				}
			}
		}
		if stale {
			delete(sl.memo, k)
			delete(sl.support, k)
		} else {
			keep = append(keep, k)
		}
	}
	sl.journal = keep
}

// factorDisjunction factors the conjuncts common to every disjunct out of
// the disjunction t: Or(And(C, A...), And(C, B...)) is equivalent to
// And(C, Or(And(A...), And(B...))). With no common conjunct t itself is
// the single conjunct.
func (sl *slicer) factorDisjunction(t *smt.Term, disj []*smt.Term) []*smt.Term {
	lists := make([][]*smt.Term, len(disj))
	count := map[int]int{}
	for i, d := range disj {
		lists[i] = sl.conjuncts(d)
		inThis := map[int]bool{}
		for _, c := range lists[i] {
			if !inThis[c.ID] {
				inThis[c.ID] = true
				count[c.ID]++
			}
		}
	}
	commonSet := map[int]bool{}
	var common []*smt.Term
	for _, c := range lists[0] {
		if count[c.ID] == len(lists) && !commonSet[c.ID] {
			commonSet[c.ID] = true
			common = append(common, c)
		}
	}
	if len(common) == 0 {
		return []*smt.Term{t}
	}
	rests := make([]*smt.Term, len(lists))
	for i, l := range lists {
		var rest []*smt.Term
		for _, c := range l {
			if !commonSet[c.ID] {
				rest = append(rest, c)
			}
		}
		rests[i] = sl.ctx.And(rest...)
	}
	residual := sl.ctx.Or(rests...)
	// A constant-true residual vanishes; a constant-false one must stay (it
	// makes the whole conjunction false).
	if residual.Op != smt.OpBoolConst || !residual.ConstBool() {
		common = append(common, residual)
	}
	return common
}

// vars returns the IDs of t's free variables, memoized by term ID.
func (sl *slicer) vars(t *smt.Term) []int {
	if ids, ok := sl.support[t.ID]; ok {
		return ids
	}
	vs := smt.Vars(t)
	ids := make([]int, len(vs))
	for i, v := range vs {
		ids[i] = v.ID
	}
	sl.support[t.ID] = ids
	sl.journal = append(sl.journal, t.ID)
	return ids
}

// slice returns the cone-of-influence slice of v.Cond with respect to
// v.Check. When nothing can be dropped it returns v.Cond itself, so
// pointer equality against v.Cond tells the caller whether slicing did
// anything. Creates terms; must run before the context freezes.
func (sl *slicer) slice(v *gcl.Violation) *smt.Term {
	cond := v.Cond
	if v.Check == nil || cond.Op == smt.OpBoolConst {
		return cond
	}
	conjs := sl.conjuncts(cond)
	sl.Conjuncts += int64(len(conjs))
	if len(conjs) <= 1 {
		return cond
	}
	seed := smt.Vars(v.Check)
	if len(seed) == 0 {
		// A variable-free check cannot anchor a cone; keep everything.
		return cond
	}
	coi := make(map[int]bool, len(seed))
	for _, t := range seed {
		coi[t.ID] = true
	}
	supports := make([][]int, len(conjs))
	for i, c := range conjs {
		supports[i] = sl.vars(c)
	}
	kept := make([]bool, len(conjs))
	keptCount := 0
	// Fixpoint: a conjunct sharing a variable with the cone joins it and
	// contributes its own variables. Another sweep is needed only when the
	// cone grew (keeping a conjunct without new variables cannot enable
	// anything else).
	for changed := true; changed; {
		changed = false
		for i, sup := range supports {
			if kept[i] {
				continue
			}
			// A conjunct with no free variables is a constant the term
			// constructors did not fold; dropping a potential `false` would
			// be unsound, so keep it.
			touches := len(sup) == 0
			for _, id := range sup {
				if coi[id] {
					touches = true
					break
				}
			}
			if !touches {
				continue
			}
			kept[i] = true
			keptCount++
			for _, id := range sup {
				if !coi[id] {
					coi[id] = true
					changed = true
				}
			}
		}
	}
	if keptCount == len(conjs) {
		return cond
	}
	sl.Dropped += int64(len(conjs) - keptCount)
	keptTerms := make([]*smt.Term, 0, keptCount)
	for i, c := range conjs {
		if kept[i] {
			keptTerms = append(keptTerms, c)
		}
	}
	// Rebuild with the variadic constructor so the slice gets the same
	// balanced And shape (and blasting depth) a generated condition has.
	return sl.ctx.And(keptTerms...)
}
