package sat

// SatELite-style CNF preprocessing (Eén & Biere, SAT 2005): occurrence-list
// backward subsumption, self-subsuming resolution, and bounded variable
// elimination (BVE) with a clause-growth cutoff, plus level-0 unit and
// pure-literal simplification (the latter falls out of BVE as the
// zero-resolvent case). All of it is model-reconstructing: every eliminated
// variable records its original clauses on an elimination stack, and after
// a Sat verdict extendModel walks the stack in reverse to assign values
// that satisfy the original formula, so Model() stays exact.
//
// Incremental solving keeps working because (a) Solve freezes assumption
// variables before preprocessing — their truth varies per query, so they
// must never be resolved away — and (b) AddClause restores any eliminated
// variable the new clause mentions by re-adding its recorded clauses
// (restoreVar), which is sound: the resolvents kept in the database are
// implied by the originals, so re-adding the originals restores the exact
// original semantics.
//
// Clauses are addressed by cref into the solver's flat arena (alloc.go);
// the preprocessor shrinks and deletes them in place and compacts the
// arena afterwards. Deleting a clause, or a literal from one, is O(1) per
// literal, as in SatELite: it flags the clause or shrinks it and
// decrements the per-literal live counts, and each occurrence list drops
// its stale entries the next time it is read (live). Its occurrence lists
// and scratch buffers are pooled on the Solver (prepState), so the
// repeated rounds a long-lived incremental solver triggers re-use one
// allocation's worth of working state.

import (
	"cmp"
	"slices"
)

// elimRecord remembers the original clauses of one eliminated variable,
// flattened into one slice in which each clause is prefixed by its length
// (the arena's header-then-literals layout). clauses becomes nil once the
// variable has been restored.
type elimRecord struct {
	v       int
	clauses []Lit
}

// forEachClause calls f on every recorded clause until f returns false.
func (rec *elimRecord) forEachClause(f func([]Lit) bool) {
	for i := 0; i < len(rec.clauses); {
		n := int(rec.clauses[i])
		if !f(rec.clauses[i+1 : i+1+n]) {
			return
		}
		i += 1 + n
	}
}

const (
	// bveOccLimit skips elimination of variables occurring more often than
	// this in either polarity; resolving dense variables is quadratic in
	// the occurrence counts and rarely profitable.
	bveOccLimit = 40
	// bveClauseLimit aborts an elimination that would create a resolvent
	// longer than this.
	bveClauseLimit = 48
	// subOccLimit skips subsumption passes whose pivot literal has more
	// candidate clauses than this.
	subOccLimit = 600
	// prepDirtyMin / prepDirtyFrac gate re-preprocessing inside Solve: a
	// round runs when at least prepDirtyMin clauses arrived since the last
	// one, or when the additions are at least 1/prepDirtyFrac of the
	// database. The first blast always qualifies; the small per-check
	// activation deltas of incremental mode usually do not, so a
	// long-lived solver is not re-scrubbed on every query.
	prepDirtyMin  = 800
	prepDirtyFrac = 8
)

// testHookPreprocessRound, when set by a test, sees the preprocessor at the
// end of every round, before finish compacts the arena under its crefs.
var testHookPreprocessRound func(p *preprocessor)

// SetPreprocess enables preprocessing: Solve then runs a Preprocess round
// whenever enough clauses arrived since the previous round.
func (s *Solver) SetPreprocess(on bool) { s.prep = on }

// FreezeVar exempts v from variable elimination, restoring it first if it
// is currently eliminated. Solve freezes assumption variables
// automatically; the smt layer freezes indicator variables at creation.
func (s *Solver) FreezeVar(v int) {
	s.frozen[v] = true
	if s.elimed[v] {
		s.restoreVar(v)
	}
}

// UnfreezeVar lifts the FreezeVar exemption: v becomes eligible for
// variable elimination again in later preprocessing rounds. Unfreezing
// never changes the formula — it only widens what simplification may
// resolve away — so verdicts of subsequent checks are unaffected. If v
// later returns as an assumption or indicator, FreezeVar restores any
// elimination before it is used.
func (s *Solver) UnfreezeVar(v int) {
	if v >= 0 && v < len(s.frozen) {
		s.frozen[v] = false
	}
}

// restoreVar undoes the elimination of v by re-adding its recorded
// original clauses. AddClause re-enters restoreVar for any other
// eliminated variable those clauses mention.
func (s *Solver) restoreVar(v int) {
	idx, ok := s.elimIndex[v]
	if !ok {
		return
	}
	delete(s.elimIndex, v)
	s.elimed[v] = false
	rec := s.elimStack[idx]
	s.elimStack[idx].clauses = nil
	s.order.pushIfAbsent(s, v)
	rec.forEachClause(func(lits []Lit) bool { return s.AddClause(lits...) })
}

// extendModel assigns model values to eliminated variables, newest
// elimination first, choosing for each variable the value that satisfies
// every recorded original clause under the values fixed so far. BVE
// guarantees such a value exists: all non-tautological resolvents were
// added, so at most one polarity can have an otherwise-unsatisfied clause.
func (s *Solver) extendModel() {
	for i := len(s.elimStack) - 1; i >= 0; i-- {
		rec := &s.elimStack[i]
		if rec.clauses == nil {
			continue
		}
		val := lFalse
		rec.forEachClause(func(cl []Lit) bool {
			sat, pos := false, false
			for _, l := range cl {
				if l.Var() == rec.v {
					pos = !l.Neg()
					continue
				}
				if (s.model[l.Var()] == lTrue) != l.Neg() {
					sat = true
					break
				}
			}
			if !sat && pos {
				val = lTrue
				return false
			}
			return true
		})
		s.model[rec.v] = val
	}
}

// Preprocess runs one simplification round over the clause database at
// decision level 0: unit reduction, subsumption, self-subsuming
// resolution, then bounded variable elimination, then a final subsumption
// sweep over the resolvents. It returns false if the round proves the
// formula unsatisfiable.
func (s *Solver) Preprocess() bool {
	if !s.ok {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("sat: Preprocess above decision level 0")
	}
	if s.propagate() != crefUndef {
		s.ok = false
		return false
	}
	s.dirty = 0
	if s.prepState == nil {
		s.prepState = &preprocessor{}
	}
	p := s.prepState
	p.reset(s)
	p.build()
	if s.ok {
		p.processUnits()
	}
	if s.ok {
		p.subsume()
	}
	if s.ok {
		p.eliminate()
	}
	if s.ok {
		p.subsume()
	}
	if testHookPreprocessRound != nil {
		testHookPreprocessRound(p)
	}
	p.finish()
	if s.ok && s.propagate() != crefUndef {
		s.ok = false
	}
	return s.ok
}

// rebuildWatches reconstructs every watch list from the live clause
// database; preprocessing mutates clauses in place, so the old lists are
// stale afterwards. Truncation keeps every list's slab region, so
// re-attachment after a preprocessing round costs no fresh allocation.
func (s *Solver) rebuildWatches() {
	for i := range s.watches {
		s.watches[i].n = 0
	}
	for _, c := range s.clauses {
		s.attach(c)
	}
	for _, c := range s.learnts {
		s.attach(c)
	}
}

// preprocessor is the working state of one Preprocess round: an
// occurrence-list view of the clause database with a subsumption queue. A
// single instance is pooled on the Solver and reset between rounds, so the
// occurrence lists, queue, and scratch buffers keep their backing arrays.
//
// Occurrence lists are lazy: occ[l] holds every live clause containing l
// exactly once, plus stale entries — clauses deleted, or strengthened
// away from l, since the list was last read through live. nocc[l] is the
// exact number of live clauses containing l, which is what the heuristics
// read.
type preprocessor struct {
	s       *Solver
	cls     []cref    // live view: problem clauses then learnts, then resolvents
	occ     [][]int32 // literal -> indices into cls (may hold stale entries)
	nocc    []int32   // literal -> live clauses containing it
	sig     []uint64  // per-clause variable signature (subset prefilter)
	inQueue []bool
	queue   []int // clause indices awaiting a subsumption pass
	qhead   int   // queue[:qhead] is consumed
	units   []Lit // pending level-0 assignments
	uhead   int   // units[:uhead] is consumed

	// eliminate / tryEliminate scratch.
	elimCands []elimCand
	pos, neg  []int32
	mark      []bool  // literal -> in the resolvent being built
	res       []Lit   // resolvents, back to back
	resEnd    []int32 // end offset of each resolvent in res
}

// elimCand is a BVE candidate variable with its live occurrence count.
type elimCand struct{ v, n int32 }

// reset clears the round's state while keeping every backing array, and
// sizes the per-literal tables to the solver's current variable count.
func (p *preprocessor) reset(s *Solver) {
	p.s = s
	p.cls = p.cls[:0]
	p.sig = p.sig[:0]
	p.inQueue = p.inQueue[:0]
	p.queue, p.qhead = p.queue[:0], 0
	p.units, p.uhead = p.units[:0], 0
	for i := range p.occ {
		p.occ[i] = p.occ[i][:0]
	}
	nLits := 2 * s.NumVars()
	for len(p.occ) < nLits {
		p.occ = append(p.occ, nil)
	}
	p.occ = p.occ[:nLits]
	p.nocc = resize(p.nocc, nLits)
	p.mark = resize(p.mark, nLits)
}

// resize returns buf with length n and every element zero, reusing its
// backing array when large enough.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

func sigOf(lits []Lit) uint64 {
	var sig uint64
	for _, l := range lits {
		sig |= 1 << (uint(l.Var()) & 63)
	}
	return sig
}

func (p *preprocessor) lits(ci int) []Lit { return p.s.ca.lits(p.cls[ci]) }

func (p *preprocessor) deleted(ci int) bool { return p.s.ca.deleted(p.cls[ci]) }

// live returns l's occurrence list after dropping its stale entries. The
// list keeps its order, so repeated reads see the surviving clauses in the
// same sequence. Clauses only ever shrink, so an entry once stale stays
// stale.
func (p *preprocessor) live(l Lit) []int32 {
	list := p.occ[l]
	if len(list) == int(p.nocc[l]) {
		return list
	}
	keep := list[:0]
	for _, ci := range list {
		if !p.deleted(int(ci)) && slices.Contains(p.lits(int(ci)), l) {
			keep = append(keep, ci)
		}
	}
	p.occ[l] = keep
	return keep
}

// build folds the clause database into occurrence lists, simplifying each
// clause against the level-0 assignment on the way in (survivors are
// written over the clause's arena prefix, then the clause shrinks in
// place).
func (p *preprocessor) build() {
	s := p.s
	for _, list := range [2][]cref{s.clauses, s.learnts} {
		for _, r := range list {
			if s.ca.deleted(r) {
				continue
			}
			lits := s.ca.lits(r)
			keep, satisfied := lits[:0], false
			for _, l := range lits {
				switch s.value(l) {
				case lTrue:
					satisfied = true
				case lFalse:
					// drop
				default:
					keep = append(keep, l)
				}
				if satisfied {
					break
				}
			}
			if satisfied {
				s.ca.markDeleted(r)
				continue
			}
			if len(keep) < len(lits) {
				s.ca.shrink(r, len(keep))
			}
			switch len(keep) {
			case 0:
				s.ok = false
				return
			case 1:
				p.units = append(p.units, keep[0])
				s.ca.markDeleted(r)
				continue
			}
			p.addIndexed(r)
		}
	}
}

func (p *preprocessor) addIndexed(r cref) {
	ci := len(p.cls)
	p.cls = append(p.cls, r)
	lits := p.s.ca.lits(r)
	p.sig = append(p.sig, sigOf(lits))
	p.inQueue = append(p.inQueue, true)
	p.queue = append(p.queue, ci)
	for _, l := range lits {
		p.occ[l] = append(p.occ[l], int32(ci))
		p.nocc[l]++
	}
}

func (p *preprocessor) enqueue(ci int) {
	if !p.inQueue[ci] {
		p.inQueue[ci] = true
		p.queue = append(p.queue, ci)
	}
}

// deleteClause retires clause ci: the arena flag marks it dead and the
// live counts drop; the occurrence lists still hold it until live next
// reads them.
func (p *preprocessor) deleteClause(ci int) {
	if p.deleted(ci) {
		return
	}
	for _, l := range p.lits(ci) {
		p.nocc[l]--
	}
	p.s.ca.markDeleted(p.cls[ci])
}

// strengthen removes literal l from clause ci, which leaves a stale entry
// on l's occurrence list; a clause reduced to a unit is queued for level-0
// assignment and retired.
func (p *preprocessor) strengthen(ci int, l Lit) {
	lits := p.lits(ci)
	for i, x := range lits {
		if x == l {
			lits[i] = lits[len(lits)-1]
			lits = lits[:len(lits)-1]
			break
		}
	}
	p.s.ca.shrink(p.cls[ci], len(lits))
	p.nocc[l]--
	p.sig[ci] = sigOf(lits)
	if len(lits) == 1 {
		p.units = append(p.units, lits[0])
		p.deleteClause(ci)
		return
	}
	p.enqueue(ci)
}

// processUnits drains pending level-0 assignments against the occurrence
// lists: satisfied clauses are deleted, falsified literals removed.
func (p *preprocessor) processUnits() bool {
	s := p.s
	for p.uhead < len(p.units) {
		l := p.units[p.uhead]
		p.uhead++
		switch s.value(l) {
		case lTrue:
			continue
		case lFalse:
			s.ok = false
			return false
		}
		s.uncheckedEnqueue(l, crefUndef)
		for _, ci := range p.live(l) {
			p.deleteClause(int(ci))
		}
		p.occ[l] = p.occ[l][:0]
		for _, ci := range p.live(l.Not()) {
			p.strengthen(int(ci), l.Not())
		}
		p.occ[l.Not()] = p.occ[l.Not()][:0]
	}
	p.units, p.uhead = p.units[:0], 0
	return true
}

// subsumes reports whether clause a subsumes b, allowing at most one
// flipped literal (self-subsuming resolution). The returned literal is the
// one to remove from b, or -1 for plain subsumption.
func subsumes(a, b []Lit) (Lit, bool) {
	flip := Lit(-1)
nextLit:
	for _, la := range a {
		for _, lb := range b {
			if lb == la {
				continue nextLit
			}
		}
		if flip != -1 {
			return -1, false
		}
		for _, lb := range b {
			if lb == la.Not() {
				flip = lb
				continue nextLit
			}
		}
		return -1, false
	}
	return flip, true
}

// subsume drains the queue: each clause checks the candidates sharing its
// cheapest literal for backward subsumption and self-subsuming resolution.
func (p *preprocessor) subsume() {
	s := p.s
	for p.qhead < len(p.queue) && s.ok {
		ci := p.queue[p.qhead]
		p.qhead++
		p.inQueue[ci] = false
		if p.deleted(ci) {
			continue
		}
		// Pivot on the literal with the fewest candidates across both
		// polarities; a flip on any other literal still leaves the pivot
		// itself in the candidate clause.
		var pivot Lit = -1
		bestN := int32(0)
		for _, l := range p.lits(ci) {
			n := p.nocc[l] + p.nocc[l.Not()]
			if pivot == -1 || n < bestN {
				pivot, bestN = l, n
			}
		}
		if bestN > subOccLimit {
			continue
		}
		p.subsumeWith(ci, pivot)
		p.subsumeWith(ci, pivot.Not())
		if len(p.units) > 0 && !p.processUnits() {
			return
		}
	}
	p.queue, p.qhead = p.queue[:0], 0
}

func (p *preprocessor) subsumeWith(ci int, l Lit) {
	// deleteClause and strengthen leave the list itself alone, so it can
	// be walked in place.
	for _, cj32 := range p.live(l) {
		cj := int(cj32)
		if p.deleted(ci) {
			return
		}
		if cj == ci || p.deleted(cj) {
			continue
		}
		clits := p.lits(ci)
		dlits := p.lits(cj)
		if len(dlits) < len(clits) {
			continue
		}
		if p.sig[ci]&^p.sig[cj] != 0 {
			continue
		}
		flip, ok := subsumes(clits, dlits)
		if !ok {
			continue
		}
		if flip == -1 {
			// ci subsumes cj. If a learnt clause subsumes a problem clause
			// it must be promoted, or database reduction could later evict
			// the only remaining form of the constraint.
			if p.s.ca.learnt(p.cls[ci]) && !p.s.ca.learnt(p.cls[cj]) {
				p.s.ca.demote(p.cls[ci])
			}
			p.s.SubsumedClauses++
			p.deleteClause(cj)
			continue
		}
		p.s.StrengthenedClauses++
		p.strengthen(cj, flip)
	}
}

// eliminate attempts bounded variable elimination on every unfrozen,
// unassigned variable, cheapest occurrence counts first.
func (p *preprocessor) eliminate() {
	s := p.s
	p.elimCands = p.elimCands[:0]
	for v := 0; v < s.NumVars(); v++ {
		if s.frozen[v] || s.elimed[v] || s.assigns[v] != lUndef {
			continue
		}
		n := p.nocc[MkLit(v, false)] + p.nocc[MkLit(v, true)]
		if n == 0 {
			continue
		}
		p.elimCands = append(p.elimCands, elimCand{int32(v), n})
	}
	slices.SortFunc(p.elimCands, func(a, b elimCand) int {
		if c := cmp.Compare(a.n, b.n); c != 0 {
			return c
		}
		return cmp.Compare(a.v, b.v)
	})
	for _, cd := range p.elimCands {
		if !s.ok {
			return
		}
		p.tryEliminate(int(cd.v))
	}
}

// problemClauses appends the live problem (non-learnt) clauses on l to dst.
func (p *preprocessor) problemClauses(dst []int32, l Lit) []int32 {
	for _, ci := range p.live(l) {
		if !p.s.ca.learnt(p.cls[ci]) {
			dst = append(dst, ci)
		}
	}
	return dst
}

// tryEliminate resolves every pos/neg problem-clause pair on v; the
// elimination commits only when the non-tautological resolvents do not
// outnumber the clauses they replace (SatELite's zero-growth rule) and
// none exceeds the length cutoff. Learnt clauses mentioning v are simply
// dropped — they are implied, and the remaining ones stay implied because
// every model of the reduced formula extends to one of the original.
func (p *preprocessor) tryEliminate(v int) {
	s := p.s
	if s.frozen[v] || s.elimed[v] || s.assigns[v] != lUndef {
		return
	}
	pl, nl := MkLit(v, false), MkLit(v, true)
	p.pos = p.problemClauses(p.pos[:0], pl)
	p.neg = p.problemClauses(p.neg[:0], nl)
	if len(p.pos) > bveOccLimit || len(p.neg) > bveOccLimit {
		return
	}
	if !p.resolveAll(v) {
		return
	}
	// Commit: record and remove the originals, drop learnts touching v,
	// then add the resolvents.
	size := 0
	for _, cls := range [2][]int32{p.pos, p.neg} {
		for _, ci := range cls {
			size += 1 + len(p.lits(int(ci)))
		}
	}
	rec := elimRecord{v: v, clauses: make([]Lit, 0, size)}
	for _, cls := range [2][]int32{p.pos, p.neg} {
		for _, ci := range cls {
			lits := p.lits(int(ci))
			rec.clauses = append(append(rec.clauses, Lit(len(lits))), lits...)
		}
	}
	for _, l := range [2]Lit{pl, nl} {
		for _, ci := range p.live(l) {
			p.deleteClause(int(ci))
		}
		p.occ[l] = p.occ[l][:0]
	}
	if s.elimIndex == nil {
		s.elimIndex = map[int]int{}
	}
	s.elimIndex[v] = len(s.elimStack)
	s.elimStack = append(s.elimStack, rec)
	s.elimed[v] = true
	s.ElimVars++
	start := int32(0)
	for _, end := range p.resEnd {
		p.addResolvent(p.res[start:end])
		start = end
	}
	p.processUnits()
}

// resolveAll writes the non-tautological resolvents of every p.pos × p.neg
// pair on v into p.res, back to back, with their end offsets in p.resEnd.
// It returns false as soon as one resolvent exceeds bveClauseLimit or they
// outnumber the clauses they would replace. A resolvent is the pos
// clause's literals in order, then the neg clause's literals not already
// present; p.mark holds the resolvent's literals, so duplicate and
// complementary literals cost O(1) each.
func (p *preprocessor) resolveAll(v int) bool {
	p.res, p.resEnd = p.res[:0], p.resEnd[:0]
	limit := len(p.pos) + len(p.neg)
	for _, pi := range p.pos {
		a := p.lits(int(pi))
		for _, l := range a {
			p.mark[l] = l.Var() != v
		}
		ok := true
		for _, ni := range p.neg {
			start := len(p.res)
			for _, l := range a {
				if l.Var() != v {
					p.res = append(p.res, l)
				}
			}
			fromB := len(p.res)
			taut := false
			for _, l := range p.lits(int(ni)) {
				if l.Var() == v || p.mark[l] {
					continue
				}
				if p.mark[l.Not()] {
					taut = true
					break
				}
				p.res = append(p.res, l)
				p.mark[l] = true
			}
			for _, l := range p.res[fromB:] {
				p.mark[l] = false
			}
			if taut {
				p.res = p.res[:start]
				continue
			}
			if len(p.res)-start > bveClauseLimit {
				ok = false
				break
			}
			p.resEnd = append(p.resEnd, int32(len(p.res)))
			if len(p.resEnd) > limit {
				ok = false
				break
			}
		}
		for _, l := range a {
			p.mark[l] = false
		}
		if !ok {
			return false
		}
	}
	return true
}

// addResolvent installs a BVE resolvent as a problem clause in the arena,
// simplifying against the level-0 assignment first.
func (p *preprocessor) addResolvent(lits []Lit) {
	s := p.s
	out := lits[:0]
	for _, l := range lits {
		switch s.value(l) {
		case lTrue:
			return
		case lFalse:
			// drop
		default:
			out = append(out, l)
		}
	}
	switch len(out) {
	case 0:
		s.ok = false
		return
	case 1:
		p.units = append(p.units, out[0])
		return
	}
	p.addIndexed(s.ca.alloc(out, false))
}

// finish rebuilds the solver's clause lists from the surviving view,
// reconstructs the watch lists, and compacts the arena if the round left
// enough dead space behind.
func (p *preprocessor) finish() {
	s := p.s
	cls := s.clauses[:0]
	lrn := s.learnts[:0]
	for _, r := range p.cls {
		if s.ca.deleted(r) {
			continue
		}
		if s.ca.learnt(r) {
			lrn = append(lrn, r)
		} else {
			cls = append(cls, r)
		}
	}
	s.clauses = cls
	s.learnts = lrn
	s.rebuildWatches()
	s.checkGC()
}
