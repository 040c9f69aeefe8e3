package sat

// Batch loading. A caller that produces a large CNF at once (the smt
// bit-blaster lowering one term) records its variable allocations and
// clauses in a ClauseLog, then hands the log to AddClauses. Knowing the
// whole batch up front, AddClauses sizes every solver array once (the
// per-variable arrays, the heap, the trail, the clause arena, the clause
// list and each watch list) instead of letting thousands of appends grow
// them step by step. It then replays the log through NewVar and AddClause
// in the order it was recorded, so the solver ends in exactly the state
// the same calls made one at a time would leave: same variable numbering,
// clause order, watch order, level-0 trail and restored variables.

// ClauseLog records variable allocations and clauses, in call order, for
// AddClauses to load as one batch. It is pointer-free: one []Lit in which
// every record starts with a header word, -k for k new variables or n >= 0
// for a clause whose n literals follow. A log is reusable: AddClauses
// empties it and keeps its buffer.
type ClauseLog struct {
	buf     []Lit
	vars    int // variables numbered since the last load
	pend    int // numbered variables not yet written as a header
	clauses int // clauses of two or more literals
	words   int // arena words those clauses take
}

// NewVar numbers a fresh variable of s: the index s.NewVar would return
// once every variable logged before it is allocated. Nothing else may
// allocate variables of s until the log is loaded.
func (l *ClauseLog) NewVar(s *Solver) int {
	v := s.NumVars() + l.vars
	l.vars++
	l.pend++
	return v
}

// AddClause records a clause. The literal slice is copied, never retained.
func (l *ClauseLog) AddClause(lits ...Lit) {
	if need := 2 + len(lits); cap(l.buf)-len(l.buf) < need {
		l.buf = room(l.buf, need)
	}
	l.markVars()
	// Reslice and copy by hand, as clauseAlloc.alloc does.
	n := len(l.buf)
	l.buf = l.buf[:n+1+len(lits)]
	c := l.buf[n:]
	c[0] = Lit(len(lits))
	for i, x := range lits {
		c[1+i] = x
	}
	if len(lits) >= 2 {
		l.clauses++
		l.words += 1 + len(lits)
	}
}

// markVars writes the pending variable allocations as one header.
func (l *ClauseLog) markVars() {
	if l.pend > 0 {
		if len(l.buf) == cap(l.buf) {
			l.buf = room(l.buf, 1)
		}
		l.buf = append(l.buf, Lit(-l.pend))
		l.pend = 0
	}
}

func (l *ClauseLog) reset() {
	l.buf = l.buf[:0]
	l.vars, l.pend, l.clauses, l.words = 0, 0, 0, 0
}

// AddClauses loads a log: it reserves room for the whole batch, then runs
// NewVar and AddClause for the records in order, and empties the log. It
// returns false if the solver is unsatisfiable at level 0 afterwards; the
// logged variables are allocated either way.
func (s *Solver) AddClauses(l *ClauseLog) bool {
	l.markVars()
	if total := s.NumVars() + l.vars; total > cap(s.assigns) {
		s.reserveVars(total)
	}
	// The arena and slab reservations carry headroom for the learnt
	// clauses and moved watch lists of the search that usually follows,
	// so its first conflicts do not double freshly sized arrays.
	if cap(s.ca.data)-len(s.ca.data) < l.words {
		s.ca.data = room(s.ca.data, l.words+l.words/16)
	}
	if cap(s.clauses)-len(s.clauses) < l.clauses {
		s.clauses = room(s.clauses, l.clauses)
	}
	s.reserveWatches(l, s.NumVars()+l.vars, 2*l.clauses+l.clauses/4)
	buf := l.buf
	for i := 0; i < len(buf); {
		h := int(buf[i])
		i++
		if h < 0 {
			for ; h < 0; h++ {
				s.NewVar()
			}
			continue
		}
		s.AddClause(buf[i : i+h]...)
		i += h
	}
	l.reset()
	return s.ok
}

// reserveWatches gives every watch list the batch will append to room for
// its new watchers. The slab reserves room for slab watchers at once,
// which covers them all when the lists start empty, as in a fresh solver.
// An empty list gets exactly its count; a non-empty one that must move at
// least doubles, so a long-lived solver taking many small batches moves
// each list O(log n) times, and the slab grows again if the moves overflow
// it. The count assumes each clause is watched by its first two logged
// literals; the level-0 simplification AddClause applies can change that
// for a few clauses, whose watchers then take wappend's moving path.
func (s *Solver) reserveWatches(l *ClauseLog, nvars, slab int) {
	if old := len(s.watches); old < 2*nvars {
		s.watches = s.watches[:2*nvars]
		clear(s.watches[old:])
	}
	if len(s.wneed) < 2*nvars {
		s.wneed = make([]uint32, max(2*nvars, 2*len(s.wneed)))
	}
	if cap(s.watchers)-len(s.watchers) < slab {
		s.watchers = room(s.watchers, slab)
	}
	// need counts each list's new watchers, and is all zero again once
	// the lists that must move have moved. Those lists are found by a
	// sequential sweep over every literal when the batch is large for the
	// solver, as in a fresh one, and by a second pass over the log when a
	// small batch joins a large solver.
	need, buf := s.wneed[:2*nvars], l.buf
	for i := 0; i < len(buf); {
		h := int(buf[i])
		if h >= 2 {
			need[buf[i+1].Not()]++
			need[buf[i+2].Not()]++
		}
		i += 1 + max(h, 0)
	}
	fit := func(p Lit) {
		if k := need[p]; k > 0 {
			if wl := &s.watches[p]; wl.n+k > wl.cap {
				s.moveWatch(wl, max(wl.n+k, 2*wl.cap))
			}
			need[p] = 0
		}
	}
	if nvars <= 4*l.clauses {
		for p := range need {
			fit(Lit(p))
		}
		return
	}
	for i := 0; i < len(buf); {
		h := int(buf[i])
		if h >= 2 {
			fit(buf[i+1].Not())
			fit(buf[i+2].Not())
		}
		i += 1 + max(h, 0)
	}
}
