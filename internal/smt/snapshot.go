package smt

import (
	"slices"
	"sync"

	"aquila/internal/sat"
)

// Solver snapshots. Find-all verification checks every assertion on a
// fresh solver, and hash-consing makes many assertions' violation
// conditions the same term (the Table 3 switch's 142 conditions are 14
// distinct terms), so most fresh solvers would blast a CNF an earlier one
// already built. A solver that has loaded nothing yet is a pure function
// of the term it blasts first: the blaster numbers variables and emits
// clauses from the term alone, and the SAT core loads them the same way
// whatever its configuration. So the Ctx keeps snapshots of solvers right
// after they blasted their first term, and a fresh solver whose first
// term has a snapshot starts as a copy of it, identical to the solver
// blasting would have produced: same clauses, watches, trail, heap,
// counters, blaster caches and cache statistics, hence the same search.
//
// Capture waits for a term's second sighting: a condition seen once is
// usually never seen again, and copying it would be wasted. Snapshots are
// kept up to snapshotLimit bytes, the least recently used evicted first;
// an evicted term is captured again at its next sighting. Ctx.Release
// drops them all, because released term IDs are reused, and
// verify.RunWithEnv drops them when a run ends.

// snapshotLimit bounds the bytes of retained snapshots per Ctx. The
// Table 3 switch's snapshots are 9.1 MB each and its conditions recur
// within 8 distinct others, so the bound keeps 8 of them. Retained
// snapshots are live heap the garbage collector paces itself by, so each
// byte kept costs about two of peak memory.
const snapshotLimit = 72 << 20

// snapshot is a solver's state right after blasting one term.
type snapshot struct {
	sat                   *sat.Solver
	cache                 termCache
	hits, misses, clauses int64
	lit                   sat.Lit
	bytes                 int
}

// Term sightings in snapCache.seen.
const (
	seenOnce  = 1 // blast from scratch, capture at the next sighting
	capturing = 2 // a solver is blasting to capture; others blast too
)

// snapCache is a Ctx's snapshot store. It is safe for concurrent use:
// workers on a frozen Ctx share it. Snapshots are immutable once stored.
type snapCache struct {
	mu    sync.Mutex
	seen  map[int]uint8 // term ID -> sighting state, for terms without a snapshot
	snaps map[int]*snapshot
	order []int // snapshot term IDs, least recently used first
	bytes int
	limit int // snapshotLimit; tests lower it
}

// claim records a sighting of term id. It returns the term's snapshot if
// there is one; otherwise capture reports whether the caller should
// snapshot its solver after blasting.
func (c *snapCache) claim(id int) (sn *snapshot, capture bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sn := c.snaps[id]; sn != nil {
		c.touch(id)
		return sn, false
	}
	if c.seen == nil {
		c.seen = map[int]uint8{}
	}
	switch c.seen[id] {
	case 0:
		c.seen[id] = seenOnce
	case seenOnce:
		c.seen[id] = capturing
		return nil, true
	}
	return nil, false
}

// touch moves id to the recently used end of c.order.
func (c *snapCache) touch(id int) {
	i := slices.Index(c.order, id)
	c.order = append(slices.Delete(c.order, i, i+1), id)
}

// max is the byte limit on retained snapshots.
func (c *snapCache) max() int {
	if c.limit > 0 {
		return c.limit
	}
	return snapshotLimit
}

// store adds a captured snapshot, no larger than the limit, evicting the
// least recently used ones beyond it.
func (c *snapCache) store(id int, sn *snapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.bytes+sn.bytes > c.max() {
		old := c.order[0]
		c.order = c.order[1:]
		c.bytes -= c.snaps[old].bytes
		delete(c.snaps, old)
		c.seen[old] = seenOnce
	}
	if c.snaps == nil {
		c.snaps = map[int]*snapshot{}
	}
	delete(c.seen, id)
	c.snaps[id] = sn
	c.order = append(c.order, id)
	c.bytes += sn.bytes
}

// drop forgets every snapshot and sighting.
func (c *snapCache) drop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seen, c.snaps, c.order, c.bytes = nil, nil, nil, 0
}

// DropSnapshots releases the context's solver snapshots and forgets
// which terms were blasted. Verification calls it when a run ends, so a
// retained Report's Ctx pins no solver state.
func (c *Ctx) DropSnapshots() { c.snaps.drop() }

// SnapshotBytes reports the bytes of solver snapshots the context holds.
func (c *Ctx) SnapshotBytes() int {
	c.snaps.mu.Lock()
	defer c.snaps.mu.Unlock()
	return c.snaps.bytes
}

// blastFirst blasts t, the first term of a pristine solver, through the
// context's snapshots: it clones t's snapshot if there is one, and
// otherwise blasts from scratch and captures a snapshot at t's second
// sighting.
func (s *Solver) blastFirst(t *Term) sat.Lit {
	c := &s.ctx.snaps
	sn, capture := c.claim(t.ID)
	if sn != nil {
		b := s.b
		s.sat.CloneFrom(sn.sat)
		b.cache = sn.cache.clone()
		b.cacheHits, b.cacheMisses, b.clausesEmitted = sn.hits, sn.misses, sn.clauses
		return sn.lit
	}
	l := s.b.boolLit(t)
	s.b.flush()
	if !capture {
		return l
	}
	b := s.b
	// A copy has the capacities of its source, so its size is known
	// before copying. One over the limit is never kept; the term stays
	// marked capturing, so later sightings do not try again.
	bytes := s.sat.StateBytes() + b.cache.bytes()
	if bytes > c.max() {
		return l
	}
	c.store(t.ID, &snapshot{
		sat:   s.sat.Clone(),
		cache: b.cache.clone(),
		hits:  b.cacheHits, misses: b.cacheMisses, clauses: b.clausesEmitted,
		lit: l, bytes: bytes,
	})
	return l
}
