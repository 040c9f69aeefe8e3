package smt

import (
	"sync"

	"aquila/internal/sat"
)

// Verdict memo. Find-all verification checks every assertion on a fresh
// solver, and hash-consing makes many assertions' violation conditions
// the same term (the Table 3 switch's 142 conditions are 14 distinct
// terms), so most fresh solvers would repeat a check an earlier one
// already made. A fresh solver is a pure function of its search
// configuration and the calls made on it: the blaster numbers variables
// and emits clauses from the term alone, and the SAT core's search is
// deterministic. So every fresh solver whose first calls are Indicator(t)
// and CheckLits of t's literal, under the same configuration, reaches the
// same verdict with the same counters.
//
// The Ctx records the outcome of such a first check when it is Unsat: the
// literal and the solver's stats after blasting and after searching. A
// later fresh solver making the same calls answers from the record
// without blasting or searching (a hit), and answers SolverStats, Stats,
// NumClauses and NumSATVars from it too. Any other call first
// materializes the solver: it blasts t and, if the Unsat was already
// handed out, re-runs the search, reaching exactly the state the recorded
// solver reached.
//
// Only Unsat is recorded: a Sat verdict comes with a model, which only a
// real search produces, and Unknown is a budget or cancellation artifact.
// A solver with a progress hook neither records nor hits, since its
// heartbeats watch a real search, and none hits once its cancellation
// token has fired. Ctx.Release drops the memo, because released term IDs
// are reused, and verification drops it when a run ends.

// memoKey identifies a first check: the term and the search
// configuration it ran under.
type memoKey struct {
	term int
	cfg  sat.Config
}

// memoRecord is the outcome of one first check that proved Unsat.
type memoRecord struct {
	lit     sat.Lit
	blasted SolverStats // after Indicator
	checked SolverStats // after CheckLits
}

// verdictMemo is a Ctx's record of Unsat first checks. It is safe for
// concurrent use: workers on a frozen Ctx share it. Records are immutable
// once stored.
type verdictMemo struct {
	mu   sync.Mutex
	recs map[memoKey]*memoRecord
}

func (m *verdictMemo) lookup(k memoKey) *memoRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recs[k]
}

func (m *verdictMemo) store(k memoKey, r *memoRecord) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.recs == nil {
		m.recs = map[memoKey]*memoRecord{}
	}
	m.recs[k] = r
}

func (m *verdictMemo) drop() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recs = nil
}

// DropMemo forgets the context's recorded verdicts. Verification calls it
// when a run ends, so a retained Report's Ctx pins no records.
func (c *Ctx) DropMemo() { c.memo.drop() }

// MemoLen reports the number of verdicts the context holds.
func (c *Ctx) MemoLen() int {
	c.memo.mu.Lock()
	defer c.memo.mu.Unlock()
	return len(c.memo.recs)
}

// Where a solver stands with respect to the memo.
type memoPhase uint8

const (
	phaseFresh      memoPhase = iota // only litTrue is loaded
	phaseFirst                       // the first Indicator blasted; its check may record
	phaseHit                         // the first Indicator hit a record; nothing is blasted
	phaseHitChecked                  // ... and the record's Unsat was handed out
	phaseLive                        // an ordinary solver
)

// firstIndicator is Indicator on a fresh solver: it looks t up in the
// memo and, on a miss, blasts t and prepares a record for its check.
func (s *Solver) firstIndicator(t *Term) sat.Lit {
	s.phase = phaseLive
	if s.sat.HasProgress() {
		return s.blast(t)
	}
	s.key = memoKey{term: t.ID, cfg: s.sat.Config()}
	if rec := s.ctx.memo.lookup(s.key); rec != nil {
		s.phase, s.first, s.rec = phaseHit, t, rec
		return rec.lit
	}
	l := s.blast(t)
	s.phase, s.rec = phaseFirst, &memoRecord{lit: l, blasted: s.SolverStats()}
	return l
}

// firstCheck answers CheckLits when it is the first check of a fresh
// solver's first Indicator; ok is false for any other check.
func (s *Solver) firstCheck(assumptions []sat.Lit) (st Status, ok bool) {
	if len(assumptions) != 1 || s.rec == nil || assumptions[0] != s.rec.lit {
		return Unknown, false
	}
	switch s.phase {
	case phaseHit:
		if c := s.sat.CancelToken(); c != nil && c.Load() {
			return Unknown, false
		}
		s.phase = phaseHitChecked
		return Unsat, true
	case phaseFirst:
		rec := s.rec
		s.phase, s.rec = phaseLive, nil
		st := s.sat.Solve(assumptions...)
		if st == Unsat {
			rec.checked = s.SolverStats()
			s.ctx.memo.store(s.key, rec)
		}
		return st, true
	}
	return Unknown, false
}

// settle makes s an ordinary solver before a call the memo does not
// answer. A hit is materialized: its term is blasted and, if its verdict
// was handed out, its check re-run without the cancellation token (the
// recorded search finished). A fresh solver stays fresh.
func (s *Solver) settle() {
	switch s.phase {
	case phaseFresh, phaseLive:
		return
	case phaseHit, phaseHitChecked:
		if l := s.blast(s.first); l != s.rec.lit {
			panic("smt: a memo record's literal differs from blasting its term")
		}
		if s.phase == phaseHitChecked {
			c := s.sat.CancelToken()
			s.sat.SetCancel(nil)
			s.sat.Solve(s.rec.lit)
			s.sat.SetCancel(c)
		}
	}
	s.phase, s.first, s.rec = phaseLive, nil, nil
}

// live settles s and ends its fresh phase: the call about to run loads
// or reads the SAT core.
func (s *Solver) live() {
	s.settle()
	s.phase = phaseLive
}

// recorded returns the stats a memo hit answers with.
func (s *Solver) recorded() (SolverStats, bool) {
	switch s.phase {
	case phaseHit:
		return s.rec.blasted, true
	case phaseHitChecked:
		return s.rec.checked, true
	}
	return SolverStats{}, false
}
