package smt

import (
	"math/big"
	"sync/atomic"

	"aquila/internal/sat"
)

// Status re-exports the SAT verdict type for callers that only import smt.
type Status = sat.Status

// Verdicts.
const (
	Unknown = sat.Unknown
	Sat     = sat.Sat
	Unsat   = sat.Unsat
)

// Solver is an incremental QF_BV solver: assert boolean terms, check
// satisfiability (optionally under assumptions), extract models.
type Solver struct {
	ctx *Ctx
	sat *sat.Solver
	b   *blaster

	asserted []*Term
	blasted  map[int]bool // variable terms whose bits are allocated
}

// NewSolver returns a fresh solver over the given term context.
func NewSolver(ctx *Ctx) *Solver {
	s := sat.New()
	return &Solver{ctx: ctx, sat: s, b: newBlaster(s), blasted: map[int]bool{}}
}

// Ctx returns the term context the solver operates over.
func (s *Solver) Ctx() *Ctx { return s.ctx }

// SetBudget bounds the number of SAT conflicts for subsequent checks;
// exceeding it yields Unknown. Negative removes the bound.
func (s *Solver) SetBudget(conflicts int64) { s.sat.SetBudget(conflicts) }

// SetLearntCap bounds the learnt-clause database of the underlying SAT
// core. Long-lived incremental solvers answering many queries use this to
// keep memory flat; values <= 0 remove the bound.
func (s *Solver) SetLearntCap(n int) { s.sat.SetLearntCap(n) }

// SetPreprocess enables SatELite-style CNF preprocessing (subsumption,
// self-subsuming resolution, bounded variable elimination) in the SAT
// core. Models are reconstructed for eliminated variables and assumption/
// indicator variables are exempt, so verdicts, models, and unsat cores are
// unchanged; only the search gets cheaper.
func (s *Solver) SetPreprocess(on bool) { s.sat.SetPreprocess(on) }

// Preprocess runs one preprocessing round immediately; it returns false if
// simplification alone proves the asserted constraints unsatisfiable.
func (s *Solver) Preprocess() bool { return s.sat.Preprocess() }

// SetCancel installs a cancellation token on the SAT core: once it
// becomes true, in-flight and future checks return Unknown at the next
// cooperative poll. nil removes the token.
func (s *Solver) SetCancel(c *atomic.Bool) { s.sat.SetCancel(c) }

// Stats returns (decisions, conflicts, propagations) of the underlying SAT
// solver.
func (s *Solver) Stats() (int64, int64, int64) {
	return s.sat.Decisions, s.sat.Conflicts, s.sat.Propagations
}

// SolverStats is a point-in-time snapshot of one solver instance's work:
// the SAT core's search counters plus the bit-blasting layer's cache and
// CNF-emission counters. The verification driver sums these across every
// instance a run creates — the per-assertion cost breakdown the paper's
// Figure 11 plots.
type SolverStats struct {
	Decisions      int64
	Conflicts      int64
	Propagations   int64
	Restarts       int64
	LearntClauses  int64
	LearntLits     int64
	LearntDeleted  int64 // learnt clauses evicted by database reduction
	ElimVars       int64 // variables removed by bounded variable elimination
	Subsumed       int64 // clauses deleted by subsumption
	Strengthened   int64 // clauses shrunk by self-subsuming resolution
	TseitinClauses int64 // CNF clauses emitted by the blaster (>= retained)
	BlastHits      int64 // per-term blast-cache hits
	BlastMisses    int64 // per-term blast-cache misses
	Clauses        int   // problem clauses retained by the SAT core
	SATVars        int   // SAT variables allocated
	// LearntSizes is the learnt-clause length distribution in log2
	// buckets; the driver folds it into the flight recorder's
	// sat.learnt_clause_size histogram.
	LearntSizes [sat.NumLearntSizeBuckets]int64
}

// SolverStats snapshots the instance's counters.
func (s *Solver) SolverStats() SolverStats {
	return SolverStats{
		Decisions:      s.sat.Decisions,
		Conflicts:      s.sat.Conflicts,
		Propagations:   s.sat.Propagations,
		Restarts:       s.sat.Restarts,
		LearntClauses:  s.sat.Learnt,
		LearntLits:     s.sat.LearntLits,
		LearntDeleted:  s.sat.Deleted,
		ElimVars:       s.sat.ElimVars,
		Subsumed:       s.sat.SubsumedClauses,
		Strengthened:   s.sat.StrengthenedClauses,
		TseitinClauses: s.b.clausesEmitted,
		BlastHits:      s.b.cacheHits,
		BlastMisses:    s.b.cacheMisses,
		Clauses:        s.sat.NumClauses(),
		SATVars:        s.sat.NumVars(),
		LearntSizes:    s.sat.LearntSizes,
	}
}

// NumLearntSizeBuckets re-exports the SAT core's learnt-size bucket
// count so the verification driver can delta LearntSizes arrays without
// importing internal/sat.
const NumLearntSizeBuckets = sat.NumLearntSizeBuckets

// SolveProgress is the SAT core's heartbeat sample, re-exported so the
// verification driver can install progress publishers without importing
// internal/sat.
type SolveProgress = sat.Progress

// SetProgress installs fn to fire every `every` conflicts during
// subsequent checks (nil fn or every <= 0 disables). The callback runs
// on the solving goroutine; see sat.Solver.SetProgress.
func (s *Solver) SetProgress(every int64, fn func(SolveProgress)) {
	s.sat.SetProgress(every, fn)
}

// NumClauses reports the size of the generated CNF, a proxy for solver
// memory (what the paper reports as verification memory).
func (s *Solver) NumClauses() int { return s.sat.NumClauses() }

// NumSATVars reports the number of allocated SAT variables.
func (s *Solver) NumSATVars() int { return s.sat.NumVars() }

// Assert adds a boolean term as a hard constraint.
func (s *Solver) Assert(t *Term) {
	mustBool("Assert", t)
	s.asserted = append(s.asserted, t)
	l := s.b.boolLit(t)
	s.sat.AddClause(l)
}

// Indicator blasts a boolean term and returns a SAT literal equivalent to
// it, without asserting it. Used for assumptions and MaxSAT soft clauses.
// The literal's variable is frozen: an activation literal's truth varies
// per query, so CNF preprocessing must never resolve it away between
// incremental checks.
func (s *Solver) Indicator(t *Term) sat.Lit {
	mustBool("Indicator", t)
	l := s.b.boolLit(t)
	s.sat.FreezeVar(l.Var())
	return l
}

// Retire releases an indicator literal obtained from Indicator: the
// variable is unfrozen, so CNF preprocessing may eliminate it and
// resolve the stale cone's clauses away in later rounds. Retiring never
// constrains the formula — the retired condition's truth stays free, so
// verdicts of subsequent checks are unaffected; only dead weight becomes
// reclaimable. If the condition recurs, Indicator re-freezes the
// variable (restoring it first if it was eliminated), so retirement is
// always safe, even speculatively.
func (s *Solver) Retire(l sat.Lit) { s.sat.UnfreezeVar(l.Var()) }

// Check determines satisfiability of the asserted constraints under the
// given boolean assumption terms.
func (s *Solver) Check(assumptions ...*Term) Status {
	lits := make([]sat.Lit, len(assumptions))
	for i, a := range assumptions {
		lits[i] = s.Indicator(a)
	}
	return s.sat.Solve(lits...)
}

// CheckLits is Check with pre-blasted assumption literals.
func (s *Solver) CheckLits(assumptions ...sat.Lit) Status {
	return s.sat.Solve(assumptions...)
}

// UnsatAssumptions returns, after an Unsat verdict under assumptions, the
// subset of assumption indices that participated in the conflict.
func (s *Solver) UnsatAssumptions(assumptions []*Term) []int {
	conflict := s.sat.Conflict()
	inConflict := map[sat.Lit]bool{}
	for _, l := range conflict {
		inConflict[l] = true
	}
	var out []int
	for i, a := range assumptions {
		if inConflict[s.Indicator(a).Not()] {
			out = append(out, i)
		}
	}
	return out
}

// Model captures a satisfying assignment. Values of terms are obtained by
// evaluating them under the variable assignment, so any term over the same
// context can be queried, including terms never blasted.
type Model struct {
	env *Env
}

// Model returns the model after a Sat verdict. Variables that were never
// part of the blasted formula evaluate to zero/false.
func (s *Solver) Model() *Model {
	env := NewEnv()
	// Walk every asserted term's variables and read their bits back. The
	// walk keeps an explicit stack: VC terms from deep parser state spaces
	// can be hundreds of thousands of concat/ite nodes deep, too deep for
	// recursion.
	seen := map[int]bool{}
	stack := make([]*Term, 0, 64)
	push := func(t *Term) {
		if !seen[t.ID] {
			seen[t.ID] = true
			stack = append(stack, t)
		}
	}
	for _, t := range s.asserted {
		push(t)
	}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		switch t.Op {
		case OpBVVar:
			if lits, ok := s.b.bvCache[t.ID]; ok {
				v := new(big.Int)
				for i, l := range lits {
					if s.litValue(l) {
						v.SetBit(v, i, 1)
					}
				}
				env.BV[t.Name] = v
			}
		case OpBoolVar:
			if l, ok := s.b.boolCache[t.ID]; ok {
				env.Bool[t.Name] = s.litValue(l)
			}
		}
		for _, a := range t.Args {
			push(a)
		}
	}
	return &Model{env: env}
}

func (s *Solver) litValue(l sat.Lit) bool {
	v := s.sat.Value(l.Var())
	if l.Neg() {
		return !v
	}
	return v
}

// ModelCollect extends the model with variables reachable from extra terms
// (e.g. assumption terms not asserted).
func (s *Solver) ModelCollect(m *Model, terms ...*Term) {
	for _, t := range terms {
		for _, v := range Vars(t) {
			switch v.Op {
			case OpBVVar:
				if lits, ok := s.b.bvCache[v.ID]; ok {
					val := new(big.Int)
					for i, l := range lits {
						if s.litValue(l) {
							val.SetBit(val, i, 1)
						}
					}
					m.env.BV[v.Name] = val
				}
			case OpBoolVar:
				if l, ok := s.b.boolCache[v.ID]; ok {
					m.env.Bool[v.Name] = s.litValue(l)
				}
			}
		}
	}
}

// BV evaluates a bit-vector term under the model.
func (m *Model) BV(t *Term) *big.Int { return EvalBV(t, m.env) }

// Uint64 evaluates a bit-vector term under the model as a uint64.
func (m *Model) Uint64(t *Term) uint64 { return EvalBV(t, m.env).Uint64() }

// Bool evaluates a boolean term under the model.
func (m *Model) Bool(t *Term) bool { return EvalBool(t, m.env) }

// Env exposes the raw variable assignment of the model.
func (m *Model) Env() *Env { return m.env }

// Maximize finds an assignment satisfying all asserted hard constraints
// that maximizes the number of satisfied soft terms. It returns the model,
// the number of satisfied soft terms, and a status: Sat means the optimum
// was found, Unsat means the hard constraints alone are unsatisfiable, and
// Unknown means the conflict budget ran out before either could be
// established (during the initial hard check or mid-search). Callers with
// budgets must distinguish Unknown from Unsat — "ran out of time" is not
// "infeasible".
//
// The implementation is a linear UNSAT-to-SAT search on the number of
// violated soft constraints using a sequential-counter cardinality
// encoding; Aquila's bug localization (§5.2) uses this for
// "MAXSAT_i ¬rep_i" minimization, where the number of violated softs (the
// number of replaced tables) is expected to be small.
func (s *Solver) Maximize(soft []*Term) (*Model, int, Status) {
	switch st := s.Check(); st {
	case Unsat:
		return nil, 0, Unsat
	case Unknown:
		return nil, 0, Unknown
	}
	if len(soft) == 0 {
		return s.Model(), 0, Sat
	}
	// violated[i] is true when soft[i] is false.
	violated := make([]sat.Lit, len(soft))
	for i, t := range soft {
		violated[i] = s.Indicator(t).Not()
	}
	// Sequential counter: count[j] = "at least j+1 of violated are true".
	counts := s.cardinalityCounter(violated)
	for k := 0; k <= len(soft); k++ {
		// Assume at most k violated: ¬count[k] (i.e. not "at least k+1").
		var assumptions []sat.Lit
		if k < len(counts) {
			assumptions = append(assumptions, counts[k].Not())
		}
		switch st := s.sat.Solve(assumptions...); st {
		case Sat:
			m := s.Model()
			s.ModelCollect(m, soft...)
			return m, len(soft) - k, Sat
		case Unknown:
			return nil, 0, Unknown
		}
	}
	// Unreachable: with no cardinality assumption the hard constraints are
	// satisfiable per the initial check.
	m := s.Model()
	return m, 0, Sat
}

// cardinalityCounter builds a sequential (Sinz) counter over lits and
// returns outputs out[j] ≡ "at least j+1 of lits are true".
func (s *Solver) cardinalityCounter(lits []sat.Lit) []sat.Lit {
	n := len(lits)
	// reg[j] after processing i inputs: at least j+1 of the first i are true.
	reg := make([]sat.Lit, n)
	for j := range reg {
		reg[j] = s.b.litFalse()
	}
	for i := 0; i < n; i++ {
		next := make([]sat.Lit, n)
		for j := 0; j < n; j++ {
			ge := reg[j] // already ≥ j+1 without lits[i]
			var carry sat.Lit
			if j == 0 {
				carry = lits[i] // lits[i] alone reaches count 1
			} else {
				carry = s.b.and(reg[j-1], lits[i])
			}
			next[j] = s.b.or(ge, carry)
		}
		reg = next
	}
	return reg
}
