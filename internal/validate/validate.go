// Package validate implements Aquila's self validation (§6 of the paper):
// a translation-validation / refinement proof between the GCL encoding
// A(P) produced by package encode and an alternative representation X(P)
// produced by an independent big-step symbolic evaluator (the Gauntlet
// substitute described in DESIGN.md).
//
// For a program P and component list, both representations are driven from
// the same symbolic initial state; the refinement relation R is name
// identity on state variables. The validator checks, per observable
// variable v, that no input reaching the end of both representations can
// make A's value of v differ from X's — and that both sides constrain the
// input identically (the Assume part of Figure 10).
package validate

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"aquila/internal/encode"
	"aquila/internal/gcl"
	"aquila/internal/obs"
	"aquila/internal/p4"
	"aquila/internal/smt"
	"aquila/internal/tables"
)

// Mismatch is one refinement violation: a variable whose final value
// differs between the two representations for some input.
type Mismatch struct {
	Var string
	Cex string
}

// Result is the outcome of self validation.
type Result struct {
	Equivalent bool
	Mismatches []Mismatch
	// Checked is the number of observable variables compared.
	Checked int
	Time    time.Duration
}

// String renders the result.
func (r *Result) String() string {
	var b strings.Builder
	if r.Equivalent {
		fmt.Fprintf(&b, "self-validation passed: %d observables equivalent\n", r.Checked)
	} else {
		fmt.Fprintf(&b, "SELF-VALIDATION FAILED: %d mismatches over %d observables\n",
			len(r.Mismatches), r.Checked)
		for _, m := range r.Mismatches {
			fmt.Fprintf(&b, "  %s differs; counterexample:\n", m.Var)
			for _, line := range strings.Split(m.Cex, "\n") {
				if line != "" {
					fmt.Fprintf(&b, "    %s\n", line)
				}
			}
		}
	}
	fmt.Fprintf(&b, "time: %v\n", r.Time.Round(time.Millisecond))
	return b.String()
}

// Validate checks the encoder against the independent interpreter for the
// named components (parsers, controls, deparsers or pipelines, run in
// order). opts configures the encoder under test — including, for the §7.2
// regression stories, an injected encoder bug.
func Validate(prog *p4.Program, snap *tables.Snapshot, components []string, opts encode.Options) (*Result, error) {
	return run(prog, snap, components, opts, Config{})
}

// Config selects the optional solver-side passes of a validation run.
type Config struct {
	// Preprocess enables SatELite-style CNF preprocessing in the solver —
	// exercising that the pass preserves refinement verdicts inside the §6
	// pipeline itself.
	Preprocess bool
	// Obs attaches observability sinks for this run; nil falls back to the
	// process default. The fuzzing engine passes a per-iteration registry
	// here to read coverage signatures without touching global state.
	Obs *obs.Obs
}

func (c Config) observer() *obs.Obs {
	if c.Obs != nil {
		return c.Obs
	}
	return obs.Default()
}

// ValidateWith runs the refinement proof with the given pass configuration.
func ValidateWith(prog *p4.Program, snap *tables.Snapshot, components []string, opts encode.Options, cfg Config) (*Result, error) {
	return run(prog, snap, components, opts, cfg)
}

func run(prog *p4.Program, snap *tables.Snapshot, components []string, opts encode.Options, cfg Config) (*Result, error) {
	start := time.Now()
	o := cfg.observer()
	ctx := smt.NewCtx()

	// A(P): Aquila's GCL encoding.
	endA := o.Phase(0, "validate:encode-A")
	env := encode.NewEnv(ctx, prog, snap, opts)
	stmts := []gcl.Stmt{env.InitStmts()}
	for _, comp := range components {
		s, err := env.EncodeComponent(comp)
		if err != nil {
			endA()
			return nil, err
		}
		stmts = append(stmts, s)
	}
	enc := gcl.NewEncoder(ctx)
	aRes := enc.Encode(gcl.NewSeq(stmts...), nil)
	endA()

	// X(P): the independent big-step evaluation.
	endX := o.Phase(0, "validate:interp-X")
	ip := newInterp(ctx, prog, snap, opts.LoopBound)
	if ip.loopBound == 0 {
		ip.loopBound = 4
	}
	xState := ip.initialState()
	for _, comp := range components {
		var err error
		xState, err = ip.runComponent(comp, xState)
		if err != nil {
			endX()
			return nil, err
		}
	}
	endX()

	endCheck := o.Phase(0, "validate:check")
	defer endCheck()
	res := &Result{Time: 0}
	solver := smt.NewSolver(ctx)
	if cfg.Preprocess {
		solver.SetPreprocess(true)
	}

	// The Assume part: both representations must constrain inputs alike.
	// A path-condition divergence is reported against the pseudo-variable
	// "$path".
	pathA := aRes.Path
	pathX := xState.wf
	if st := solver.Check(ctx.Not(ctx.Iff(pathA, pathX))); st == smt.Sat {
		m := solver.Model()
		solver.ModelCollect(m, ctx.Iff(pathA, pathX))
		res.Mismatches = append(res.Mismatches, Mismatch{Var: "$path", Cex: renderModel(ctx, pathA, pathX, m)})
	}
	res.Checked++

	// The Assert part: every observable variable agrees on inputs admitted
	// by both sides.
	for _, name := range observables(env, prog) {
		res.Checked++
		var aVal, xVal *smt.Term
		if v, ok := aRes.Store.Lookup(name); ok {
			aVal = v
		}
		xVal = xState.vals[name]
		if aVal == nil && xVal == nil {
			continue // untouched on both sides: trivially equal
		}
		// Fill in defaults (initial symbolic value).
		fill := func(have *smt.Term) *smt.Term {
			if have.IsBool() {
				return ctx.BoolVar(name)
			}
			return ctx.Var(name, have.Width)
		}
		if aVal == nil {
			aVal = fill(xVal)
		}
		if xVal == nil {
			xVal = fill(aVal)
		}
		var diff *smt.Term
		if aVal.IsBool() != xVal.IsBool() {
			res.Mismatches = append(res.Mismatches, Mismatch{Var: name, Cex: "sort mismatch"})
			continue
		}
		if aVal.IsBool() {
			diff = ctx.Not(ctx.Iff(aVal, xVal))
		} else if aVal.Width != xVal.Width {
			res.Mismatches = append(res.Mismatches, Mismatch{Var: name, Cex: "width mismatch"})
			continue
		} else {
			diff = ctx.Neq(aVal, xVal)
		}
		// Only inputs that survive both sides' assumptions matter.
		cond := ctx.And(pathA, pathX, diff)
		if solver.Check(cond) == smt.Sat {
			m := solver.Model()
			solver.ModelCollect(m, cond)
			res.Mismatches = append(res.Mismatches, Mismatch{Var: name, Cex: renderModel(ctx, aVal, xVal, m)})
		}
	}
	res.Equivalent = len(res.Mismatches) == 0
	res.Time = time.Since(start)
	if o != nil && o.Metrics != nil {
		ss := solver.SolverStats()
		m := o.Metrics
		m.Counter(obs.CtrSATConflicts).Add(ss.Conflicts)
		m.Counter(obs.CtrSATDecisions).Add(ss.Decisions)
		m.Counter(obs.CtrSATPropagations).Add(ss.Propagations)
		m.Counter(obs.CtrSATElimVars).Add(ss.ElimVars)
		m.Counter(obs.CtrSATSubsumed).Add(ss.Subsumed)
		m.Counter(obs.CtrSATStrengthened).Add(ss.Strengthened)
		m.Counter(obs.CtrSMTTseitinClauses).Add(ss.TseitinClauses)
	}
	o.Event("validate_done", map[string]any{
		"equivalent": res.Equivalent, "checked": res.Checked,
		"mismatches": len(res.Mismatches),
	})
	return res, nil
}

// observables lists the state variables whose equivalence defines
// refinement: header fields and validity, standard metadata, registers,
// parser accept/reject, and the deparsed output order.
func observables(env *encode.Env, prog *p4.Program) []string {
	var out []string
	for _, inst := range prog.HeaderInstances() {
		ht := prog.InstanceType(inst.Name)
		for _, f := range ht.Fields {
			out = append(out, inst.Name+"."+f.Name)
		}
		out = append(out, inst.Name+".$valid")
	}
	for _, f := range p4.StdMetaFields {
		out = append(out, "std_meta."+f.Name)
	}
	for name := range prog.Registers {
		out = append(out, "reg."+name)
	}
	for name := range prog.Parsers {
		out = append(out, "$accept."+name, "$reject."+name)
	}
	for i := 0; i < env.MaxHeaders(); i++ {
		out = append(out, fmt.Sprintf("pkt.$out.%d", i))
	}
	sort.Strings(out)
	return out
}

func renderModel(ctx *smt.Ctx, a, b *smt.Term, m *smt.Model) string {
	seen := map[string]bool{}
	var lines []string
	for _, t := range append(smt.Vars(a), smt.Vars(b)...) {
		if seen[t.Name] || strings.Contains(t.Name, "!") {
			continue
		}
		seen[t.Name] = true
		if t.IsBool() {
			lines = append(lines, fmt.Sprintf("%s = %v", t.Name, m.Bool(t)))
		} else {
			lines = append(lines, fmt.Sprintf("%s = 0x%x", t.Name, m.BV(t)))
		}
	}
	sort.Strings(lines)
	if m != nil {
		lines = append(lines, fmt.Sprintf("A-side value = %v, X-side value = %v", renderVal(a, m), renderVal(b, m)))
	}
	return strings.Join(lines, "\n")
}

func renderVal(t *smt.Term, m *smt.Model) string {
	if t.IsBool() {
		return fmt.Sprintf("%v", m.Bool(t))
	}
	return fmt.Sprintf("0x%x", m.BV(t))
}
