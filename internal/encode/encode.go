// Package encode compiles P4lite components into GCL — the core of
// Aquila's verification approach (§4 of the paper). It implements:
//
//   - Sequential encoding of parser state machines (§4.1): topological
//     sorting of the state DAG with ghost activation variables, producing
//     an O(n) straight-line program instead of the O(2^n) tree a naive
//     if-else expansion yields. Loops (e.g. TCP options) are folded into a
//     single bounded while via SCC contraction (Appendix B.1).
//   - Lookahead placeholders (Appendix B.2).
//   - ABV table encoding with a balanced ITE lookup tree (§4.2, Appendix
//     B.3), plus the linear-ABV and naive per-entry-if baselines used in
//     Figure 11b.
//   - Key-value packet encoding with an explicit header-order sequence
//     (§4.2), plus the monolithic bit-vector baseline.
//   - Feature encodings of §4.3/Appendix B.4: inter-pipeline packet
//     passing, bounded recirculation, hash havocing, register
//     scalarization.
//
// The package also exposes the variable-naming scheme shared with the LPI
// compiler and the verifier.
package encode

import (
	"fmt"
	"slices"

	"aquila/internal/gcl"
	"aquila/internal/p4"
	"aquila/internal/smt"
	"aquila/internal/tables"
)

// ParserMode selects the control-flow encoding for parser state machines.
type ParserMode int

// Parser encoding modes.
const (
	// ParserSequential is the paper's sequential encoding (§4.1).
	ParserSequential ParserMode = iota
	// ParserTree is the naive tree expansion baseline (p4v-style); it
	// explodes exponentially on DAG-shaped parsers.
	ParserTree
)

// TableMode selects the table encoding.
type TableMode int

// Table encoding modes.
const (
	// TableABVTree uses Action BitVectors with the balanced ITE lookup
	// tree (§4.2) — O(log n) lookup depth.
	TableABVTree TableMode = iota
	// TableABVLinear uses ABVs with one-by-one ITE chaining.
	TableABVLinear
	// TableNaive inlines each entry as an if-else branch with its action
	// body (memory explodes with entry count; Appendix B.3).
	TableNaive
)

// PacketMode selects the packet representation.
type PacketMode int

// Packet encoding modes.
const (
	// PacketKV models the packet as key-value header assignments plus a
	// header-order sequence (§4.2).
	PacketKV PacketMode = iota
	// PacketBitvector models the packet as one monolithic bit-vector with
	// a symbolic cursor (p4v/p4pktgen-style baseline).
	PacketBitvector
)

// Options configures the encoder; the zero value is the paper's
// configuration (sequential + ABV tree + KV packets).
type Options struct {
	Parser ParserMode
	Table  TableMode
	Packet PacketMode
	// LoopBound bounds parser-loop iterations (header stacks, TCP
	// options). Default 4.
	LoopBound int
	// TreeCap aborts the naive tree expansion after this many GCL
	// statements, modelling the OOM/timeout of the baselines in Table 3.
	// Default 1 << 20.
	TreeCap int
	// TrackModified lists "inst.field" names that need $mod ghost bits
	// (the LPI `modified()` predicate).
	TrackModified map[string]bool
	// TrackFired emits a $fired ghost per action inline site, used by bug
	// localization's causality filter (§5.2 step 2).
	TrackFired bool
	// RepairTables encodes every table with entries as
	// ite($rep.T, function-variable, entries) so the localizer can search
	// for entry replacements with MaxSAT over ¬$rep.T (§5.2).
	RepairTables bool
	// InjectHavoc maps "Ctl.action" to variable names that are havoced
	// after each inlined body of that action — the §5.2 step-3 fix
	// simulation for statement-missing bugs.
	InjectHavoc map[string][]string
	// InjectEncoderBug re-introduces historical Aquila implementation bugs
	// so the self-validator can be shown to catch them (§7.2):
	//   "empty-state-accept"  — a parser state with no statements is
	//                           treated as the accept state, making the
	//                           encoded parser accept more packets than
	//                           the code does;
	//   "ignore-defaultonly"  — the @defaultonly annotation is ignored
	//                           when encoding tables under unknown
	//                           entries.
	InjectEncoderBug string
}

func (o Options) withDefaults() Options {
	if o.LoopBound == 0 {
		o.LoopBound = 4
	}
	if o.TreeCap == 0 {
		o.TreeCap = 1 << 20
	}
	if o.TrackModified == nil {
		o.TrackModified = map[string]bool{}
	}
	return o
}

// ErrExplosion is returned when a naive baseline encoding exceeds its
// statement cap — the analogue of the OOM/OOT failures of p4v and Vera on
// production programs (Table 3).
type ErrExplosion struct {
	Mode string
	Size int
}

func (e *ErrExplosion) Error() string {
	return fmt.Sprintf("encode: %s encoding exploded (%d statements); raise TreeCap or use the sequential encoder", e.Mode, e.Size)
}

// Env is an encoding session: one P4 program, one snapshot, one term
// context. It owns the variable-naming scheme.
type Env struct {
	Ctx  *smt.Ctx
	Prog *p4.Program
	Snap *tables.Snapshot
	Opts Options

	headerIDs map[string]uint64 // header instance -> wire id (1-based)
	headers   []*p4.Instance
	fresh     int
	hashSeq   int

	// TableActionID maps "Ctl.table/action" to the table-local action id
	// (LAID) used in ABVs and the $action ghost.
	tableLAID map[string]map[string]uint64

	// tableTerms maps "Ctl.table" to the terms its apply-site encoding
	// introduced: entry match conditions, ABV constants, the lookup tree,
	// and the wildcard mode's free-choice variables. Delta re-verification
	// walks verification conditions against this index to decide which
	// tables an assertion's cone of influence touches.
	tableTerms map[string][]*smt.Term

	reuse *Reuse // SetReuse; nil encodes every part
}

// TableTerms returns the terms recorded for a fully-qualified table
// ("Ctl.table") during encoding. The slice aliases Env internals; callers
// must not mutate it.
func (e *Env) TableTerms(fq string) []*smt.Term { return e.tableTerms[fq] }

// recordTableTerms notes terms introduced by the encoding of table fq.
func (e *Env) recordTableTerms(fq string, ts ...*smt.Term) {
	rec := slices.Grow(e.tableTerms[fq], len(ts))
	for _, t := range ts {
		if t != nil {
			rec = append(rec, t)
		}
	}
	e.tableTerms[fq] = rec
}

// NewEnv builds an encoding environment. snap may be nil (verify under any
// entries: tables without entries are encoded as havoc, §2 case 2).
func NewEnv(ctx *smt.Ctx, prog *p4.Program, snap *tables.Snapshot, opts Options) *Env {
	e := &Env{
		Ctx:        ctx,
		Prog:       prog,
		Snap:       snap,
		Opts:       opts.withDefaults(),
		headerIDs:  map[string]uint64{},
		tableLAID:  map[string]map[string]uint64{},
		tableTerms: map[string][]*smt.Term{},
	}
	for i, inst := range prog.HeaderInstances() {
		e.headerIDs[inst.Name] = uint64(i + 1)
		e.headers = append(e.headers, inst)
	}
	for _, ctlName := range sortedKeys(prog.Controls) {
		ctl := prog.Controls[ctlName]
		for _, tname := range ctl.Order {
			tbl, ok := ctl.Tables[tname]
			if !ok {
				continue
			}
			m := map[string]uint64{}
			for i, a := range tbl.Actions {
				m[a] = uint64(i + 1) // 0 is reserved for the default action
			}
			e.tableLAID[ctlName+"."+tname] = m
		}
	}
	return e
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sortStrings(out)
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// ---- variable naming scheme (shared with lpi and verify) ----

// FieldVar returns the state variable for inst.field.
func (e *Env) FieldVar(inst, field string) *smt.Term {
	ht := e.Prog.InstanceType(inst)
	if ht == nil {
		panic(fmt.Sprintf("encode: unknown instance %q", inst))
	}
	f := ht.Field(field)
	if f == nil {
		panic(fmt.Sprintf("encode: unknown field %q.%q", inst, field))
	}
	return e.Ctx.Var(inst+"."+field, f.Width)
}

// ValidVar returns the validity bit for a header instance.
func (e *Env) ValidVar(inst string) *smt.Term {
	return e.Ctx.BoolVar(inst + ".$valid")
}

// PktFieldVar returns the input packet's value for inst.field (the `@`
// initial value in LPI).
func (e *Env) PktFieldVar(inst, field string) *smt.Term {
	ht := e.Prog.InstanceType(inst)
	f := ht.Field(field)
	return e.Ctx.Var("pkt."+inst+"."+field, f.Width)
}

// ModVar is the ghost bit recording that inst.field was assigned.
func (e *Env) ModVar(inst, field string) *smt.Term {
	return e.Ctx.BoolVar("$mod." + inst + "." + field)
}

// HitVar is the ghost bit recording that a table was hit.
func (e *Env) HitVar(ctl, tbl string) *smt.Term {
	return e.Ctx.BoolVar("$hit." + ctl + "." + tbl)
}

// AppliedVar is the ghost bit recording that a table was applied at all.
func (e *Env) AppliedVar(ctl, tbl string) *smt.Term {
	return e.Ctx.BoolVar("$applied." + ctl + "." + tbl)
}

// ActionVar is the ghost holding the LAID of the action a table ran
// (0 = default action).
func (e *Env) ActionVar(ctl, tbl string) *smt.Term {
	return e.Ctx.Var("$action."+ctl+"."+tbl, 16)
}

// LAID returns the table-local action id for an action name (0 when the
// name is the default-action marker).
func (e *Env) LAID(ctl, tbl, action string) (uint64, bool) {
	m, ok := e.tableLAID[ctl+"."+tbl]
	if !ok {
		return 0, false
	}
	id, ok := m[action]
	return id, ok
}

// FiredVar is the ghost bit recording that an action body executed.
func (e *Env) FiredVar(ctl, action string) *smt.Term {
	return e.Ctx.BoolVar("$fired." + ctl + "." + action)
}

// RepVar is the table-replacement indicator of §5.2's entry localization.
func (e *Env) RepVar(ctl, tbl string) *smt.Term {
	return e.Ctx.BoolVar("$rep." + ctl + "." + tbl)
}

// StateVar is the sequential-encoding ghost for a parser state.
func (e *Env) StateVar(parser, state string) *smt.Term {
	return e.Ctx.BoolVar("$st." + parser + "." + state)
}

// AcceptVar is the parser-accept ghost.
func (e *Env) AcceptVar(parser string) *smt.Term {
	return e.Ctx.BoolVar("$accept." + parser)
}

// RejectVar is the parser-reject ghost.
func (e *Env) RejectVar(parser string) *smt.Term {
	return e.Ctx.BoolVar("$reject." + parser)
}

// RegVar is the scalarized register state (§4.3: indexes are ignored
// thanks to stage-based pipeline constraints).
func (e *Env) RegVar(name string) *smt.Term {
	reg := e.Prog.Registers[name]
	return e.Ctx.Var("reg."+name, reg.Width)
}

// StdMetaVar returns a standard-metadata field variable.
func (e *Env) StdMetaVar(field string) *smt.Term {
	return e.FieldVar(p4.StdMetaInstance, field)
}

// HeaderID returns the wire id of a header instance (used in the order
// sequence); ids start at 1, 0 means "no header".
func (e *Env) HeaderID(inst string) uint64 { return e.headerIDs[inst] }

// Headers returns the header instances in declaration order.
func (e *Env) Headers() []*p4.Instance { return e.headers }

// MaxHeaders is the length of the order sequence.
func (e *Env) MaxHeaders() int { return len(e.headers) }

// OrderWidth is the bit width of one order-sequence slot.
const OrderWidth = 8

// OrderVar returns slot i of the input packet's header-order sequence
// (pkt.$order in LPI).
func (e *Env) OrderVar(i int) *smt.Term {
	return e.Ctx.Var(fmt.Sprintf("pkt.$order.%d", i), OrderWidth)
}

// OutOrderVar returns slot i of the output packet's header-order sequence.
func (e *Env) OutOrderVar(i int) *smt.Term {
	return e.Ctx.Var(fmt.Sprintf("pkt.$out.%d", i), OrderWidth)
}

// ExtIdxVar is the count of headers extracted so far.
func (e *Env) ExtIdxVar() *smt.Term { return e.Ctx.Var("pkt.$extidx", OrderWidth) }

// OutIdxVar is the count of headers emitted so far.
func (e *Env) OutIdxVar() *smt.Term { return e.Ctx.Var("pkt.$outidx", OrderWidth) }

// PktBitsVar is the monolithic packet bit-vector (PacketBitvector mode).
func (e *Env) PktBitsVar() *smt.Term {
	return e.Ctx.Var("pkt.$bits", e.totalHeaderBits())
}

// CursorVar is the bit cursor into pkt.$bits (PacketBitvector mode).
func (e *Env) CursorVar() *smt.Term { return e.Ctx.Var("pkt.$cursor", 16) }

func (e *Env) totalHeaderBits() int {
	n := 0
	for _, inst := range e.headers {
		n += e.Prog.InstanceType(inst.Name).Width()
	}
	if n == 0 {
		n = 8
	}
	return n
}

// HashVar allocates the free variable for the next hash invocation, named
// by program-order sequence so alternative representations align (§6).
func (e *Env) HashVar(width int) *smt.Term {
	e.hashSeq++
	return e.Ctx.Var(fmt.Sprintf("$hash.%d", e.hashSeq), width)
}

// ResetHashSeq restarts hash numbering (the self-validator encodes the
// same component twice and must see identical numbering).
func (e *Env) ResetHashSeq() { e.hashSeq = 0 }

// FreshVar allocates an encoder-private variable.
func (e *Env) FreshVar(hint string, width int) *smt.Term {
	e.fresh++
	name := fmt.Sprintf("$enc.%s.%d", hint, e.fresh)
	if width == 0 {
		return e.Ctx.BoolVar(name)
	}
	return e.Ctx.Var(name, width)
}

// SelectOrderAt builds the term order[idx] for a symbolic idx.
func (e *Env) SelectOrderAt(idx *smt.Term) *smt.Term {
	c := e.Ctx
	out := c.BV(0, OrderWidth)
	for i := e.MaxHeaders() - 1; i >= 0; i-- {
		out = c.Ite(c.Eq(idx, c.BV(uint64(i), OrderWidth)), e.OrderVar(i), out)
	}
	return out
}

// InitStmts returns the GCL prologue establishing switch-entry state:
// headers invalid, ghosts cleared, counters zeroed. Standard metadata and
// registers stay symbolic unless the spec constrains them.
func (e *Env) InitStmts() gcl.Stmt {
	s, _ := e.reused("init", "", func() (gcl.Stmt, error) { return e.initStmts(), nil })
	return s
}

func (e *Env) initStmts() gcl.Stmt {
	c := e.Ctx
	var out []gcl.Stmt
	for _, inst := range e.headers {
		out = append(out, &gcl.Assign{Var: e.ValidVar(inst.Name), Rhs: c.False()})
	}
	out = append(out,
		&gcl.Assign{Var: e.ExtIdxVar(), Rhs: c.BV(0, OrderWidth)},
		&gcl.Assign{Var: e.OutIdxVar(), Rhs: c.BV(0, OrderWidth)},
		&gcl.Assign{Var: e.StdMetaVar("drop"), Rhs: c.BV(0, 1)},
		&gcl.Assign{Var: e.StdMetaVar("to_cpu"), Rhs: c.BV(0, 1)},
		&gcl.Assign{Var: e.StdMetaVar("recirc"), Rhs: c.BV(0, 1)},
		&gcl.Assign{Var: e.StdMetaVar("resubmit"), Rhs: c.BV(0, 1)},
		&gcl.Assign{Var: e.StdMetaVar("mirror"), Rhs: c.BV(0, 1)},
		&gcl.Assign{Var: e.StdMetaVar("recirc_count"), Rhs: c.BV(0, 8)},
	)
	for _, name := range sortedKeys(e.Opts.TrackModified) {
		out = append(out, &gcl.Assign{Var: c.BoolVar("$mod." + name), Rhs: c.False()})
	}
	if e.Opts.TrackFired {
		for _, ctlName := range sortedKeys(e.Prog.Controls) {
			ctl := e.Prog.Controls[ctlName]
			for _, an := range ctl.Order {
				if _, isAction := ctl.Actions[an]; isAction {
					out = append(out, &gcl.Assign{Var: e.FiredVar(ctlName, an), Rhs: c.False()})
				}
			}
		}
	}
	// Table ghosts start cleared: a table that is never applied must not
	// report a symbolic hit/applied/action value.
	for _, ctlName := range sortedKeys(e.Prog.Controls) {
		ctl := e.Prog.Controls[ctlName]
		for _, tn := range ctl.Order {
			if _, isTable := ctl.Tables[tn]; !isTable {
				continue
			}
			out = append(out,
				&gcl.Assign{Var: e.AppliedVar(ctlName, tn), Rhs: c.False()},
				&gcl.Assign{Var: e.HitVar(ctlName, tn), Rhs: c.False()},
				&gcl.Assign{Var: e.ActionVar(ctlName, tn), Rhs: c.BV(0, 16)},
			)
		}
	}
	if e.Opts.Packet == PacketBitvector {
		out = append(out, &gcl.Assign{Var: e.CursorVar(), Rhs: c.BV(0, 16)})
	}
	return gcl.NewSeq(out...)
}

// EncodePipeline encodes parser -> control -> deparser for a named
// pipeline declaration.
func (e *Env) EncodePipeline(name string) (gcl.Stmt, error) {
	pl, ok := e.Prog.Pipelines[name]
	if !ok {
		return nil, fmt.Errorf("encode: unknown pipeline %q", name)
	}
	var parts []gcl.Stmt
	if pl.Parser != "" {
		s, err := e.EncodeParser(pl.Parser)
		if err != nil {
			return nil, err
		}
		parts = append(parts, s)
	}
	if pl.Control != "" {
		s, err := e.EncodeControl(pl.Control)
		if err != nil {
			return nil, err
		}
		parts = append(parts, s)
	}
	if pl.Deparser != "" {
		s, err := e.EncodeDeparser(pl.Deparser)
		if err != nil {
			return nil, err
		}
		parts = append(parts, s)
	}
	return gcl.NewSeq(parts...), nil
}

// EncodeComponent encodes any named component (parser, control, deparser,
// or pipeline).
func (e *Env) EncodeComponent(name string) (gcl.Stmt, error) {
	if _, ok := e.Prog.Parsers[name]; ok {
		return e.EncodeParser(name)
	}
	if _, ok := e.Prog.Controls[name]; ok {
		return e.EncodeControl(name)
	}
	if _, ok := e.Prog.Deparsers[name]; ok {
		return e.EncodeDeparser(name)
	}
	if _, ok := e.Prog.Pipelines[name]; ok {
		return e.EncodePipeline(name)
	}
	return nil, fmt.Errorf("encode: unknown component %q", name)
}
