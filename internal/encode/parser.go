package encode

import (
	"fmt"

	"aquila/internal/gcl"
	"aquila/internal/p4"
	"aquila/internal/smt"
)

// EncodeParser compiles a parser state machine to GCL using the configured
// mode.
func (e *Env) EncodeParser(name string) (gcl.Stmt, error) {
	return e.reused("parser "+name, "", func() (gcl.Stmt, error) { return e.encodeParser(name) })
}

func (e *Env) encodeParser(name string) (gcl.Stmt, error) {
	pr, ok := e.Prog.Parsers[name]
	if !ok {
		return nil, fmt.Errorf("encode: unknown parser %q", name)
	}
	switch e.Opts.Parser {
	case ParserTree:
		return e.encodeParserTree(pr)
	default:
		return e.encodeParserSequential(pr)
	}
}

// parserGraph is the transition graph over real states (accept/reject are
// virtual sinks, not nodes).
type parserGraph struct {
	pr    *p4.Parser
	succs map[string][]string
	preds map[string][]string
}

func buildGraph(pr *p4.Parser) *parserGraph {
	g := &parserGraph{pr: pr, succs: map[string][]string{}, preds: map[string][]string{}}
	addEdge := func(from, to string) {
		if to == "accept" || to == "reject" {
			return
		}
		for _, s := range g.succs[from] {
			if s == to {
				return
			}
		}
		g.succs[from] = append(g.succs[from], to)
		g.preds[to] = append(g.preds[to], from)
	}
	for _, name := range pr.Order {
		st := pr.States[name]
		switch st.Trans.Kind {
		case p4.TransDirect:
			addEdge(name, st.Trans.Target)
		case p4.TransSelect:
			for _, cs := range st.Trans.Cases {
				addEdge(name, cs.Target)
			}
		}
	}
	return g
}

// sccs computes strongly connected components via Tarjan's algorithm,
// returned in reverse topological order of the condensation.
func (g *parserGraph) sccs() [][]string {
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var out [][]string
	next := 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range g.succs[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			out = append(out, comp)
		}
	}
	for _, name := range g.pr.Order {
		if _, seen := index[name]; !seen {
			strongconnect(name)
		}
	}
	return out
}

// hasSelfLoop reports whether state s transitions to itself.
func (g *parserGraph) hasSelfLoop(s string) bool {
	for _, t := range g.succs[s] {
		if t == s {
			return true
		}
	}
	return false
}

// lookaheadInfo records a lookahead placeholder flowing from a predecessor
// state into its successors (Appendix B.2).
type lookaheadInfo struct {
	predID uint64
	laVar  *smt.Term
	width  int
}

// encodeParserSequential is the paper's §4.1 algorithm extended with the
// Appendix B.1 loop folding and B.2 lookahead handling.
func (e *Env) encodeParserSequential(pr *p4.Parser) (gcl.Stmt, error) {
	c := e.Ctx
	g := buildGraph(pr)
	comps := g.sccs() // reverse topological order
	// Topological order of the condensation = reverse of Tarjan output.
	for i, j := 0, len(comps)-1; i < j; i, j = i+1, j-1 {
		comps[i], comps[j] = comps[j], comps[i]
	}

	// State ids for $prev tracking (needed by lookahead).
	stateID := map[string]uint64{}
	for i, name := range pr.Order {
		stateID[name] = uint64(i + 1)
	}
	usesLookahead := false
	for _, st := range pr.States {
		if st.Trans.Kind == p4.TransSelect {
			if _, ok := st.Trans.Expr.(*p4.LookaheadExpr); ok {
				usesLookahead = true
			}
		}
	}
	prevVar := c.Var("$prev."+pr.Name, 16)

	// Precompute lookahead placeholders: state -> placeholder, and
	// successor -> incoming lookahead infos.
	laVar := map[string]*smt.Term{}
	incoming := map[string][]lookaheadInfo{}
	for _, name := range pr.Order {
		st := pr.States[name]
		if st.Trans.Kind != p4.TransSelect {
			continue
		}
		la, ok := st.Trans.Expr.(*p4.LookaheadExpr)
		if !ok {
			continue
		}
		v := c.Var(fmt.Sprintf("$la.%s.%s", pr.Name, name), la.Width)
		laVar[name] = v
		for _, cs := range st.Trans.Cases {
			if cs.Target == "accept" || cs.Target == "reject" {
				continue
			}
			incoming[cs.Target] = append(incoming[cs.Target], lookaheadInfo{
				predID: stateID[name], laVar: v, width: la.Width,
			})
		}
	}

	// Prologue: all state ghosts false except start.
	var out []gcl.Stmt
	for _, name := range pr.Order {
		out = append(out, &gcl.Assign{Var: e.StateVar(pr.Name, name), Rhs: c.Bool(name == pr.Start)})
	}
	out = append(out,
		&gcl.Assign{Var: e.AcceptVar(pr.Name), Rhs: c.False()},
		&gcl.Assign{Var: e.RejectVar(pr.Name), Rhs: c.False()},
	)
	if usesLookahead {
		out = append(out, &gcl.Assign{Var: prevVar, Rhs: c.BV(0, 16)})
	}

	encodeOne := func(name string) (gcl.Stmt, error) {
		st := pr.States[name]
		body, err := e.encodeStateBody(pr, st, laVar[name], incoming[name], prevVar, stateID[name], usesLookahead)
		if err != nil {
			return nil, err
		}
		guard := e.StateVar(pr.Name, name)
		inner := gcl.NewSeq(
			&gcl.Assign{Var: guard, Rhs: c.False()},
			body,
		)
		return &gcl.If{Cond: guard, Then: inner, Else: &gcl.Skip{}}, nil
	}

	for _, comp := range comps {
		if len(comp) == 1 && !g.hasSelfLoop(comp[0]) {
			s, err := encodeOne(comp[0])
			if err != nil {
				return nil, err
			}
			out = append(out, s)
			continue
		}
		// Loop component (Appendix B.1): find the root state — the unique
		// state with an incoming edge from outside the SCC (or the start
		// state).
		inComp := map[string]bool{}
		for _, s := range comp {
			inComp[s] = true
		}
		root := ""
		for _, s := range comp {
			external := s == pr.Start
			for _, p := range g.preds[s] {
				if !inComp[p] {
					external = true
				}
			}
			if external {
				if root != "" && root != s {
					return nil, fmt.Errorf("encode: parser %s: loop with multiple entry states (%s, %s) unsupported", pr.Name, root, s)
				}
				root = s
			}
		}
		if root == "" {
			root = comp[0]
		}
		// Topologically order the SCC with edges-to-root removed.
		order := topoOrderWithin(g, comp, root)
		var body []gcl.Stmt
		for _, s := range order {
			st, err := encodeOne(s)
			if err != nil {
				return nil, err
			}
			body = append(body, st)
		}
		out = append(out, &gcl.While{
			Cond:  e.StateVar(pr.Name, root),
			Body:  gcl.NewSeq(body...),
			Bound: e.Opts.LoopBound,
		})
	}
	return gcl.NewSeq(out...), nil
}

// topoOrderWithin orders the states of an SCC topologically after removing
// edges back to the root (which break the cycles per Appendix B.1).
func topoOrderWithin(g *parserGraph, comp []string, root string) []string {
	inComp := map[string]bool{}
	for _, s := range comp {
		inComp[s] = true
	}
	visited := map[string]bool{}
	var order []string
	var dfs func(s string)
	dfs = func(s string) {
		visited[s] = true
		for _, t := range g.succs[s] {
			if inComp[t] && t != root && !visited[t] {
				dfs(t)
			}
		}
		order = append(order, s)
	}
	dfs(root)
	for _, s := range comp {
		if !visited[s] {
			dfs(s)
		}
	}
	// Reverse post-order.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// encodeStateBody compiles one state's statements and transition.
func (e *Env) encodeStateBody(pr *p4.Parser, st *p4.State, la *smt.Term,
	incoming []lookaheadInfo, prevVar *smt.Term, myID uint64, trackPrev bool) (gcl.Stmt, error) {
	c := e.Ctx
	var out []gcl.Stmt

	if e.Opts.InjectEncoderBug == "empty-state-accept" && len(st.Stmts) == 0 {
		// Historical bug (§7.2): empty states were mishandled and treated
		// as the accept state, so the encoding accepts more packets than
		// the program.
		return &gcl.Assign{Var: e.AcceptVar(pr.Name), Rhs: c.True()}, nil
	}

	if la != nil {
		// The placeholder holds the unparsed bits the select peeks at. In
		// the KV packet model the next unparsed header is named by
		// pkt.$order at the extraction index, so the placeholder is bound
		// to that header's input image; headers too short (or absent)
		// leave it unconstrained. The successor-state assumes of App. B.2
		// are emitted as well (below) and agree with this binding.
		out = append(out, &gcl.Assign{Var: la, Rhs: e.lookaheadValue(la.Width)})
	}

	// Translate the state's statements; after the first extract, discharge
	// incoming lookahead constraints (Appendix B.2).
	firstExtractDone := false
	sc := &exprScope{lookahead: la}
	for _, s := range st.Stmts {
		stmts, err := e.encodeParserStmt(s, sc)
		if err != nil {
			return nil, err
		}
		out = append(out, stmts)
		if ex, ok := s.(*p4.ExtractStmt); ok && !firstExtractDone {
			firstExtractDone = true
			for _, info := range incoming {
				bits := e.headerLeadingBits(ex.Header, info.width)
				if bits == nil {
					continue
				}
				out = append(out, &gcl.Assume{Cond: c.Implies(
					c.Eq(prevVar, c.BV(info.predID, 16)),
					c.Eq(info.laVar, bits),
				)})
			}
		}
	}

	// Transition encoding: ghost assignments per §4.1 step (2).
	setTarget := func(target string, cond *smt.Term) {
		var ghost *smt.Term
		switch target {
		case "accept":
			ghost = e.AcceptVar(pr.Name)
		case "reject":
			ghost = e.RejectVar(pr.Name)
		default:
			ghost = e.StateVar(pr.Name, target)
		}
		if cond == c.True() {
			out = append(out, &gcl.Assign{Var: ghost, Rhs: c.True()})
		} else {
			out = append(out, &gcl.Assign{Var: ghost, Rhs: c.Or(ghost, cond)})
		}
	}

	switch st.Trans.Kind {
	case p4.TransDirect:
		setTarget(st.Trans.Target, c.True())
	case p4.TransSelect:
		scrut := e.Expr(st.Trans.Expr, sc, 0)
		notPrev := c.True()
		sawDefault := false
		for _, cs := range st.Trans.Cases {
			var match *smt.Term
			if cs.IsDefault {
				match = c.True()
				sawDefault = true
			} else if cs.HasMask {
				mask := c.BV(cs.Mask, scrut.Width)
				match = c.Eq(c.BVAnd(scrut, mask), c.BVAnd(c.BV(cs.Val, scrut.Width), mask))
			} else {
				match = c.Eq(scrut, c.BV(cs.Val, scrut.Width))
			}
			cond := c.And(notPrev, match)
			setTarget(cs.Target, cond)
			notPrev = c.And(notPrev, c.Not(match))
		}
		if !sawDefault {
			// P4 semantics: an unmatched select rejects.
			setTarget("reject", notPrev)
		}
	}
	if trackPrev {
		out = append(out, &gcl.Assign{Var: prevVar, Rhs: c.BV(myID, 16)})
	}
	return gcl.NewSeq(out...), nil
}

// headerLeadingBits returns the first (most significant) width bits of a
// header instance's current field values, or nil when the header is too
// short.
func (e *Env) headerLeadingBits(inst string, width int) *smt.Term {
	return e.leadingBits(inst, width, e.FieldVar)
}

func (e *Env) leadingBits(inst string, width int, fieldVar func(inst, field string) *smt.Term) *smt.Term {
	c := e.Ctx
	ht := e.Prog.InstanceType(inst)
	if ht == nil || ht.Width() < width {
		return nil
	}
	var acc *smt.Term
	for _, f := range ht.Fields {
		fv := fieldVar(inst, f.Name)
		if acc == nil {
			acc = fv
		} else {
			acc = c.Concat(acc, fv)
		}
		if acc.Width >= width {
			break
		}
	}
	return c.Extract(acc, acc.Width-1, acc.Width-width)
}

// lookaheadValue builds the value of a lookahead placeholder: the leading
// bits of whichever header the order sequence says is next on the wire.
func (e *Env) lookaheadValue(width int) *smt.Term {
	c := e.Ctx
	if e.Opts.Packet == PacketBitvector {
		bits := e.PktBitsVar()
		shifted := c.BVShl(bits, c.Resize(e.CursorVar(), bits.Width))
		return c.Extract(shifted, bits.Width-1, bits.Width-width)
	}
	next := e.SelectOrderAt(e.ExtIdxVar())
	// Peeking past the end of the wire reads zero padding — a fixed
	// semantics shared with the self-validator's reference interpreter.
	out := c.BV(0, width)
	for _, inst := range e.Headers() {
		lead := e.leadingBits(inst.Name, width, e.PktFieldVar)
		if lead == nil {
			continue
		}
		out = c.Ite(c.Eq(next, c.BV(e.HeaderID(inst.Name), OrderWidth)), lead, out)
	}
	return out
}

// encodeParserStmt translates a statement appearing inside a parser state.
func (e *Env) encodeParserStmt(s p4.Stmt, sc *exprScope) (gcl.Stmt, error) {
	c := e.Ctx
	switch st := s.(type) {
	case *p4.ExtractStmt:
		return e.encodeExtract(st.Header), nil
	case *p4.AssignStmt:
		return e.encodeAssign(st, sc)
	case *p4.SetValidStmt:
		return &gcl.Assign{Var: e.ValidVar(st.Header), Rhs: c.Bool(st.Valid)}, nil
	case *p4.IfStmt:
		thenS, err := e.encodeStmtList(st.Then, sc, e.encodeParserStmt)
		if err != nil {
			return nil, err
		}
		elseS, err := e.encodeStmtList(st.Else, sc, e.encodeParserStmt)
		if err != nil {
			return nil, err
		}
		return &gcl.If{Cond: e.boolExpr(st.Cond, sc), Then: thenS, Else: elseS}, nil
	default:
		return nil, fmt.Errorf("encode: unsupported parser statement %T", s)
	}
}

func (e *Env) encodeStmtList(list []p4.Stmt, sc *exprScope,
	f func(p4.Stmt, *exprScope) (gcl.Stmt, error)) (gcl.Stmt, error) {
	var out []gcl.Stmt
	for _, s := range list {
		g, err := f(s, sc)
		if err != nil {
			return nil, err
		}
		out = append(out, g)
	}
	return gcl.NewSeq(out...), nil
}

// encodeExtract implements extract(h) under the configured packet model.
func (e *Env) encodeExtract(inst string) gcl.Stmt {
	c := e.Ctx
	ht := e.Prog.InstanceType(inst)
	var out []gcl.Stmt
	switch e.Opts.Packet {
	case PacketBitvector:
		// p4v-style: slice fields out of one big bit-vector at a symbolic
		// cursor — each extract costs a barrel shift of the whole packet.
		bits := e.PktBitsVar()
		cursor := e.CursorVar()
		total := bits.Width
		shifted := c.BVShl(bits, c.Resize(cursor, total))
		offset := 0
		for _, f := range ht.Fields {
			hi := total - 1 - offset
			lo := total - offset - f.Width
			out = append(out, &gcl.Assign{Var: e.FieldVar(inst, f.Name), Rhs: c.Extract(shifted, hi, lo)})
			offset += f.Width
		}
		out = append(out, &gcl.Assign{Var: cursor, Rhs: c.BVAdd(cursor, c.BV(uint64(ht.Width()), 16))})
	default: // PacketKV (§4.2)
		for _, f := range ht.Fields {
			out = append(out, &gcl.Assign{Var: e.FieldVar(inst, f.Name), Rhs: e.PktFieldVar(inst, f.Name)})
		}
		// Wire-order consistency: the header extracted at position extidx
		// must be what the order sequence says is there.
		extidx := e.ExtIdxVar()
		out = append(out, &gcl.Assume{Cond: c.Eq(e.SelectOrderAt(extidx), c.BV(e.HeaderID(inst), OrderWidth))})
		out = append(out, &gcl.Assign{Var: extidx, Rhs: c.BVAdd(extidx, c.BV(1, OrderWidth))})
	}
	out = append(out, &gcl.Assign{Var: e.ValidVar(inst), Rhs: c.True()})
	return gcl.NewSeq(out...)
}

// ---- naive tree baseline (ParserTree) ----

// encodeParserTree expands the state machine into a tree of nested ifs,
// duplicating every state per path — the encoding whose exponential blowup
// §4.1 demonstrates (1174 states for a 30-state production parser).
func (e *Env) encodeParserTree(pr *p4.Parser) (gcl.Stmt, error) {
	size := 0
	visits := map[string]int{}
	var expand func(name string) (gcl.Stmt, error)
	expand = func(name string) (gcl.Stmt, error) {
		c := e.Ctx
		switch name {
		case "accept":
			return &gcl.Assign{Var: e.AcceptVar(pr.Name), Rhs: c.True()}, nil
		case "reject":
			return &gcl.Assign{Var: e.RejectVar(pr.Name), Rhs: c.True()}, nil
		}
		if visits[name] >= e.Opts.LoopBound {
			// Bounded unrolling: deeper recursions are pruned.
			return &gcl.Assume{Cond: c.False()}, nil
		}
		visits[name]++
		defer func() { visits[name]-- }()

		st := pr.States[name]
		var out []gcl.Stmt
		var la *smt.Term
		if st.Trans.Kind == p4.TransSelect {
			if l, ok := st.Trans.Expr.(*p4.LookaheadExpr); ok {
				la = e.FreshVar("la."+name, l.Width)
				out = append(out, &gcl.Havoc{Var: la})
			}
		}
		sc := &exprScope{lookahead: la}
		for _, s := range st.Stmts {
			g, err := e.encodeParserStmt(s, sc)
			if err != nil {
				return nil, err
			}
			out = append(out, g)
		}
		switch st.Trans.Kind {
		case p4.TransDirect:
			sub, err := expand(st.Trans.Target)
			if err != nil {
				return nil, err
			}
			out = append(out, sub)
		case p4.TransSelect:
			scrut := e.Expr(st.Trans.Expr, sc, 0)
			// Build the nested if-else chain from the last case inward.
			var chain gcl.Stmt = &gcl.Assign{Var: e.RejectVar(pr.Name), Rhs: c.True()}
			for i := len(st.Trans.Cases) - 1; i >= 0; i-- {
				cs := st.Trans.Cases[i]
				sub, err := expand(cs.Target)
				if err != nil {
					return nil, err
				}
				if cs.IsDefault {
					chain = sub
					continue
				}
				var match *smt.Term
				if cs.HasMask {
					mask := c.BV(cs.Mask, scrut.Width)
					match = c.Eq(c.BVAnd(scrut, mask), c.BVAnd(c.BV(cs.Val, scrut.Width), mask))
				} else {
					match = c.Eq(scrut, c.BV(cs.Val, scrut.Width))
				}
				chain = &gcl.If{Cond: match, Then: sub, Else: chain}
			}
			out = append(out, chain)
		}
		stmt := gcl.NewSeq(out...)
		size += gcl.Size(stmt)
		if size > e.Opts.TreeCap {
			return nil, &ErrExplosion{Mode: "tree-parser", Size: size}
		}
		return stmt, nil
	}
	c := e.Ctx
	prologue := []gcl.Stmt{
		&gcl.Assign{Var: e.AcceptVar(pr.Name), Rhs: c.False()},
		&gcl.Assign{Var: e.RejectVar(pr.Name), Rhs: c.False()},
	}
	body, err := expand(pr.Start)
	if err != nil {
		return nil, err
	}
	return gcl.NewSeq(append(prologue, body)...), nil
}

// TreeSize reports the number of GCL statements the tree expansion of a
// parser produces (the "number of states" metric of §4.1) without
// building the verification condition.
func (e *Env) TreeSize(parserName string) (int, error) {
	saved := e.Opts.Parser
	e.Opts.Parser = ParserTree
	defer func() { e.Opts.Parser = saved }()
	s, err := e.EncodeParser(parserName)
	if err != nil {
		return 0, err
	}
	return gcl.Size(s), nil
}

// SequentialSize reports the GCL statement count of the sequential
// encoding.
func (e *Env) SequentialSize(parserName string) (int, error) {
	saved := e.Opts.Parser
	e.Opts.Parser = ParserSequential
	defer func() { e.Opts.Parser = saved }()
	s, err := e.EncodeParser(parserName)
	if err != nil {
		return 0, err
	}
	return gcl.Size(s), nil
}
