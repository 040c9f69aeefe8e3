package encode

import (
	"fmt"
	"math/big"

	"aquila/internal/gcl"
	"aquila/internal/p4"
	"aquila/internal/smt"
	"aquila/internal/tables"
)

// abvLayout describes the Action BitVector format of a table (App. B.3):
//
//	| D (1 bit) | LAID | action parameters | padding |
type abvLayout struct {
	laidBits  int
	paramBits int
}

func (l abvLayout) width() int { return 1 + l.laidBits + l.paramBits }

func (e *Env) layoutFor(ctl *p4.Control, tbl *p4.Table) abvLayout {
	laidBits := 1
	for (1 << laidBits) < len(tbl.Actions)+1 {
		laidBits++
	}
	maxParams := 0
	for _, an := range tbl.Actions {
		act := ctl.Actions[an]
		if act == nil {
			continue
		}
		total := 0
		for _, pm := range act.Params {
			total += pm.Width
		}
		if total > maxParams {
			maxParams = total
		}
	}
	if da, ok := ctl.Actions[tbl.DefaultAction]; ok {
		total := 0
		for _, pm := range da.Params {
			total += pm.Width
		}
		if total > maxParams {
			maxParams = total
		}
	}
	return abvLayout{laidBits: laidBits, paramBits: maxParams}
}

// abvConst packs (default?, laid, args) into an ABV constant.
func (e *Env) abvConst(l abvLayout, isDefault bool, laid uint64, act *p4.Action, args []uint64) *smt.Term {
	v := new(big.Int)
	if isDefault {
		v.SetBit(v, 0, 1)
	}
	v.Or(v, new(big.Int).Lsh(new(big.Int).SetUint64(laid), 1))
	off := 1 + l.laidBits
	if act != nil {
		for i, pm := range act.Params {
			var a uint64
			if i < len(args) {
				a = args[i]
			}
			av := new(big.Int).SetUint64(a)
			av.And(av, new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(pm.Width)), big.NewInt(1)))
			v.Or(v, av.Lsh(av, uint(off)))
			off += pm.Width
		}
	}
	return e.Ctx.BVBig(v, l.width())
}

// abvParams extracts the parameter terms of an action from an ABV term.
func (e *Env) abvParams(l abvLayout, abv *smt.Term, act *p4.Action) []*smt.Term {
	var out []*smt.Term
	off := 1 + l.laidBits
	for _, pm := range act.Params {
		out = append(out, e.Ctx.Extract(abv, off+pm.Width-1, off))
		off += pm.Width
	}
	return out
}

func (e *Env) abvIsDefault(abv *smt.Term) *smt.Term {
	return e.Ctx.Eq(e.Ctx.Extract(abv, 0, 0), e.Ctx.BV(1, 1))
}

func (e *Env) abvLAID(l abvLayout, abv *smt.Term) *smt.Term {
	return e.Ctx.Extract(abv, l.laidBits, 1)
}

// entriesFor resolves the entries of a table: snapshot entries win, then
// inline const entries; nil means "verify under any entries" (§2 case 2).
func (e *Env) entriesFor(ctl *p4.Control, tbl *p4.Table) []*tables.Entry {
	fq := ctl.Name + "." + tbl.Name
	if e.Snap != nil && e.Snap.Has(fq) {
		return e.Snap.Entries(fq)
	}
	if len(tbl.ConstEntries) > 0 {
		var out []*tables.Entry
		for _, ce := range tbl.ConstEntries {
			ent := &tables.Entry{Action: ce.Action, Args: append([]uint64(nil), ce.Args...), Priority: ce.Priority}
			for i := range ce.KeyVals {
				switch tbl.Keys[i].Kind {
				case p4.MatchTernary:
					ent.Keys = append(ent.Keys, tables.Ternary(ce.KeyVals[i], ce.KeyMasks[i]))
				default:
					if ce.KeyMasks[i] == 0 {
						ent.Keys = append(ent.Keys, tables.Wildcard())
					} else {
						ent.Keys = append(ent.Keys, tables.Exact(ce.KeyVals[i]))
					}
				}
			}
			out = append(out, ent)
		}
		return out
	}
	return nil
}

// matchTerm builds the match condition of one entry against key terms.
func (e *Env) matchTerm(keys []*smt.Term, tblKeys []*p4.TableKey, ent *tables.Entry) *smt.Term {
	c := e.Ctx
	cond := c.True()
	for i, km := range ent.Keys {
		if i >= len(keys) {
			break
		}
		k := keys[i]
		switch {
		case km.IsRange:
			cond = c.And(cond,
				c.Ule(c.BV(km.Value, k.Width), k),
				c.Ule(k, c.BV(km.High, k.Width)))
		case km.PrefixLen >= 0:
			// Re-derive the prefix mask at the key's real width.
			var mask uint64
			for b := 0; b < km.PrefixLen && b < k.Width; b++ {
				mask |= 1 << uint(k.Width-1-b)
			}
			mv := c.BV(mask, k.Width)
			cond = c.And(cond, c.Eq(c.BVAnd(k, mv), c.BVAnd(c.BV(km.Value, k.Width), mv)))
		case km.Mask == ^uint64(0):
			cond = c.And(cond, c.Eq(k, c.BV(km.Value, k.Width)))
		case km.Mask == 0:
			// wildcard
		default:
			mv := c.BV(km.Mask, k.Width)
			cond = c.And(cond, c.Eq(c.BVAnd(k, mv), c.BVAnd(c.BV(km.Value, k.Width), mv)))
		}
	}
	return cond
}

// encodeTableApply compiles one t.apply() site.
func (e *Env) encodeTableApply(ctl *p4.Control, tbl *p4.Table) (gcl.Stmt, error) {
	if tbl == nil {
		return nil, fmt.Errorf("encode: nil table")
	}
	fq := ctl.Name + "." + tbl.Name
	return e.reused("table "+fq, fq, func() (gcl.Stmt, error) { return e.encodeTable(ctl, tbl) })
}

func (e *Env) encodeTable(ctl *p4.Control, tbl *p4.Table) (gcl.Stmt, error) {
	c := e.Ctx
	keys := make([]*smt.Term, len(tbl.Keys))
	for i, k := range tbl.Keys {
		keys[i] = e.Expr(k.Expr, &exprScope{}, 0)
	}
	ents := e.entriesFor(ctl, tbl)
	applied := &gcl.Assign{Var: e.AppliedVar(ctl.Name, tbl.Name), Rhs: c.True()}

	var body gcl.Stmt
	var err error
	if ents == nil {
		body, err = e.encodeTableWildcard(ctl, tbl)
	} else {
		switch e.Opts.Table {
		case TableNaive:
			body, err = e.encodeTableNaive(ctl, tbl, keys, ents)
		case TableABVLinear:
			body, err = e.encodeTableABV(ctl, tbl, keys, ents, false)
		default:
			body, err = e.encodeTableABV(ctl, tbl, keys, ents, true)
		}
		if err == nil && e.Opts.RepairTables {
			// §5.2 table-entry localization: t = ite(rep, fv, entries).
			// The function variable fv is the wildcard encoding — it can
			// behave like any installable entry set.
			fv, ferr := e.encodeTableWildcard(ctl, tbl)
			if ferr != nil {
				return nil, ferr
			}
			rep := e.RepVar(ctl.Name, tbl.Name)
			e.recordTableTerms(ctl.Name+"."+tbl.Name, rep)
			body = &gcl.If{Cond: rep, Then: fv, Else: body}
		}
	}
	if err != nil {
		return nil, err
	}
	return gcl.NewSeq(applied, body), nil
}

// encodeTableABV is the §4.2 encoding: one ABV per entry, a lookup
// producing the matched ABV (balanced tree or linear chain), then a single
// dispatch where each action body is inlined exactly once.
func (e *Env) encodeTableABV(ctl *p4.Control, tbl *p4.Table, keys []*smt.Term,
	ents []*tables.Entry, balanced bool) (gcl.Stmt, error) {
	c := e.Ctx
	l := e.layoutFor(ctl, tbl)
	fq := ctl.Name + "." + tbl.Name
	memo := e.tableMemo(fq, keys, l)

	matches := make([]*smt.Term, len(ents))
	abvs := make([]*smt.Term, len(ents))
	for i, ent := range ents {
		var key []byte
		if memo != nil {
			key = memo.entryKey(ent)
			if m, a, ok := memo.entry(i, key); ok {
				matches[i], abvs[i] = m, a
				continue
			}
		}
		laid, ok := e.LAID(ctl.Name, tbl.Name, ent.Action)
		if !ok {
			return nil, fmt.Errorf("encode: entry action %q not in table %s.%s", ent.Action, ctl.Name, tbl.Name)
		}
		if tbl.DefaultOnly[ent.Action] {
			return nil, fmt.Errorf("encode: entry uses @defaultonly action %q in table %s.%s", ent.Action, ctl.Name, tbl.Name)
		}
		matches[i] = e.matchTerm(keys, tbl.Keys, ent)
		abvs[i] = e.abvConst(l, false, laid, ctl.Actions[ent.Action], ent.Args)
		memo.storeEntry(i, key, matches[i], abvs[i])
	}
	memo.prune(len(ents))
	defaultABV := e.defaultABV(ctl, tbl, l)

	var lookup, anyMatch *smt.Term
	if len(ents) == 0 {
		lookup, anyMatch = defaultABV, c.False()
	} else if balanced {
		next := 0
		lookup, anyMatch = e.abvTree(matches, abvs, 0, len(ents), memo, &next)
		lookup = c.Ite(anyMatch, lookup, defaultABV)
	} else {
		lookup = defaultABV
		anyMatch = c.False()
		for i := len(ents) - 1; i >= 0; i-- {
			link := len(ents) - 1 - i
			in := [4]*smt.Term{matches[i], abvs[i], lookup, anyMatch}
			if a, m, ok := memo.node(link, in); ok {
				lookup, anyMatch = a, m
				continue
			}
			lookup = c.Ite(matches[i], abvs[i], lookup)
			anyMatch = c.Or(anyMatch, matches[i])
			memo.storeNode(link, in, lookup, anyMatch)
		}
	}

	e.recordTableTerms(fq, matches...)
	e.recordTableTerms(fq, abvs...)
	e.recordTableTerms(fq, defaultABV, lookup, anyMatch)

	abvVar := e.FreshVar("abv."+fq, l.width())
	var out []gcl.Stmt
	out = append(out,
		&gcl.Assign{Var: abvVar, Rhs: lookup},
		&gcl.Assign{Var: e.HitVar(ctl.Name, tbl.Name), Rhs: anyMatch},
		&gcl.Assign{Var: e.ActionVar(ctl.Name, tbl.Name),
			Rhs: c.Ite(e.abvIsDefault(abvVar), c.BV(0, 16), c.Resize(e.abvLAID(l, abvVar), 16))},
	)
	dispatch, err := e.abvDispatch(ctl, tbl, l, abvVar)
	if err != nil {
		return nil, err
	}
	out = append(out, dispatch)
	return gcl.NewSeq(out...), nil
}

// abvTree builds the balanced lookup of §4.2:
//
//	ABV_{l,r} = ite(Match_{l,mid}, ABV_{l,mid}, ABV_{mid,r})
//	Match_{l,r} = Match_{l,mid} ∨ Match_{mid,r}
//
// which keeps first-match priority while reducing lookup depth to O(log n).
// Inner nodes are numbered in post-order from *next; a node the memo built
// from the same children is not built again.
func (e *Env) abvTree(matches, abvs []*smt.Term, l, r int, memo *tableMemo, next *int) (abv, match *smt.Term) {
	if r-l == 1 {
		return abvs[l], matches[l]
	}
	mid := (l + r) / 2
	la, lm := e.abvTree(matches, abvs, l, mid, memo, next)
	ra, rm := e.abvTree(matches, abvs, mid, r, memo, next)
	i := *next
	*next++
	in := [4]*smt.Term{lm, la, rm, ra}
	if abv, match, ok := memo.node(i, in); ok {
		return abv, match
	}
	abv, match = e.Ctx.Ite(lm, la, ra), e.Ctx.Or(lm, rm)
	memo.storeNode(i, in, abv, match)
	return abv, match
}

func (e *Env) defaultABV(ctl *p4.Control, tbl *p4.Table, l abvLayout) *smt.Term {
	if tbl.DefaultAction == "" || tbl.DefaultAction == "NoAction" {
		return e.abvConst(l, true, 0, nil, nil)
	}
	act := ctl.Actions[tbl.DefaultAction]
	args := make([]uint64, len(tbl.DefaultArgs))
	for i, a := range tbl.DefaultArgs {
		if lit, ok := a.(*p4.IntLit); ok {
			args[i] = lit.Val
		}
	}
	return e.abvConst(l, true, 0, act, args)
}

// abvDispatch runs the selected action based on the ABV: each action body
// appears exactly once, with parameters sliced from the ABV.
func (e *Env) abvDispatch(ctl *p4.Control, tbl *p4.Table, l abvLayout, abv *smt.Term) (gcl.Stmt, error) {
	c := e.Ctx
	isDefault := e.abvIsDefault(abv)
	laid := e.abvLAID(l, abv)

	var chain gcl.Stmt = &gcl.Skip{}
	// Hit path: dispatch over LAIDs, last-to-first.
	for i := len(tbl.Actions) - 1; i >= 0; i-- {
		an := tbl.Actions[i]
		act := ctl.Actions[an]
		if act == nil { // NoAction
			continue
		}
		id, _ := e.LAID(ctl.Name, tbl.Name, an)
		body, err := e.inlineAction(ctl, act, e.abvParams(l, abv, act))
		if err != nil {
			return nil, err
		}
		chain = &gcl.If{Cond: c.Eq(laid, c.BV(id, l.laidBits)), Then: body, Else: chain}
	}
	// Default path.
	var defaultBody gcl.Stmt = &gcl.Skip{}
	if act := ctl.Actions[tbl.DefaultAction]; act != nil {
		body, err := e.inlineAction(ctl, act, e.abvParams(l, abv, act))
		if err != nil {
			return nil, err
		}
		defaultBody = body
	}
	return &gcl.If{Cond: isDefault, Then: defaultBody, Else: chain}, nil
}

// encodeTableNaive inlines every entry as its own if-else branch with the
// action body duplicated per entry — the Appendix B.3 strawman whose
// expression size grows quadratically in the branch count.
func (e *Env) encodeTableNaive(ctl *p4.Control, tbl *p4.Table, keys []*smt.Term,
	ents []*tables.Entry) (gcl.Stmt, error) {
	c := e.Ctx
	hit := e.HitVar(ctl.Name, tbl.Name)
	actionVar := e.ActionVar(ctl.Name, tbl.Name)

	// Default branch.
	var chain gcl.Stmt
	{
		var body gcl.Stmt = &gcl.Skip{}
		if act := ctl.Actions[tbl.DefaultAction]; act != nil {
			args := make([]*smt.Term, len(act.Params))
			for i, pm := range act.Params {
				var v uint64
				if i < len(tbl.DefaultArgs) {
					if lit, ok := tbl.DefaultArgs[i].(*p4.IntLit); ok {
						v = lit.Val
					}
				}
				args[i] = c.BV(v, pm.Width)
			}
			b, err := e.inlineAction(ctl, act, args)
			if err != nil {
				return nil, err
			}
			body = b
		}
		chain = gcl.NewSeq(
			&gcl.Assign{Var: hit, Rhs: c.False()},
			&gcl.Assign{Var: actionVar, Rhs: c.BV(0, 16)},
			body,
		)
	}
	total := 0
	for i := len(ents) - 1; i >= 0; i-- {
		ent := ents[i]
		act := ctl.Actions[ent.Action]
		laid, ok := e.LAID(ctl.Name, tbl.Name, ent.Action)
		if !ok {
			return nil, fmt.Errorf("encode: entry action %q not in table %s.%s", ent.Action, ctl.Name, tbl.Name)
		}
		var args []*smt.Term
		if act != nil {
			args = make([]*smt.Term, len(act.Params))
			for j, pm := range act.Params {
				var v uint64
				if j < len(ent.Args) {
					v = ent.Args[j]
				}
				args[j] = c.BV(v, pm.Width)
			}
		}
		var body gcl.Stmt = &gcl.Skip{}
		if act != nil {
			b, err := e.inlineAction(ctl, act, args)
			if err != nil {
				return nil, err
			}
			body = b
		}
		branch := gcl.NewSeq(
			&gcl.Assign{Var: hit, Rhs: c.True()},
			&gcl.Assign{Var: actionVar, Rhs: c.BV(laid, 16)},
			body,
		)
		match := e.matchTerm(keys, tbl.Keys, ent)
		e.recordTableTerms(ctl.Name+"."+tbl.Name, match)
		chain = &gcl.If{Cond: match, Then: branch, Else: chain}
		total += gcl.Size(branch)
		if total > e.Opts.TreeCap {
			return nil, &ErrExplosion{Mode: "naive-table", Size: total}
		}
	}
	return chain, nil
}

// encodeTableWildcard encodes a table with unknown contents (§2 case 2):
// the table may hit with any non-@defaultonly action and arbitrary
// parameters, or miss and run the default action.
func (e *Env) encodeTableWildcard(ctl *p4.Control, tbl *p4.Table) (gcl.Stmt, error) {
	c := e.Ctx
	// Free choices are named deterministically per table so the self-
	// validator's alternative representation shares them (§6).
	fq := ctl.Name + "." + tbl.Name
	hit := c.BoolVar("$tbl." + fq + ".hit")
	laid := c.Var("$tbl."+fq+".laid", 16)
	e.recordTableTerms(fq, hit, laid)
	var out []gcl.Stmt
	out = append(out, &gcl.Assign{Var: e.HitVar(ctl.Name, tbl.Name), Rhs: hit})

	// Hit: dispatch over the installable actions with havoced parameters.
	// The action selector is clamped into the installable range rather
	// than assumed: an assume here would let a demonic selector value kill
	// the execution path, which is unsound for the localization queries
	// that require assertions to hold (§5.2).
	var candidates []uint64
	for _, an := range tbl.Actions {
		if tbl.DefaultOnly[an] && e.Opts.InjectEncoderBug != "ignore-defaultonly" {
			continue // @defaultonly actions cannot be installed in entries (§7.2)
		}
		id, _ := e.LAID(ctl.Name, tbl.Name, an)
		candidates = append(candidates, id)
	}
	if len(candidates) == 0 {
		// Nothing installable: the table can only miss.
		out = append(out, &gcl.Assign{Var: e.HitVar(ctl.Name, tbl.Name), Rhs: c.False()})
	}
	inRange := c.False()
	for _, id := range candidates {
		inRange = c.Or(inRange, c.Eq(laid, c.BV(id, 16)))
	}
	clamped := laid
	if len(candidates) > 0 {
		clamped = c.Ite(inRange, laid, c.BV(candidates[0], 16))
	}
	var hitChain gcl.Stmt = &gcl.Skip{}
	for i := len(tbl.Actions) - 1; i >= 0; i-- {
		an := tbl.Actions[i]
		if tbl.DefaultOnly[an] && e.Opts.InjectEncoderBug != "ignore-defaultonly" {
			continue
		}
		act := ctl.Actions[an]
		if act == nil {
			continue
		}
		id, _ := e.LAID(ctl.Name, tbl.Name, an)
		args := make([]*smt.Term, len(act.Params))
		var pre []gcl.Stmt
		for j, pm := range act.Params {
			args[j] = c.Var(fmt.Sprintf("$tbl.%s.%s.arg.%s.%d", ctl.Name, tbl.Name, an, j), pm.Width)
			e.recordTableTerms(fq, args[j])
		}
		body, err := e.inlineAction(ctl, act, args)
		if err != nil {
			return nil, err
		}
		hitChain = &gcl.If{Cond: c.Eq(clamped, c.BV(id, 16)), Then: gcl.NewSeq(append(pre, body)...), Else: hitChain}
	}
	if len(candidates) == 0 {
		hitChain = &gcl.Skip{}
	}
	hitBranch := gcl.NewSeq(
		&gcl.Assign{Var: e.ActionVar(ctl.Name, tbl.Name), Rhs: clamped},
		hitChain,
	)
	if len(candidates) == 0 {
		hitBranch = &gcl.Skip{}
	}

	// Miss: default action with its configured (or havoced) arguments.
	var missBody gcl.Stmt = &gcl.Skip{}
	if act := ctl.Actions[tbl.DefaultAction]; act != nil {
		args := make([]*smt.Term, len(act.Params))
		var pre []gcl.Stmt
		for j, pm := range act.Params {
			if j < len(tbl.DefaultArgs) {
				if lit, ok := tbl.DefaultArgs[j].(*p4.IntLit); ok {
					args[j] = c.BV(lit.Val, pm.Width)
					continue
				}
			}
			args[j] = c.Var(fmt.Sprintf("$tbl.%s.%s.defarg.%d", ctl.Name, tbl.Name, j), pm.Width)
			e.recordTableTerms(fq, args[j])
		}
		body, err := e.inlineAction(ctl, act, args)
		if err != nil {
			return nil, err
		}
		missBody = gcl.NewSeq(append(pre, body)...)
	}
	missBranch := gcl.NewSeq(
		&gcl.Assign{Var: e.ActionVar(ctl.Name, tbl.Name), Rhs: c.BV(0, 16)},
		missBody,
	)
	if len(candidates) == 0 {
		// No installable action: the table can only miss.
		out = append(out, missBranch)
	} else {
		out = append(out, &gcl.If{Cond: hit, Then: hitBranch, Else: missBranch})
	}
	return gcl.NewSeq(out...), nil
}
