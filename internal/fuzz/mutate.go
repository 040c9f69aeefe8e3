package fuzz

import (
	"fmt"
	"math/rand"

	"aquila/internal/p4"
	"aquila/internal/tables"
)

// Mutator applies seeded structural mutations to a parsed P4lite program
// (and its table snapshot). Mutations are AST-level — drop/duplicate/insert
// statements, widen or narrow fields, perturb select cases and transition
// targets, empty parser states, toggle validity guards, mark table actions
// @defaultonly, rewrite const entries and snapshot entry priorities — so
// every mutant is near-well-formed and most survive the type checker
// (byte-level mutation would almost always die in the lexer instead of
// reaching the encoder). Candidate collection walks the AST in declaration
// order only, so a Mutator with the same seed produces the same edit
// sequence on the same input.
type Mutator struct {
	rng *rand.Rand
}

// NewMutator returns a mutator with a deterministic random stream.
func NewMutator(seed int64) *Mutator {
	return &Mutator{rng: rand.New(rand.NewSource(seed))}
}

// candidate is one applicable edit: apply mutates the AST in place.
type candidate struct {
	desc  string
	apply func()
}

// Mutate applies up to n random mutations to prog in place and returns
// descriptions of the edits made. Candidates are re-collected after each
// edit so compound mutations stay well-defined. The caller re-prints and
// re-typechecks the program; mutants that no longer check are simply
// discarded upstream.
func (m *Mutator) Mutate(prog *p4.Program, n int) []string {
	var applied []string
	for i := 0; i < n; i++ {
		cands := m.collect(prog)
		if len(cands) == 0 {
			break
		}
		c := cands[m.rng.Intn(len(cands))]
		c.apply()
		applied = append(applied, c.desc)
	}
	return applied
}

// block is a mutable statement list location in the AST.
type block struct {
	where string
	get   func() []p4.Stmt
	set   func([]p4.Stmt)
}

// blocks lists every statement list in the program, in declaration order.
func blocks(prog *p4.Program) []block {
	var out []block
	for _, pn := range sortedKeys(prog.Parsers) {
		par := prog.Parsers[pn]
		for _, sn := range stateOrder(par) {
			st := par.States[sn]
			out = append(out, block{
				where: fmt.Sprintf("parser %s state %s", pn, sn),
				get:   func() []p4.Stmt { return st.Stmts },
				set:   func(s []p4.Stmt) { st.Stmts = s },
			})
		}
	}
	for _, cn := range sortedKeys(prog.Controls) {
		ctl := prog.Controls[cn]
		for _, an := range memberOrder(ctl) {
			act, ok := ctl.Actions[an]
			if !ok {
				continue
			}
			out = append(out, block{
				where: fmt.Sprintf("control %s action %s", cn, an),
				get:   func() []p4.Stmt { return act.Body },
				set:   func(s []p4.Stmt) { act.Body = s },
			})
		}
		out = append(out, block{
			where: fmt.Sprintf("control %s apply", cn),
			get:   func() []p4.Stmt { return ctl.Apply },
			set:   func(s []p4.Stmt) { ctl.Apply = s },
		})
	}
	for _, dn := range sortedKeys(prog.Deparsers) {
		dp := prog.Deparsers[dn]
		out = append(out, block{
			where: fmt.Sprintf("deparser %s", dn),
			get:   func() []p4.Stmt { return dp.Stmts },
			set:   func(s []p4.Stmt) { dp.Stmts = s },
		})
	}
	return out
}

// collect enumerates every applicable single edit, in a deterministic
// order.
func (m *Mutator) collect(prog *p4.Program) []candidate {
	var cands []candidate
	add := func(desc string, apply func()) {
		cands = append(cands, candidate{desc: desc, apply: apply})
	}

	headerInsts := headerInstances(prog)

	// --- Statement-level edits over every block ---
	for _, b := range blocks(prog) {
		list := b.get()
		for i := range list {
			add(fmt.Sprintf("drop stmt %d in %s", i, b.where), func() {
				l := b.get()
				b.set(append(append([]p4.Stmt{}, l[:i]...), l[i+1:]...))
			})
			add(fmt.Sprintf("dup stmt %d in %s", i, b.where), func() {
				l := b.get()
				out := append([]p4.Stmt{}, l[:i+1]...)
				out = append(out, l[i])
				out = append(out, l[i+1:]...)
				b.set(out)
			})
		}
		if len(list) > 0 {
			add(fmt.Sprintf("clear all stmts in %s", b.where), func() {
				b.set(nil)
			})
		}
		if len(headerInsts) > 0 {
			inst := headerInsts[m.rng.Intn(len(headerInsts))]
			valid := m.rng.Intn(2) == 0
			add(fmt.Sprintf("insert set%sValid(%s) in %s", map[bool]string{true: "", false: "In"}[valid], inst, b.where), func() {
				b.set(append([]p4.Stmt{&p4.SetValidStmt{Header: inst, Valid: valid}}, b.get()...))
			})
		}
	}

	// --- Validity-guard toggles in control apply blocks ---
	for _, cn := range sortedKeys(prog.Controls) {
		ctl := prog.Controls[cn]
		for i, s := range ctl.Apply {
			i, s := i, s
			if ifs, ok := s.(*p4.IfStmt); ok {
				if _, isGuard := ifs.Cond.(*p4.IsValidExpr); isGuard && len(ifs.Else) == 0 {
					add(fmt.Sprintf("unwrap isValid guard at apply[%d] in %s", i, cn), func() {
						out := append([]p4.Stmt{}, ctl.Apply[:i]...)
						out = append(out, ifs.Then...)
						out = append(out, ctl.Apply[i+1:]...)
						ctl.Apply = out
					})
				}
			}
			if ap, ok := s.(*p4.ApplyStmt); ok && len(headerInsts) > 0 {
				inst := headerInsts[m.rng.Intn(len(headerInsts))]
				add(fmt.Sprintf("wrap %s.apply() in %s.isValid() guard in %s", ap.Table, inst, cn), func() {
					ctl.Apply[i] = &p4.IfStmt{
						Cond: &p4.IsValidExpr{Instance: inst},
						Then: []p4.Stmt{ap},
					}
				})
			}
		}
	}

	// --- Field width changes ---
	for _, hn := range sortedKeys(prog.Headers) {
		h := prog.Headers[hn]
		for _, f := range h.Fields {
			f := f
			if f.Width < 61 {
				add(fmt.Sprintf("widen %s.%s to %d bits", hn, f.Name, f.Width+4), func() {
					f.Width += 4
				})
			}
			if f.Width > 4 {
				add(fmt.Sprintf("narrow %s.%s to %d bits", hn, f.Name, f.Width-3), func() {
					f.Width -= 3
				})
			}
		}
	}

	// --- Parser transition and select-case edits ---
	for _, pn := range sortedKeys(prog.Parsers) {
		par := prog.Parsers[pn]
		states := stateOrder(par)
		targets := append(append([]string{}, states...), "accept", "reject")
		for _, sn := range states {
			st := par.States[sn]
			tr := st.Trans
			if tr == nil {
				continue
			}
			switch tr.Kind {
			case p4.TransDirect:
				tgt := targets[m.rng.Intn(len(targets))]
				if tgt != tr.Target {
					add(fmt.Sprintf("retarget %s.%s -> %s", pn, sn, tgt), func() {
						tr.Target = tgt
					})
				}
			case p4.TransSelect:
				for ci, c := range tr.Cases {
					if !c.IsDefault {
						add(fmt.Sprintf("perturb select value in %s.%s case %d", pn, sn, ci), func() {
							c.Val = uint64(m.rng.Intn(256))
						})
						add(fmt.Sprintf("toggle mask on %s.%s case %d", pn, sn, ci), func() {
							if c.HasMask {
								c.HasMask, c.Mask = false, 0
							} else {
								c.HasMask, c.Mask = true, uint64(1+m.rng.Intn(255))
							}
						})
					}
					tgt := targets[m.rng.Intn(len(targets))]
					if tgt != c.Target {
						add(fmt.Sprintf("retarget %s.%s case %d -> %s", pn, sn, ci, tgt), func() {
							c.Target = tgt
						})
					}
					if len(tr.Cases) > 1 {
						add(fmt.Sprintf("drop select case %d in %s.%s", ci, pn, sn), func() {
							tr.Cases = append(append([]*p4.SelectCase{}, tr.Cases[:ci]...), tr.Cases[ci+1:]...)
						})
					}
				}
			}
		}
	}

	// --- Table edits ---
	for _, cn := range sortedKeys(prog.Controls) {
		ctl := prog.Controls[cn]
		for _, tn := range memberOrder(ctl) {
			tbl, ok := ctl.Tables[tn]
			if !ok {
				continue
			}
			for _, an := range tbl.Actions {
				if !tbl.DefaultOnly[an] {
					add(fmt.Sprintf("mark %s.%s action %s @defaultonly", cn, tn, an), func() {
						if tbl.DefaultOnly == nil {
							tbl.DefaultOnly = map[string]bool{}
						}
						tbl.DefaultOnly[an] = true
						if act := ctl.Actions[an]; act != nil {
							act.DefaultOnly = true
						}
					})
				}
				if an != tbl.DefaultAction {
					add(fmt.Sprintf("set %s.%s default_action = %s", cn, tn, an), func() {
						tbl.DefaultAction = an
						tbl.DefaultArgs = defaultArgsFor(ctl, an)
					})
				}
			}
			for ei, e := range tbl.ConstEntries {
				for ki := range e.KeyVals {
					add(fmt.Sprintf("perturb const entry %d key %d in %s.%s", ei, ki, cn, tn), func() {
						e.KeyVals[ki] = uint64(m.rng.Intn(256))
					})
				}
				add(fmt.Sprintf("drop const entry %d in %s.%s", ei, cn, tn), func() {
					tbl.ConstEntries = append(append([]*p4.ConstEntry{}, tbl.ConstEntries[:ei]...), tbl.ConstEntries[ei+1:]...)
				})
			}
		}
	}

	// --- Pipeline recirculation bound ---
	for _, pln := range sortedKeys(prog.Pipelines) {
		pl := prog.Pipelines[pln]
		if pl.Recirc > 0 {
			add(fmt.Sprintf("recirc %s -> %d", pln, pl.Recirc-1), func() {
				pl.Recirc--
			})
		}
	}

	return cands
}

// defaultArgsFor builds zero-valued argument expressions matching an
// action's parameter list, so a mutated default_action stays well-typed.
func defaultArgsFor(ctl *p4.Control, action string) []p4.Expr {
	act := ctl.Actions[action]
	if act == nil {
		return nil
	}
	out := make([]p4.Expr, len(act.Params))
	for i := range act.Params {
		out[i] = &p4.IntLit{Val: 0}
	}
	return out
}

// headerInstances lists header (not struct) instance names in declaration
// order.
func headerInstances(prog *p4.Program) []string {
	var out []string
	for _, inst := range prog.Instances {
		if inst.IsHeader {
			out = append(out, inst.Name)
		}
	}
	return out
}

// MutateSnapshot applies up to n seeded edits to a table snapshot clone:
// perturb entry priorities and key values, drop entries, wildcard a key.
// The original snapshot is never modified; the mutated clone is returned
// together with descriptions of the edits.
func (m *Mutator) MutateSnapshot(snap *tables.Snapshot, n int) (*tables.Snapshot, []string) {
	if snap == nil {
		return nil, nil
	}
	out := snap.Clone()
	var applied []string
	for i := 0; i < n; i++ {
		var cands []candidate
		for _, tn := range out.Tables() {
			es := out.Entries(tn)
			for ei, e := range es {
				cands = append(cands, candidate{
					desc: fmt.Sprintf("entry %d in %s: priority %d -> random", ei, tn, e.Priority),
					apply: func() {
						e.Priority = m.rng.Intn(16)
					},
				})
				for ki := range e.Keys {
					cands = append(cands, candidate{
						desc: fmt.Sprintf("entry %d in %s: perturb key %d", ei, tn, ki),
						apply: func() {
							e.Keys[ki].Value = uint64(m.rng.Intn(256))
						},
					})
					if e.Keys[ki].Mask != 0 {
						cands = append(cands, candidate{
							desc: fmt.Sprintf("entry %d in %s: wildcard key %d", ei, tn, ki),
							apply: func() {
								e.Keys[ki] = tables.Wildcard()
							},
						})
					}
				}
				if len(es) > 1 {
					cands = append(cands, candidate{
						desc: fmt.Sprintf("drop entry %d in %s", ei, tn),
						apply: func() {
							rest := append(append([]*tables.Entry{}, es[:ei]...), es[ei+1:]...)
							out.Remove(tn)
							for _, r := range rest {
								out.Add(tn, r)
							}
						},
					})
				}
			}
		}
		if len(cands) == 0 {
			break
		}
		c := cands[m.rng.Intn(len(cands))]
		c.apply()
		applied = append(applied, c.desc)
		// An edit may change an entry's priority or keys in place, which
		// the snapshot's cached match order does not see; a clone orders
		// afresh.
		out = out.Clone()
	}
	return out, applied
}
