package encode

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"aquila/internal/gcl"
	"aquila/internal/p4"
	"aquila/internal/smt"
	"aquila/internal/tables"
)

const memoProgram = `
header ethernet_t { bit<48> dst; bit<48> src; bit<16> etherType; }
header ipv4_t { bit<8> ttl; bit<8> protocol; bit<32> src_ip; bit<32> dst_ip; }
ethernet_t eth;
ipv4_t ipv4;
struct meta_t { bit<16> h; }
meta_t meta;

parser P {
	state start {
		extract(eth);
		transition select(eth.etherType) {
			0x0800: parse_ipv4;
			default: accept;
		}
	}
	state parse_ipv4 { extract(ipv4); transition accept; }
}

control Ing {
	action send(bit<9> port) { std_meta.egress_spec = port; }
	action a_drop() { drop(); }
	action mark() { hash(meta.h, ipv4.src_ip); }
	table fwd {
		key = { ipv4.dst_ip : exact; }
		actions = { send; a_drop; }
		default_action = a_drop;
	}
	table route {
		key = { ipv4.dst_ip : lpm; }
		actions = { send; a_drop; }
		default_action = a_drop;
	}
	table acl {
		key = { ipv4.src_ip : ternary; ipv4.protocol : exact; }
		actions = { mark; a_drop; }
		default_action = mark;
	}
	apply {
		if (ipv4.isValid()) { fwd.apply(); route.apply(); acl.apply(); }
	}
}

deparser D { emit(eth); emit(ipv4); }
pipeline ingress { parser = P; control = Ing; deparser = D; }
`

var memoTables = []string{"Ing.fwd", "Ing.route", "Ing.acl"}

// memoEntry draws an entry for table fq from a small value space, so
// sequences revisit contents the memo has seen.
func memoEntry(rng *rand.Rand, fq string) *tables.Entry {
	e := &tables.Entry{Action: "a_drop", Priority: -1}
	switch fq {
	case "Ing.fwd":
		e.Keys = []tables.KeyMatch{tables.Exact(uint64(rng.Intn(12)))}
	case "Ing.route":
		e.Keys = []tables.KeyMatch{tables.LPM(uint64(rng.Intn(4))<<24|uint64(rng.Intn(3))<<16, 8*(1+rng.Intn(4)), 32)}
	case "Ing.acl":
		masks := []uint64{0xff000000, 0xffff0000, 0}
		e.Keys = []tables.KeyMatch{tables.Ternary(uint64(rng.Intn(4))<<24, masks[rng.Intn(len(masks))]), tables.Exact(uint64(rng.Intn(3)))}
		if rng.Intn(2) == 0 {
			e.Action = "mark"
		}
		return e
	}
	if rng.Intn(3) > 0 {
		e.Action, e.Args = "send", []uint64{uint64(1 + rng.Intn(4))}
	}
	return e
}

// memoDelta draws one to three operations: replaces, adds (which append
// and so shift the match order of LPM entries) and removes (which shift
// every later entry), on any table.
func memoDelta(rng *rand.Rand, snap *tables.Snapshot) *tables.Delta {
	d := &tables.Delta{}
	sizes := map[string]int{}
	for _, fq := range memoTables {
		sizes[fq] = len(snap.Entries(fq))
	}
	for range 1 + rng.Intn(3) {
		fq := memoTables[rng.Intn(len(memoTables))]
		n := sizes[fq]
		switch k := rng.Intn(4); {
		case n == 0 || k == 0:
			d.Ops = append(d.Ops, tables.DeltaOp{Kind: tables.OpAdd, Table: fq, Entry: memoEntry(rng, fq)})
			sizes[fq]++
		case k == 1:
			d.Ops = append(d.Ops, tables.DeltaOp{Kind: tables.OpRemove, Table: fq, Index: rng.Intn(n)})
			sizes[fq]--
		default:
			d.Ops = append(d.Ops, tables.DeltaOp{Kind: tables.OpReplace, Table: fq, Index: rng.Intn(n), Entry: memoEntry(rng, fq)})
		}
	}
	return d
}

// stmtTerms lists every term a GCL statement holds, in statement order.
func stmtTerms(s gcl.Stmt) []*smt.Term {
	var out []*smt.Term
	var walk func(gcl.Stmt)
	walk = func(s gcl.Stmt) {
		switch x := s.(type) {
		case *gcl.Assign:
			out = append(out, x.Var, x.Rhs)
		case *gcl.Havoc:
			out = append(out, x.Var)
		case *gcl.Assume:
			out = append(out, x.Cond)
		case *gcl.Assert:
			out = append(out, x.Cond)
		case *gcl.Seq:
			for _, st := range x.Stmts {
				walk(st)
			}
		case *gcl.If:
			out = append(out, x.Cond)
			walk(x.Then)
			walk(x.Else)
		case *gcl.Choice:
			walk(x.A)
			walk(x.B)
		case *gcl.While:
			out = append(out, x.Cond)
			walk(x.Body)
		}
	}
	walk(s)
	return out
}

func termIDs(ts []*smt.Term) []int {
	ids := make([]int, len(ts))
	for i, t := range ts {
		ids[i] = t.ID
	}
	return ids
}

// TestIncrementalTableEncoding drives seeded delta sequences through an
// Env attached to one Reuse (its table lookup memo surviving each
// Forget) and requires, after every delta:
//
//   - the same GCL, term for term by pointer, and the same recorded
//     table terms as a memo-free Env on the same context, which must
//     create no term the memo path did not;
//   - the same Ctx.NumTerms and the same term IDs as a context that only
//     ever encoded without a Reuse, so the memo creates exactly the terms
//     a full re-encoding creates, in the same order;
//   - the same for one table's lookup re-encoded over other key terms,
//     where the memo built on the table's own keys must not answer.
//
// It covers exact, LPM and ternary keys, the balanced tree, the linear
// chain and RepairTables.
func TestIncrementalTableEncoding(t *testing.T) {
	prog, err := p4.ParseAndCheck("memo", memoProgram)
	if err != nil {
		t.Fatal(err)
	}
	ctl := prog.Controls["Ing"]
	modes := []struct {
		name string
		opts Options
	}{
		{"tree", Options{}},
		{"linear", Options{Table: TableABVLinear}},
		{"repair", Options{RepairTables: true}},
	}
	for _, mode := range modes {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", mode.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				snap := tables.NewSnapshot()
				for _, fq := range memoTables {
					for range 3 + rng.Intn(6) {
						snap.Add(fq, memoEntry(rng, fq))
					}
				}
				memoCtx, plainCtx := smt.NewCtx(), smt.NewCtx()
				r := NewReuse()
				encode := func(ctx *smt.Ctx, r *Reuse) (gcl.Stmt, *Env) {
					env := NewEnv(ctx, prog, snap, mode.opts)
					if r != nil {
						env.SetReuse(r)
					}
					st, err := env.EncodeComponent("ingress")
					if err != nil {
						t.Fatal(err)
					}
					return st, env
				}
				// lookupOver encodes fwd's lookup over the source address
				// in place of its key.
				lookupOver := func(env *Env) gcl.Stmt {
					tbl := ctl.Tables["fwd"]
					keys := []*smt.Term{env.FieldVar("ipv4", "src_ip")}
					st, err := env.encodeTableABV(ctl, tbl, keys, env.entriesFor(ctl, tbl), mode.opts.Table != TableABVLinear)
					if err != nil {
						t.Fatal(err)
					}
					return st
				}
				same := func(step string, got, want gcl.Stmt, genv, wenv *Env) {
					t.Helper()
					if gcl.Pretty(got) != gcl.Pretty(want) || !slices.Equal(stmtTerms(got), stmtTerms(want)) {
						t.Fatalf("%s: GCL differs from the memo-free encoding", step)
					}
					for _, fq := range memoTables {
						if !slices.Equal(genv.TableTerms(fq), wenv.TableTerms(fq)) {
							t.Fatalf("%s: table terms of %s differ from the memo-free encoding", step, fq)
						}
					}
				}
				for step := 0; step < 30; step++ {
					name := "baseline"
					if step > 0 {
						d := memoDelta(rng, snap)
						if snap, err = d.ApplyCopy(snap); err != nil {
							t.Fatal(err)
						}
						for _, fq := range d.Tables() {
							r.Forget(fq)
						}
						name = fmt.Sprintf("delta %d (%s)", step, tables.FormatDelta(d))
					}
					got, genv := encode(memoCtx, r)
					n := memoCtx.NumTerms()
					plain, penv := encode(plainCtx, nil)
					if n != plainCtx.NumTerms() {
						t.Fatalf("%s: NumTerms %d, want %d as without a Reuse", name, n, plainCtx.NumTerms())
					}
					if !slices.Equal(termIDs(stmtTerms(got)), termIDs(stmtTerms(plain))) {
						t.Fatalf("%s: term IDs differ from encoding without a Reuse", name)
					}
					for _, fq := range memoTables {
						if !slices.Equal(termIDs(genv.TableTerms(fq)), termIDs(penv.TableTerms(fq))) {
							t.Fatalf("%s: term IDs of %s's table terms differ from encoding without a Reuse", name, fq)
						}
					}
					want, wenv := encode(memoCtx, nil)
					same(name, got, want, genv, wenv)
					if memoCtx.NumTerms() != n {
						t.Fatalf("%s: the memo-free encoding created %d terms the memo path did not", name, memoCtx.NumTerms()-n)
					}

					if len(snap.Entries("Ing.fwd")) == 0 {
						continue
					}
					// The memos go to the other-keys Env through a copy of
					// the Reuse, which leaves r's own memos as they are for
					// the sequence to go on with. The plain context encodes
					// the same lookup, so the two keep creating the same terms.
					menv := NewEnv(memoCtx, prog, snap, mode.opts)
					menv.reuse = &Reuse{tables: maps.Clone(r.tables)}
					got = lookupOver(menv)
					n = memoCtx.NumTerms()
					lookupOver(NewEnv(plainCtx, prog, snap, mode.opts))
					if n != plainCtx.NumTerms() {
						t.Fatalf("%s, other keys: NumTerms %d, want %d as without a Reuse", name, n, plainCtx.NumTerms())
					}
					fenv := NewEnv(memoCtx, prog, snap, mode.opts)
					same(name+", other keys", got, lookupOver(fenv), menv, fenv)
				}
			})
		}
	}
}
