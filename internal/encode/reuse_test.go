package encode

import (
	"slices"
	"testing"

	"aquila/internal/gcl"
	"aquila/internal/p4"
	"aquila/internal/smt"
	"aquila/internal/tables"
)

const reuseProgram = `
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
	table acl {
		key = { ipv4.src_ip : ternary; }
		actions = { mark; a_drop; }
		default_action = mark;
	}
	apply {
		if (ipv4.isValid()) { fwd.apply(); acl.apply(); }
	}
}

deparser D { emit(eth); emit(ipv4); }
pipeline ingress { parser = P; control = Ing; deparser = D; }
`

// TestReuseMatchesEncoding encodes a program twice per snapshot over one
// context, through a Reuse and without one, and requires the same GCL,
// naming counters and table-term index: after an unchanged snapshot, where
// every part is replayed, and after a table's entries change and Forget
// drops its encoding.
func TestReuseMatchesEncoding(t *testing.T) {
	prog, err := p4.ParseAndCheck("reuse", reuseProgram)
	if err != nil {
		t.Fatal(err)
	}
	snap := func(fwd string) *tables.Snapshot {
		s, err := tables.ParseSnapshot("table Ing.fwd {\n" + fwd + "\n}\ntable Ing.acl {\n  0x0a000000 &&& 0xff000000 -> a_drop\n}\n")
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ctx := smt.NewCtx()
	r := NewReuse()
	encode := func(s *tables.Snapshot, r *Reuse) (gcl.Stmt, *Env) {
		env := NewEnv(ctx, prog, s, Options{})
		if r != nil {
			env.SetReuse(r)
		}
		var parts []gcl.Stmt
		for range 2 { // a second call starts from other counters
			st, err := env.EncodeComponent("ingress")
			if err != nil {
				t.Fatal(err)
			}
			parts = append(parts, st)
		}
		return gcl.NewSeq(parts...), env
	}
	check := func(step string, s *tables.Snapshot) {
		t.Helper()
		got, genv := encode(s, r)
		want, wenv := encode(s, nil)
		if gcl.Pretty(got) != gcl.Pretty(want) {
			t.Fatalf("%s: GCL differs from encoding without reuse", step)
		}
		if genv.fresh != wenv.fresh || genv.hashSeq != wenv.hashSeq {
			t.Fatalf("%s: counters %d/%d, want %d/%d", step, genv.fresh, genv.hashSeq, wenv.fresh, wenv.hashSeq)
		}
		for _, fq := range []string{"Ing.fwd", "Ing.acl"} {
			if !slices.Equal(genv.TableTerms(fq), wenv.TableTerms(fq)) {
				t.Fatalf("%s: table terms of %s differ", step, fq)
			}
		}
	}
	replayed := func(step string, want map[string]bool) {
		t.Helper()
		for k, p := range r.cur {
			if got := r.last[k] == p; got != want[k.name] {
				t.Fatalf("%s: part %q replayed %v, want %v", step, k.name, got, want[k.name])
			}
		}
	}

	a, b := snap("  1 -> send(1)"), snap("  1 -> send(1)\n  2 -> send(2)")
	check("first encoding", a)
	replayed("first encoding", nil)
	check("unchanged snapshot", a)
	replayed("unchanged snapshot", map[string]bool{"parser P": true, "deparser D": true, "table Ing.fwd": true, "table Ing.acl": true})
	r.Forget("Ing.fwd")
	check("changed fwd entries", b)
	replayed("changed fwd entries", map[string]bool{"parser P": true, "deparser D": true, "table Ing.acl": true})
}
