package localize

import (
	"strings"
	"testing"

	"aquila/internal/lpi"
	"aquila/internal/p4"
	"aquila/internal/tables"
	"aquila/internal/verify"
)

// ttlProgram is the paper's Figure 4 / Figure 9 setting: actions copy the
// TTL through metadata, decrement it, and write it back.
const ttlProgramGood = `
header ipv4_t { bit<8> ttl; bit<32> dst_ip; }
struct meta_t { bit<8> ttl; }
ipv4_t ipv4;
meta_t ig_md;

parser P { state start { extract(ipv4); transition accept; } }

control BugExample {
	action a1() { ig_md.ttl = ipv4.ttl; }
	action a_dec() { ig_md.ttl = ig_md.ttl - 1; }
	action a3() { ipv4.ttl = ig_md.ttl; }
	table t1 {
		key = { ipv4.dst_ip : exact; }
		actions = { a_dec; }
	}
	apply {
		a1();
		t1.apply();
		a3();
	}
}
pipeline pl { parser = P; control = BugExample; }
`

// ttlProgramMissing drops the decrement (Figure 4's statement-missing bug):
// table t1 still matches but its action no longer decrements.
const ttlProgramMissing = `
header ipv4_t { bit<8> ttl; bit<32> dst_ip; }
struct meta_t { bit<8> ttl; }
ipv4_t ipv4;
meta_t ig_md;

parser P { state start { extract(ipv4); transition accept; } }

control BugExample {
	action a1() { ig_md.ttl = ipv4.ttl; }
	action a_dec() { ig_md.ttl = ig_md.ttl; } // bug: decrement missing
	action a3() { ipv4.ttl = ig_md.ttl; }
	table t1 {
		key = { ipv4.dst_ip : exact; }
		actions = { a_dec; }
	}
	apply {
		a1();
		t1.apply();
		a3();
	}
}
pipeline pl { parser = P; control = BugExample; }
`

const ttlSpec = `
assumption { init {
	pkt.$order == <ipv4>;
	pkt.ipv4.ttl > 0;
} }
assertion { post = { ipv4.ttl == @pkt.ipv4.ttl - 1; } }
program {
	assume(init);
	call(pl);
	assert(post);
}
`

func setup(t *testing.T, progSrc, specSrc string, snap *tables.Snapshot) (*p4.Program, *lpi.Spec, *tables.Snapshot) {
	t.Helper()
	prog, err := p4.ParseAndCheck("bug", progSrc)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := lpi.Parse(specSrc)
	if err != nil {
		t.Fatal(err)
	}
	return prog, spec, snap
}

func fullSnapshot() *tables.Snapshot {
	snap := tables.NewSnapshot()
	snap.Add("BugExample.t1", &tables.Entry{
		Keys: []tables.KeyMatch{tables.Wildcard()}, Action: "a_dec", Priority: -1})
	return snap
}

func TestNoViolationNothingToLocalize(t *testing.T) {
	prog, spec, snap := setup(t, ttlProgramGood, ttlSpec, fullSnapshot())
	res, err := Localize(prog, snap, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindNone {
		t.Fatalf("kind = %v, want KindNone:\n%s", res.Kind, res)
	}
}

func TestTableEntryBug(t *testing.T) {
	// Figure 9: the table's entry misses the packet (wrong key installed),
	// so the decrement never runs. Replacing t1's entries can fix it.
	prog, spec, _ := setup(t, ttlProgramGood, ttlSpec, nil)
	snap := tables.NewSnapshot()
	snap.Add("BugExample.t1", &tables.Entry{
		Keys: []tables.KeyMatch{tables.Exact(0xDEAD)}, Action: "a_dec", Priority: -1})
	res, err := Localize(prog, snap, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindTableEntry {
		t.Fatalf("kind = %v, want KindTableEntry:\n%s", res.Kind, res)
	}
	if len(res.Tables) != 1 || res.Tables[0] != "BugExample.t1" {
		t.Fatalf("tables = %v", res.Tables)
	}
	if res.SuggestedEntries["BugExample.t1"] == "" {
		t.Fatal("expected a suggested entry behaviour")
	}
}

func TestStatementMissingBug(t *testing.T) {
	// Figure 4: the decrement statement is missing. Entry replacement
	// cannot fix it (the only action copies ttl unchanged... it CAN fix it
	// by missing the entry? No: on a miss nothing runs either, so ttl
	// stays undecremented — unfixable by entries). Localization must fall
	// through to program-bug mode and report an action that writes
	// ig_md.ttl or ipv4.ttl.
	prog, spec, snap := setup(t, ttlProgramMissing, ttlSpec, fullSnapshot())
	res, err := Localize(prog, snap, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindProgram {
		t.Fatalf("kind = %v, want KindProgram:\n%s", res.Kind, res)
	}
	if len(res.Candidates) == 0 {
		t.Fatal("expected candidate locations")
	}
	found := false
	for _, c := range res.Candidates {
		if (c.Var == "ig_md.ttl" || c.Var == "ipv4.ttl") && c.Control == "BugExample" {
			found = true
		}
	}
	if !found {
		t.Fatalf("candidates %v should include the ttl data flow", res.Candidates)
	}
	if res.Pool < len(res.Candidates) {
		t.Fatalf("pool %d < candidates %d", res.Pool, len(res.Candidates))
	}
}

func TestWrongStatementBug(t *testing.T) {
	// Code-error variant: the decrement subtracts 2 instead of 1.
	src := strings.Replace(ttlProgramMissing,
		"action a_dec() { ig_md.ttl = ig_md.ttl; } // bug: decrement missing",
		"action a_dec() { ig_md.ttl = ig_md.ttl - 2; } // bug: wrong constant", 1)
	prog, spec, snap := setup(t, src, ttlSpec, fullSnapshot())
	res, err := Localize(prog, snap, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindProgram {
		t.Fatalf("kind = %v, want KindProgram:\n%s", res.Kind, res)
	}
	// The faulty action must be among the candidates.
	found := false
	for _, c := range res.Candidates {
		if c.Action == "a_dec" {
			found = true
		}
	}
	if !found {
		t.Fatalf("a_dec should be a candidate, got %v", res.Candidates)
	}
}

func TestWrongEntryArgumentBug(t *testing.T) {
	// An entry with a wrong action argument: fixable by entries.
	src := `
header h_t { bit<8> v; bit<8> k; }
h_t h;
parser P { state start { extract(h); transition accept; } }
control C {
	action set(bit<8> x) { h.v = x; }
	table t { key = { h.k : exact; } actions = { set; } }
	apply { t.apply(); }
}
pipeline pl { parser = P; control = C; }
`
	spec := `
assumption { init { pkt.$order == <h>; pkt.h.k == 1; } }
assertion { post = { h.v == 42; } }
program { assume(init); call(pl); assert(post); }
`
	prog, sp, _ := setup(t, src, spec, nil)
	snap := tables.NewSnapshot()
	snap.Add("C.t", &tables.Entry{
		Keys: []tables.KeyMatch{tables.Exact(1)}, Action: "set", Args: []uint64{7}, Priority: -1})
	res, err := Localize(prog, snap, sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindTableEntry || len(res.Tables) != 1 {
		t.Fatalf("result = %s", res)
	}
}

func TestMinimalTableSet(t *testing.T) {
	// Two tables; only the second is wrong. MaxSAT must blame exactly one.
	src := `
header h_t { bit<8> a; bit<8> b; }
h_t h;
parser P { state start { extract(h); transition accept; } }
control C {
	action setA(bit<8> x) { h.a = x; }
	action setB(bit<8> x) { h.b = x; }
	table ta { key = { h.a : exact; } actions = { setA; } }
	table tb { key = { h.b : exact; } actions = { setB; } }
	apply { ta.apply(); tb.apply(); }
}
pipeline pl { parser = P; control = C; }
`
	spec := `
assumption { init { pkt.$order == <h>; pkt.h.a == 1; pkt.h.b == 1; } }
assertion { post = { h.a == 5; h.b == 6; } }
program { assume(init); call(pl); assert(post); }
`
	prog, sp, _ := setup(t, src, spec, nil)
	snap := tables.NewSnapshot()
	snap.Add("C.ta", &tables.Entry{
		Keys: []tables.KeyMatch{tables.Exact(1)}, Action: "setA", Args: []uint64{5}, Priority: -1})
	snap.Add("C.tb", &tables.Entry{
		Keys: []tables.KeyMatch{tables.Exact(1)}, Action: "setB", Args: []uint64{99}, Priority: -1}) // wrong
	res, err := Localize(prog, snap, sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindTableEntry {
		t.Fatalf("kind = %v:\n%s", res.Kind, res)
	}
	if len(res.Tables) != 1 || res.Tables[0] != "C.tb" {
		t.Fatalf("MaxSAT should blame exactly C.tb, got %v", res.Tables)
	}
}

func TestResultString(t *testing.T) {
	prog, spec, snap := setup(t, ttlProgramMissing, ttlSpec, fullSnapshot())
	res, err := Localize(prog, snap, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	if !strings.Contains(s, "data-plane bug") || !strings.Contains(s, "localization time") {
		t.Fatalf("report = %q", s)
	}
}

// TestLocalizeParallelDifferential pins localization outcomes across
// engine settings: the worker pool, and CNF preprocessing in the
// verdict-only solvers, must produce the same kind, violated set, suspect
// tables, and candidate locations as the serial default on both a
// table-entry bug and the two program-bug stories.
func TestLocalizeParallelDifferential(t *testing.T) {
	wrongStmt := strings.Replace(ttlProgramMissing,
		"action a_dec() { ig_md.ttl = ig_md.ttl; } // bug: decrement missing",
		"action a_dec() { ig_md.ttl = ig_md.ttl - 2; } // bug: wrong constant", 1)
	entrySnap := tables.NewSnapshot()
	entrySnap.Add("BugExample.t1", &tables.Entry{
		Keys: []tables.KeyMatch{tables.Exact(0xDEAD)}, Action: "a_dec", Priority: -1})
	cases := []struct {
		name string
		src  string
		snap *tables.Snapshot
	}{
		{"statement-missing", ttlProgramMissing, fullSnapshot()},
		{"wrong-statement", wrongStmt, fullSnapshot()},
		{"table-entry", ttlProgramGood, entrySnap},
	}
	for _, c := range cases {
		prog, spec, snap := setup(t, c.src, ttlSpec, c.snap)
		base, err := Localize(prog, snap, spec, Options{Verify: verify.Options{Parallel: 1}})
		if err != nil {
			t.Fatalf("%s: serial: %v", c.name, err)
		}
		for _, cell := range []struct {
			name  string
			vopts verify.Options
		}{
			{"w2", verify.Options{Parallel: 2}},
			{"preprocess/w1", verify.Options{Parallel: 1, Preprocess: true}},
			{"preprocess/w2", verify.Options{Parallel: 2, Preprocess: true}},
		} {
			w := cell.name
			res, err := Localize(prog, snap, spec, Options{Verify: cell.vopts})
			if err != nil {
				t.Fatalf("%s: %s: %v", c.name, w, err)
			}
			if res.Kind != base.Kind {
				t.Fatalf("%s %s: kind = %v, serial = %v", c.name, w, res.Kind, base.Kind)
			}
			if strings.Join(res.Violated, ",") != strings.Join(base.Violated, ",") {
				t.Errorf("%s %s: violated %v != serial %v", c.name, w, res.Violated, base.Violated)
			}
			if strings.Join(res.Tables, ",") != strings.Join(base.Tables, ",") {
				t.Errorf("%s %s: tables %v != serial %v", c.name, w, res.Tables, base.Tables)
			}
			if len(res.Candidates) != len(base.Candidates) {
				t.Fatalf("%s %s: candidates %v != serial %v", c.name, w, res.Candidates, base.Candidates)
			}
			for i := range res.Candidates {
				if res.Candidates[i] != base.Candidates[i] {
					t.Errorf("%s %s: candidate[%d] %v != serial %v",
						c.name, w, i, res.Candidates[i], base.Candidates[i])
				}
			}
			if res.Pool != base.Pool {
				t.Errorf("%s %s: pool %d != serial %d", c.name, w, res.Pool, base.Pool)
			}
		}
	}
}
