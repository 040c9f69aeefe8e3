package tables

import (
	"strings"
	"testing"
)

const roundTripSrc = `
table Ing.acl {
  20.0.1.0/24 -> deny(1)
}
table Ing.fwd {
  10.1.0.0/16 -> send(4)
  10.0.0.1 -> send(3)
  0x0a000000 &&& 0xff000000 -> send(5)
  1..9, 7 -> mark(2, 3)
  _ -> drop
}
`

// TestFormatRoundTrip is the snapshot round-trip contract: Format's
// output re-parses to an Equal snapshot, and re-formatting that parse
// reproduces the same bytes (Format is a fixpoint of parse∘format).
func TestFormatRoundTrip(t *testing.T) {
	snap, err := ParseSnapshot(roundTripSrc)
	if err != nil {
		t.Fatal(err)
	}
	text := Format(snap)
	back, err := ParseSnapshot(text)
	if err != nil {
		t.Fatalf("re-parsing Format output: %v\n%s", err, text)
	}
	if !Equal(snap, back) {
		t.Fatalf("round-tripped snapshot differs\noriginal:\n%s\nreparsed:\n%s", text, Format(back))
	}
	if again := Format(back); again != text {
		t.Fatalf("Format not a fixpoint:\nfirst:\n%s\nsecond:\n%s", text, again)
	}
}

// TestFormatEmpty: nil and empty snapshots format to "" and Equal each
// other.
func TestFormatEmpty(t *testing.T) {
	if got := Format(nil); got != "" {
		t.Fatalf("Format(nil) = %q", got)
	}
	if got := Format(NewSnapshot()); got != "" {
		t.Fatalf("Format(empty) = %q", got)
	}
	if !Equal(nil, NewSnapshot()) || !Equal(nil, nil) {
		t.Fatal("nil and empty snapshots should be Equal")
	}
}

// TestFormatKeyKinds pins the textual form of every key-match kind.
func TestFormatKeyKinds(t *testing.T) {
	e := &Entry{
		Keys: []KeyMatch{
			Exact(7),
			LPM(0x0A010000, 16, 32),
			Ternary(0x0A, 0xFF),
			Range(1, 9),
			Wildcard(),
		},
		Action: "act",
		Args:   []uint64{1, 2},
	}
	got := FormatEntry(e)
	want := "7, 167837696/16, 0xa &&& 0xff, 1..9, _ -> act(1, 2)"
	if got != want {
		t.Fatalf("FormatEntry = %q, want %q", got, want)
	}
	back, err := parseEntry(got)
	if err != nil {
		t.Fatalf("re-parsing %q: %v", got, err)
	}
	back.Priority = e.Priority
	if !entryEqual(e, back) {
		t.Fatalf("entry did not round-trip: %+v vs %+v", e, back)
	}
}

func TestDeltaApply(t *testing.T) {
	snap, err := ParseSnapshot("table T {\n 1 -> a\n 2 -> b\n 3 -> c\n}")
	if err != nil {
		t.Fatal(err)
	}
	d := &Delta{Ops: []DeltaOp{
		{Kind: OpRemove, Table: "T", Index: 1}, // drop "2 -> b"
		{Kind: OpReplace, Table: "T", Index: 1, // now "3 -> c"
			Entry: &Entry{Keys: []KeyMatch{Exact(3)}, Action: "d"}},
		{Kind: OpAdd, Table: "T",
			Entry: &Entry{Keys: []KeyMatch{Exact(9)}, Action: "e"}},
	}}
	if err := d.Apply(snap); err != nil {
		t.Fatal(err)
	}
	want, err := ParseSnapshot("table T {\n 1 -> a\n 3 -> d\n 9 -> e\n}")
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(snap, want) {
		t.Fatalf("after delta:\n%s\nwant:\n%s", Format(snap), Format(want))
	}
}

// TestDeltaApplyClonesEntries: a delta applied twice must not alias its
// entries into the snapshots it produced.
func TestDeltaApplyClonesEntries(t *testing.T) {
	e := &Entry{Keys: []KeyMatch{Exact(1)}, Action: "a", Args: []uint64{5}}
	d := &Delta{Ops: []DeltaOp{{Kind: OpAdd, Table: "T", Entry: e}}}
	s1, s2 := NewSnapshot(), NewSnapshot()
	if err := d.Apply(s1); err != nil {
		t.Fatal(err)
	}
	if err := d.Apply(s2); err != nil {
		t.Fatal(err)
	}
	s1.Entries("T")[0].Args[0] = 99
	if s2.Entries("T")[0].Args[0] != 5 || e.Args[0] != 5 {
		t.Fatal("Apply aliased the delta's entry into the snapshot")
	}
}

func TestDeltaApplyErrors(t *testing.T) {
	snap, err := ParseSnapshot("table T {\n 1 -> a\n}")
	if err != nil {
		t.Fatal(err)
	}
	bad := []*Delta{
		{Ops: []DeltaOp{{Kind: OpRemove, Table: "T", Index: 5}}},
		{Ops: []DeltaOp{{Kind: OpRemove, Table: "T", Index: -1}}},
		{Ops: []DeltaOp{{Kind: OpRemove, Table: "missing", Index: 0}}},
		{Ops: []DeltaOp{{Kind: OpAdd, Table: "T"}}},     // no entry
		{Ops: []DeltaOp{{Kind: OpReplace, Table: "T"}}}, // no entry
		{Ops: []DeltaOp{{Kind: DeltaKind(99), Table: "T"}}},
	}
	for i, d := range bad {
		if err := d.Apply(snap.Clone()); err == nil {
			t.Errorf("delta %d: no error", i)
		}
	}
}

// TestDeltaRemoveLastEntryDropsTable: removing a table's final entry
// removes the table itself, so the snapshot reverts to wildcard
// semantics for it (Has reports false) rather than an empty entry list.
func TestDeltaRemoveLastEntryDropsTable(t *testing.T) {
	snap, err := ParseSnapshot("table T {\n 1 -> a\n}")
	if err != nil {
		t.Fatal(err)
	}
	d := &Delta{Ops: []DeltaOp{{Kind: OpRemove, Table: "T", Index: 0}}}
	if err := d.Apply(snap); err != nil {
		t.Fatal(err)
	}
	if snap.Has("T") || len(snap.Tables()) != 0 {
		t.Fatalf("table survived removing its last entry: %v", snap.Tables())
	}
}

func TestDiff(t *testing.T) {
	a, err := ParseSnapshot("table T {\n 1 -> a\n 2 -> b\n}\ntable U {\n 5 -> x\n}")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseSnapshot("table T {\n 1 -> a\n 3 -> c\n}\ntable V {\n 6 -> y\n}")
	if err != nil {
		t.Fatal(err)
	}
	d := Diff(a, b)
	if got := d.Tables(); len(got) != 3 || got[0] != "T" || got[1] != "U" || got[2] != "V" {
		t.Fatalf("Diff touches %v", got)
	}
	work := a.Clone()
	if err := d.Apply(work); err != nil {
		t.Fatal(err)
	}
	if !Equal(work, b) {
		t.Fatalf("Diff+Apply != b:\n%s\nwant:\n%s", Format(work), Format(b))
	}
	if len(Diff(b, b).Ops) != 0 {
		t.Fatal("Diff of identical snapshots is non-empty")
	}
	if len(Diff(nil, nil).Ops) != 0 {
		t.Fatal("Diff(nil, nil) is non-empty")
	}
}

func TestDeltaTextRoundTrip(t *testing.T) {
	ds := []*Delta{
		{Ops: []DeltaOp{
			{Kind: OpAdd, Table: "Ctl.fwd",
				Entry: &Entry{Keys: []KeyMatch{LPM(0x0A000000, 8, 32)}, Action: "send", Args: []uint64{3}}},
			{Kind: OpRemove, Table: "Ctl.acl", Index: 2},
		}},
		{Ops: []DeltaOp{
			{Kind: OpReplace, Table: "Ctl.fwd", Index: 0,
				Entry: &Entry{Keys: []KeyMatch{Wildcard()}, Action: "drop"}},
		}},
	}
	text := FormatDeltas(ds)
	back, err := ParseDeltas(text)
	if err != nil {
		t.Fatalf("ParseDeltas: %v\n%s", err, text)
	}
	if again := FormatDeltas(back); again != text {
		t.Fatalf("delta text not a fixpoint:\nfirst:\n%s\nsecond:\n%s", text, again)
	}
	if len(back) != 2 || len(back[0].Ops) != 2 || len(back[1].Ops) != 1 {
		t.Fatalf("parsed shape wrong: %+v", back)
	}
	if op := back[0].Ops[0]; op.Kind != OpAdd || op.Table != "Ctl.fwd" ||
		op.Entry.Action != "send" || op.Entry.Keys[0].PrefixLen != 8 {
		t.Fatalf("first op = %+v", op)
	}
}

func TestParseDeltasCommentsAndBlanks(t *testing.T) {
	src := `
# a comment
add T 1 -> a  # trailing comment

---
# empty block collapses
---
remove T 0
`
	ds, err := ParseDeltas(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 2 || len(ds[0].Ops) != 1 || len(ds[1].Ops) != 1 {
		t.Fatalf("parsed %d deltas: %+v", len(ds), ds)
	}
	if ds[1].Ops[0].Kind != OpRemove {
		t.Fatalf("second delta = %+v", ds[1].Ops[0])
	}
}

func TestParseDeltaErrors(t *testing.T) {
	bad := []string{
		"frobnicate T 1 -> a", // unknown op
		"add",                 // no table
		"add T",               // no entry
		"add T nonsense",      // entry missing ->
		"remove T",            // no index
		"remove T xyz",        // bad index
		"replace T 0",         // no entry
		"replace T zz 1 -> a", // bad index
		"replace T",           // nothing
		"add T 1 -> a\n---\nadd T 2 -> b\nbogus line",
	}
	for _, src := range bad {
		if _, err := ParseDeltas(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
	if _, err := ParseDelta("add T 1 -> a\n---\nadd T 2 -> b"); err == nil ||
		!strings.Contains(err.Error(), "one delta") {
		t.Errorf("ParseDelta accepted two blocks: %v", err)
	}
	if d, err := ParseDelta("# only comments\n"); err != nil || len(d.Ops) != 0 {
		t.Errorf("ParseDelta on comments = %+v, %v", d, err)
	}
}

// TestEqualOrderSensitivity: Equal distinguishes snapshots whose
// entries differ only in match order, but ignores raw priority values
// that induce the same order.
func TestEqualOrderSensitivity(t *testing.T) {
	a := NewSnapshot()
	a.Add("T", &Entry{Keys: []KeyMatch{Ternary(1, 0xFF)}, Action: "x", Priority: -1})
	a.Add("T", &Entry{Keys: []KeyMatch{Ternary(2, 0xFF)}, Action: "y", Priority: -1})
	b := NewSnapshot()
	b.Add("T", &Entry{Keys: []KeyMatch{Ternary(2, 0xFF)}, Action: "y", Priority: -1})
	b.Add("T", &Entry{Keys: []KeyMatch{Ternary(1, 0xFF)}, Action: "x", Priority: -1})
	if Equal(a, b) {
		t.Fatal("Equal ignored match order")
	}
	c := NewSnapshot()
	c.Add("T", &Entry{Keys: []KeyMatch{Ternary(1, 0xFF)}, Action: "x", Priority: 10})
	c.Add("T", &Entry{Keys: []KeyMatch{Ternary(2, 0xFF)}, Action: "y", Priority: 20})
	if !Equal(a, c) {
		t.Fatal("Equal depended on absolute priorities")
	}
}

// TestApplyCopyLeavesSource: ApplyCopy returns the changed snapshot and
// leaves its source as it was, entries included, while sharing what the
// delta does not change: the entry slices of untouched tables and the
// entries a touched table keeps.
func TestApplyCopyLeavesSource(t *testing.T) {
	src, err := ParseSnapshot("table T {\n 1 -> a(1)\n 2 -> b\n 3 -> c\n}\ntable U {\n 7 -> u\n}")
	if err != nil {
		t.Fatal(err)
	}
	before := Format(src)
	kept := src.Entries("T")
	d := &Delta{Ops: []DeltaOp{
		{Kind: OpReplace, Table: "T", Index: 0, Entry: &Entry{Keys: []KeyMatch{Exact(1)}, Action: "d"}},
		{Kind: OpRemove, Table: "T", Index: 1},
		{Kind: OpAdd, Table: "T", Entry: &Entry{Keys: []KeyMatch{Exact(9)}, Action: "e"}},
	}}
	next, err := d.ApplyCopy(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := Format(src); got != before {
		t.Fatalf("source changed:\n%s\nwant:\n%s", got, before)
	}
	for i, e := range src.Entries("T") {
		if e != kept[i] {
			t.Fatalf("source entry %d replaced", i)
		}
	}
	want, err := ParseSnapshot("table T {\n 1 -> d\n 3 -> c\n 9 -> e\n}\ntable U {\n 7 -> u\n}")
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(next, want) {
		t.Fatalf("after delta:\n%s\nwant:\n%s", Format(next), Format(want))
	}
	if next.Entries("T")[1] != kept[2] {
		t.Fatal("an entry the delta kept was copied")
	}
	if &next.entries["U"][0] != &src.entries["U"][0] {
		t.Fatal("an untouched table's entry slice was copied")
	}

	// A rejected delta returns no snapshot and leaves the source alone.
	bad := &Delta{Ops: []DeltaOp{{Kind: OpRemove, Table: "T", Index: 0}, {Kind: OpRemove, Table: "T", Index: 5}}}
	if got, err := bad.ApplyCopy(src); err == nil || got != nil {
		t.Fatalf("out-of-range delta: snapshot %v, error %v", got, err)
	}
	if got := Format(src); got != before {
		t.Fatalf("source changed by a rejected delta:\n%s\nwant:\n%s", got, before)
	}

	// From no snapshot, a delta of adds builds one.
	add := &Delta{Ops: []DeltaOp{{Kind: OpAdd, Table: "T", Entry: &Entry{Keys: []KeyMatch{Exact(4)}, Action: "a"}}}}
	if got, err := add.ApplyCopy(nil); err != nil || len(got.Entries("T")) != 1 {
		t.Fatalf("ApplyCopy(nil): %v, %v", got, err)
	}
}
