package tables

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

func TestParseSnapshot(t *testing.T) {
	src := `
# demo snapshot
table Ing.fwd {
  10.0.0.1 -> send(3)
  10.1.0.0/16 -> send(4)
  0x0a000000 &&& 0xff000000 -> send(5)
  1..9, 7 -> mark(2, 3)
  _ -> drop
}
table Ing.acl {
  20.0.1.0/24 -> deny(1)
}
`
	snap, err := ParseSnapshot(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Tables(); len(got) != 2 || got[0] != "Ing.acl" {
		t.Fatalf("tables = %v", got)
	}
	fwd := snap.Entries("Ing.fwd")
	if len(fwd) != 5 {
		t.Fatalf("fwd entries = %d", len(fwd))
	}
	// LPM entries sort before non-LPM by prefix length.
	if fwd[0].Keys[0].PrefixLen != 24 && fwd[0].Keys[0].PrefixLen != 16 {
		// acl has /24 but fwd's best prefix is /16
	}
	if fwd[0].Action != "send" || fwd[0].Args[0] != 4 {
		t.Fatalf("first (longest prefix) entry = %+v", fwd[0])
	}
	var exact *Entry
	for _, e := range fwd {
		if len(e.Keys) == 1 && e.Keys[0].Mask == ^uint64(0) {
			exact = e
		}
	}
	if exact == nil || exact.Keys[0].Value != 0x0A000001 {
		t.Fatalf("exact entry = %+v", exact)
	}
	var rng *Entry
	for _, e := range fwd {
		if len(e.Keys) == 2 {
			rng = e
		}
	}
	if rng == nil || !rng.Keys[0].IsRange || rng.Keys[0].Value != 1 || rng.Keys[0].High != 9 {
		t.Fatalf("range entry = %+v", rng)
	}
	if rng.Keys[1].Value != 7 || rng.Args[1] != 3 {
		t.Fatalf("range entry second key/args = %+v", rng)
	}
	if snap.NumEntries() != 6 {
		t.Fatalf("NumEntries = %d", snap.NumEntries())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"10.0.0.1 -> send(3)",          // entry outside table
		"table T {",                    // unterminated
		"table T {\n nonsense \n}",     // missing ->
		"table T {\n 1 -> a(xyz) \n}",  // bad arg
		"table T {\n 10.0.0 -> a \n}",  // bad dotted quad
		"}",                            // unmatched brace
		"table T {\ntable U {\n}\n}",   // nested
		"table T {\n 1/aa -> a() \n}",  // bad prefix
		"table T {\n 1 &&& zz -> a\n}", // bad mask
	}
	for _, src := range bad {
		if _, err := ParseSnapshot(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestLPMMask(t *testing.T) {
	km := LPM(0x0A010000, 16, 32)
	if km.Mask != 0xFFFF0000 {
		t.Fatalf("mask = %#x", km.Mask)
	}
	if km.Value != 0x0A010000 {
		t.Fatalf("value = %#x", km.Value)
	}
}

func TestCloneIndependence(t *testing.T) {
	s := NewSnapshot()
	s.Add("T", &Entry{Keys: []KeyMatch{Exact(1)}, Action: "a", Priority: -1})
	c := s.Clone()
	c.Add("T", &Entry{Keys: []KeyMatch{Exact(2)}, Action: "b", Priority: -1})
	if len(s.Entries("T")) != 1 || len(c.Entries("T")) != 2 {
		t.Fatal("clone not independent")
	}
	c.Entries("T")[0].Args = append(c.Entries("T")[0].Args, 9)
	if len(s.Entries("T")[0].Args) != 0 {
		t.Fatal("args aliased between clones")
	}
}

func TestPriorityOrdering(t *testing.T) {
	s := NewSnapshot()
	s.Add("T", &Entry{Keys: []KeyMatch{Ternary(0, 0)}, Action: "last", Priority: -1})
	s.Add("T", &Entry{Keys: []KeyMatch{Exact(5)}, Action: "first", Priority: -1})
	es := s.Entries("T")
	if es[0].Action != "last" { // insertion order preserved for equal prefix
		t.Fatalf("entries = %+v", es)
	}
	// Explicit priorities override insertion order.
	s2 := NewSnapshot()
	s2.Add("T", &Entry{Keys: []KeyMatch{Exact(1)}, Action: "a", Priority: 5})
	s2.Add("T", &Entry{Keys: []KeyMatch{Exact(2)}, Action: "b", Priority: 1})
	if s2.Entries("T")[0].Action != "b" {
		t.Fatal("priority not respected")
	}
}

// refOrder is the match order Entries gave before it was cached: a
// stable sort of the table's entries in insertion order.
func refOrder(s *Snapshot, table string) []*Entry {
	es := append([]*Entry(nil), s.entries[table]...)
	sort.SliceStable(es, func(i, j int) bool {
		pi, pj := maxPrefix(es[i]), maxPrefix(es[j])
		if pi != pj {
			return pi > pj
		}
		return es[i].Priority < es[j].Priority
	})
	return es
}

// TestEntriesOrderCache runs seeded add, remove and replace operations
// over exact, LPM, ternary and explicit-priority tables, through Add,
// Remove, Delta.Apply and ApplyCopy, and requires Entries to give the
// uncached sort order after every one, for the new snapshot and for the
// one ApplyCopy copied. Each table is ordered before every operation, so
// an operation that leaves a stale cached order fails the check.
func TestEntriesOrderCache(t *testing.T) {
	kinds := map[string]func(rng *rand.Rand) *Entry{
		"Ing.exact": func(rng *rand.Rand) *Entry {
			return &Entry{Keys: []KeyMatch{Exact(uint64(rng.Intn(16)))}, Action: "a", Priority: -1}
		},
		"Ing.lpm": func(rng *rand.Rand) *Entry {
			return &Entry{Keys: []KeyMatch{LPM(uint64(rng.Intn(1<<16))<<16, 8*rng.Intn(5), 32)}, Action: "a", Priority: -1}
		},
		"Ing.ternary": func(rng *rand.Rand) *Entry {
			masks := []uint64{0, 0xff, 0xff00, 0xffff}
			return &Entry{Keys: []KeyMatch{Ternary(uint64(rng.Intn(256)), masks[rng.Intn(len(masks))]), Exact(uint64(rng.Intn(4)))},
				Action: "a", Priority: -1}
		},
		"Ing.prio": func(rng *rand.Rand) *Entry { // explicit priorities, with ties
			return &Entry{Keys: []KeyMatch{Exact(uint64(rng.Intn(8)))}, Action: "b", Priority: rng.Intn(6)}
		},
	}
	names := []string{"Ing.exact", "Ing.lpm", "Ing.prio", "Ing.ternary"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		snap := NewSnapshot()
		check := func(s *Snapshot, step string) {
			t.Helper()
			for _, tn := range names {
				if got, want := s.Entries(tn), refOrder(s, tn); !slices.Equal(got, want) {
					t.Fatalf("seed %d, %s: %s order differs from the sort", seed, step, tn)
				}
			}
		}
		for _, tn := range names {
			for i := 0; i < 4; i++ {
				snap.Add(tn, kinds[tn](rng))
			}
		}
		for step := 0; step < 60; step++ {
			check(snap, "before the step")
			tn := names[rng.Intn(len(names))]
			n := len(snap.entries[tn])
			op := DeltaOp{Table: tn, Kind: OpAdd, Entry: kinds[tn](rng)}
			switch r := rng.Intn(10); {
			case r < 4 && n > 0:
				op.Kind, op.Index = OpReplace, rng.Intn(n)
			case r < 6 && n > 1:
				op.Kind, op.Index = OpRemove, rng.Intn(n)
				op.Entry = nil
			case r == 6:
				snap.Add(tn, kinds[tn](rng))
				check(snap, "Add")
				continue
			case r == 7 && n > 1:
				es := snap.Entries(tn)
				es[0], es[len(es)-1] = es[len(es)-1], es[0] // the caller's copy
				snap.Remove(tn)
				for _, e := range es[:len(es)/2] {
					snap.Add(tn, e)
				}
				check(snap, "Remove and re-add")
				continue
			}
			d := &Delta{Ops: []DeltaOp{op}}
			if rng.Intn(2) == 0 {
				if err := d.Apply(snap); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				check(snap, "Delta.Apply "+op.Kind.String())
				continue
			}
			next, err := d.ApplyCopy(snap)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			check(snap, "the source of ApplyCopy "+op.Kind.String())
			check(next, "ApplyCopy "+op.Kind.String())
			snap = next
		}
	}
}

// TestEntriesConcurrentReaders has several goroutines order the tables
// of one snapshot at once, as readers of a shared snapshot do: the
// first call of each caches the order, and every call must give the
// sorted order. Run it under -race.
func TestEntriesConcurrentReaders(t *testing.T) {
	snap := NewSnapshot()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		snap.Add("Ing.lpm", &Entry{Keys: []KeyMatch{LPM(uint64(rng.Intn(1<<16))<<16, 8*rng.Intn(5), 32)}, Priority: -1})
		snap.Add("Ing.prio", &Entry{Keys: []KeyMatch{Exact(uint64(i))}, Priority: rng.Intn(6)})
	}
	want := map[string][]*Entry{"Ing.lpm": refOrder(snap, "Ing.lpm"), "Ing.prio": refOrder(snap, "Ing.prio")}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, tn := range []string{"Ing.lpm", "Ing.prio", "Ing.lpm"} {
				if !slices.Equal(snap.Entries(tn), want[tn]) {
					t.Errorf("%s order differs from the sort", tn)
				}
			}
		}()
	}
	wg.Wait()
}
