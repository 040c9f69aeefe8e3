package verify

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"aquila/internal/gcl"
	"aquila/internal/lpi"
	"aquila/internal/p4"
	"aquila/internal/progs"
	"aquila/internal/tables"
)

// churnProblem builds the churn workload: the DC gateway with a concrete
// snapshot installed for its ECMP next-hop table (exact 16-bit key on
// gw_md.ecmp_offset, actions set_nhop(bit<9>)/a_drop). Everything else
// keeps wildcard (any-entries) semantics.
func churnProblem(t testing.TB) (*p4.Program, *lpi.Spec, *tables.Snapshot) {
	t.Helper()
	bm := progs.DCGatewayBench()
	prog, err := bm.Parse()
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	spec, err := lpi.Parse(progs.InvalidHeaderAccessSpec(prog, bm.Calls))
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	snap, err := tables.ParseSnapshot(`
table GatewayIngress.ecmp_nhop_tbl {
  0 -> set_nhop(1)
  1 -> set_nhop(2)
  2 -> set_nhop(3)
  3 -> a_drop
}
`)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return prog, spec, snap
}

// churnDeltas is a single-table churn sequence over the ECMP table plus
// one delta against a second table, exercising add, replace, and remove.
const churnDeltas = `
add GatewayIngress.ecmp_nhop_tbl 4 -> set_nhop(5)
---
replace GatewayIngress.ecmp_nhop_tbl 0 0 -> a_drop
---
remove GatewayIngress.ecmp_nhop_tbl 2
---
add GatewayIngress.ttl_tbl 0 -> a_drop
---
replace GatewayIngress.ecmp_nhop_tbl 1 1 -> set_nhop(7)
`

func canonicalOf(t *testing.T, rep *Report) []byte {
	t.Helper()
	js, err := rep.CanonicalJSON()
	if err != nil {
		t.Fatalf("canonical: %v", err)
	}
	return js
}

// TestSessionByteIdentity is the delta determinism contract: for every
// delta in the churn sequence, Session.Apply's canonical report is
// byte-identical to a fresh verify.Run on the mutated snapshot and splits
// the assertions between replay and re-check, and the baseline matches a
// fresh run on the starting snapshot.
func TestSessionByteIdentity(t *testing.T) {
	prog, spec, snap := churnProblem(t)
	sess, err := NewSession(prog, snap, spec, Options{Parallel: 1})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	freshOpts := Options{FindAll: true, Parallel: 1}

	fresh0, err := Run(prog, snap, spec, freshOpts)
	if err != nil {
		t.Fatalf("fresh baseline: %v", err)
	}
	if !bytes.Equal(canonicalOf(t, sess.Baseline()), canonicalOf(t, fresh0)) {
		t.Fatalf("baseline canonical reports differ:\nsession:\n%s\nfresh:\n%s",
			canonicalOf(t, sess.Baseline()), canonicalOf(t, fresh0))
	}

	deltas, err := tables.ParseDeltas(churnDeltas)
	if err != nil {
		t.Fatalf("deltas: %v", err)
	}
	mutated := snap.Clone()
	for i, d := range deltas {
		rep, err := sess.Apply(d)
		if err != nil {
			t.Fatalf("delta %d: Apply: %v", i, err)
		}
		if err := d.Apply(mutated); err != nil {
			t.Fatalf("delta %d: reference apply: %v", i, err)
		}
		if !tables.Equal(mutated, sess.Snapshot()) {
			t.Fatalf("delta %d: session snapshot diverged from reference", i)
		}
		fresh, err := Run(prog, mutated, spec, freshOpts)
		if err != nil {
			t.Fatalf("delta %d: fresh run: %v", i, err)
		}
		sj, fj := canonicalOf(t, rep), canonicalOf(t, fresh)
		if !bytes.Equal(sj, fj) {
			t.Fatalf("delta %d: canonical reports differ:\nsession:\n%s\nfresh:\n%s", i, sj, fj)
		}
		if got := rep.Stats.DeltaReuse + rep.Stats.DeltaRecheck; got != int64(rep.Stats.Assertions) {
			t.Fatalf("delta %d: reuse %d + recheck %d != assertions %d",
				i, rep.Stats.DeltaReuse, rep.Stats.DeltaRecheck, rep.Stats.Assertions)
		}
		if rep.Stats.DeltaReuse == 0 {
			t.Fatalf("delta %d: single-table delta replayed nothing (reuse 0 of %d)",
				i, rep.Stats.Assertions)
		}
		// Every delta in churnDeltas touches a table the spec checks, so
		// it must re-check at least one assertion rather than replay all.
		if rep.Stats.DeltaRecheck == 0 {
			t.Fatalf("delta %d: re-checked nothing (reuse %d of %d)",
				i, rep.Stats.DeltaReuse, rep.Stats.Assertions)
		}
	}
	st := sess.SessionStats()
	if st.Deltas != len(deltas) || st.ReuseHits == 0 {
		t.Fatalf("session stats = %+v, want %d deltas and nonzero reuse", st, len(deltas))
	}
}

// TestSessionRevertRebuild reverts a table to a prior state: the
// re-encoded conditions recur as previously retired pointers, whose
// indicators were unfrozen — re-checking must re-freeze them and the
// bytes must still match a fresh run on the original snapshot.
func TestSessionRevertRebuild(t *testing.T) {
	prog, spec, snap := churnProblem(t)
	sess, err := NewSession(prog, snap, spec, Options{Parallel: 1})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	fwd, err := tables.ParseDelta("replace GatewayIngress.ecmp_nhop_tbl 0 0 -> a_drop")
	if err != nil {
		t.Fatal(err)
	}
	back, err := tables.ParseDelta("replace GatewayIngress.ecmp_nhop_tbl 0 0 -> set_nhop(1)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Apply(fwd); err != nil {
		t.Fatalf("forward delta: %v", err)
	}
	rep, err := sess.Apply(back)
	if err != nil {
		t.Fatalf("revert delta: %v", err)
	}
	if st := sess.SessionStats(); st.Retired == 0 {
		t.Fatalf("no stale indicators were retired: %+v", st)
	}
	fresh, err := Run(prog, snap, spec, Options{FindAll: true, Parallel: 1})
	if err != nil {
		t.Fatalf("fresh: %v", err)
	}
	if !bytes.Equal(canonicalOf(t, rep), canonicalOf(t, fresh)) {
		t.Fatal("reverted session report differs from fresh run on the original snapshot")
	}
}

// TestSessionCompact: after Compact the session re-warms from scratch
// and still produces byte-identical reports.
func TestSessionCompact(t *testing.T) {
	prog, spec, snap := churnProblem(t)
	sess, err := NewSession(prog, snap, spec, Options{Parallel: 1})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	d, err := tables.ParseDelta("add GatewayIngress.ecmp_nhop_tbl 5 -> set_nhop(6)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Apply(d); err != nil {
		t.Fatalf("pre-compact apply: %v", err)
	}
	before := sess.Ctx().NumTerms()
	sess.Compact()
	if after := sess.Ctx().NumTerms(); after >= before {
		t.Fatalf("Compact did not shrink the arena: %d -> %d terms", before, after)
	}
	d2, err := tables.ParseDelta("remove GatewayIngress.ecmp_nhop_tbl 0")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Apply(d2)
	if err != nil {
		t.Fatalf("post-compact apply: %v", err)
	}
	fresh, err := Run(prog, sess.Snapshot(), spec, Options{FindAll: true, Parallel: 1})
	if err != nil {
		t.Fatalf("fresh: %v", err)
	}
	if !bytes.Equal(canonicalOf(t, rep), canonicalOf(t, fresh)) {
		t.Fatal("post-compact session report differs from fresh run")
	}
}

// TestSessionBadDeltaLeavesSessionUsable: a failing delta must not
// corrupt the session snapshot or the caches.
func TestSessionBadDeltaLeavesSessionUsable(t *testing.T) {
	prog, spec, snap := churnProblem(t)
	sess, err := NewSession(prog, snap, spec, Options{Parallel: 1})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	bad, err := tables.ParseDelta("remove GatewayIngress.ecmp_nhop_tbl 99")
	if err != nil {
		t.Fatal(err)
	}
	_, err = sess.Apply(bad)
	if rejected := (*DeltaError)(nil); !errors.As(err, &rejected) {
		t.Fatalf("out-of-range remove: error %v, want a *DeltaError", err)
	}
	if !tables.Equal(snap, sess.Snapshot()) {
		t.Fatal("failed delta mutated the session snapshot")
	}
	// An entry whose action the table lacks applies to the snapshot but
	// cannot be encoded; the valid entry the same delta adds to another
	// table must not survive in the stored encodings either.
	unencodable, err := tables.ParseDelta("add GatewayIngress.ecmp_nhop_tbl 9 -> set_nhop(4)\nadd GatewayIngress.ttl_tbl 0 -> no_such_action")
	if err != nil {
		t.Fatal(err)
	}
	_, err = sess.Apply(unencodable)
	if rejected := (*DeltaError)(nil); !errors.As(err, &rejected) || !strings.Contains(err.Error(), "no_such_action") {
		t.Fatalf("unknown action: error %v, want a *DeltaError naming it", err)
	}
	if !tables.Equal(snap, sess.Snapshot()) || sess.SessionStats().Deltas != 0 {
		t.Fatal("unencodable delta changed the session")
	}
	// The first good delta leaves the ECMP table alone, so only a
	// dropped stored encoding keeps the rejected ECMP entry out.
	for _, text := range []string{"add GatewayIngress.ttl_tbl 0 -> a_drop", "add GatewayIngress.ecmp_nhop_tbl 6 -> set_nhop(2)"} {
		good, err := tables.ParseDelta(text)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sess.Apply(good)
		if err != nil {
			t.Fatalf("%s: apply after failed deltas: %v", text, err)
		}
		fresh, err := Run(prog, sess.Snapshot(), spec, Options{FindAll: true, Parallel: 1})
		if err != nil {
			t.Fatalf("fresh: %v", err)
		}
		if !bytes.Equal(canonicalOf(t, rep), canonicalOf(t, fresh)) {
			t.Fatalf("%s: session report differs from fresh run after failed deltas", text)
		}
		if gcl.Pretty(rep.Program) != gcl.Pretty(fresh.Program) {
			t.Fatalf("%s: session encoding differs from a fresh run's after failed deltas", text)
		}
	}
}

// TestSessionDeltaCopyOnWrite: applying a delta never changes the
// snapshot an earlier run verified (each report's Env.Snap), and the
// snapshot Session.Snapshot hands out is the caller's own to change.
func TestSessionDeltaCopyOnWrite(t *testing.T) {
	prog, spec, snap := churnProblem(t)
	sess, err := NewSession(prog, snap, spec, Options{Parallel: 1})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	deltas, err := tables.ParseDeltas(churnDeltas)
	if err != nil {
		t.Fatalf("deltas: %v", err)
	}
	reps := []*Report{sess.Baseline()}
	texts := []string{tables.Format(sess.Baseline().Env.Snap)}
	for i, d := range deltas {
		rep, err := sess.Apply(d)
		if err != nil {
			t.Fatalf("delta %d: Apply: %v", i, err)
		}
		reps, texts = append(reps, rep), append(texts, tables.Format(rep.Env.Snap))
		for j, r := range reps {
			if got := tables.Format(r.Env.Snap); got != texts[j] {
				t.Fatalf("delta %d changed the snapshot run %d verified:\n%s\nwas:\n%s", i, j, got, texts[j])
			}
		}
	}
	last := len(reps) - 1
	cp := sess.Snapshot()
	for _, fq := range cp.Tables() {
		for _, e := range cp.Entries(fq) {
			e.Action, e.Keys[0].Value = "changed", 99
		}
	}
	if got := tables.Format(reps[last].Env.Snap); got != texts[last] {
		t.Fatalf("changing Session.Snapshot's entries changed the session's:\n%s\nwas:\n%s", got, texts[last])
	}
}

// TestSessionAffected checks the table -> assertion dependency index:
// the ECMP table's COI must cover at least one assertion but not all of
// them, the result must be sorted, and unknown tables map to nothing.
func TestSessionAffected(t *testing.T) {
	prog, spec, snap := churnProblem(t)
	sess, err := NewSession(prog, snap, spec, Options{Parallel: 1})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	d := &tables.Delta{Ops: []tables.DeltaOp{{
		Kind: tables.OpRemove, Table: "GatewayIngress.ecmp_nhop_tbl", Index: 0,
	}}}
	labels := sess.Affected(d)
	if len(labels) == 0 {
		t.Fatal("ECMP delta affects no assertions")
	}
	if len(labels) >= sess.Baseline().Stats.Assertions {
		t.Fatalf("ECMP delta affects all %d assertions — the index is not slicing", len(labels))
	}
	if !sort.StringsAreSorted(labels) {
		t.Fatalf("Affected not sorted: %v", labels)
	}
	none := &tables.Delta{Ops: []tables.DeltaOp{{
		Kind: tables.OpRemove, Table: "NoSuch.table", Index: 0,
	}}}
	if got := sess.Affected(none); len(got) != 0 {
		t.Fatalf("unknown table affects %v", got)
	}
}

// holdingChurnProblem is the steady-state churn workload for the
// speedup pin: the DC gateway with a production-sized (64-entry) ECMP
// next-hop table and the holding subset of the invalid-header-access
// property. The subset is derived, not hand-listed: one fresh run on the
// full property finds the assertions the seeded bugs violate, and the
// spec is re-assembled without them. Steady state for a control plane is
// "everything holds" — standing violations would re-solve their full
// conditions on a deterministic fresh solver every delta (the price of
// byte-identical counterexample models), which is not the regime the
// amortization targets.
func holdingChurnProblem(t testing.TB) (*p4.Program, *lpi.Spec, *tables.Snapshot) {
	t.Helper()
	bm := progs.DCGatewayBench()
	prog, err := bm.Parse()
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	full := progs.InvalidHeaderAccessSpec(prog, bm.Calls)
	fullSpec, err := lpi.Parse(full)
	if err != nil {
		t.Fatalf("full spec: %v", err)
	}
	var rows []string
	for i := 0; i < 64; i++ {
		act := fmt.Sprintf("set_nhop(%d)", i%8+1)
		if i%16 == 15 {
			act = "a_drop"
		}
		rows = append(rows, fmt.Sprintf("  %d -> %s", i, act))
	}
	snap, err := tables.ParseSnapshot(
		"table GatewayIngress.ecmp_nhop_tbl {\n" + strings.Join(rows, "\n") + "\n}\n")
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	rep, err := Run(prog, snap, fullSpec, Options{FindAll: true, Parallel: 1})
	if err != nil {
		t.Fatalf("bug-discovery run: %v", err)
	}
	violated := map[int]bool{}
	for _, v := range rep.Violations {
		var idx int
		fmt.Sscanf(v.Label[strings.LastIndexByte(v.Label, '#')+1:], "%d", &idx)
		violated[idx] = true
	}
	var out []string
	item := 0
	for _, ln := range strings.Split(full, "\n") {
		if strings.Contains(ln, "applied(") {
			skip := violated[item]
			item++
			if skip {
				continue
			}
		}
		out = append(out, ln)
	}
	spec, err := lpi.Parse(strings.Join(out, "\n"))
	if err != nil {
		t.Fatalf("holding spec: %v", err)
	}
	return prog, spec, snap
}

// TestSessionSpeedup pins the headline number: on single-entry churn
// against the DC gateway in its holding steady state, session
// re-verification must be at least 5x faster per delta than a full
// fresh run. Session deltas and fresh runs alternate, so host noise
// falls on both sides alike, and each side's median is taken over 16
// samples.
func TestSessionSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing pin, skipped in -short")
	}
	prog, spec, snap := holdingChurnProblem(t)
	sess, err := NewSession(prog, snap, spec, Options{Parallel: 1})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if !sess.Baseline().Holds {
		t.Fatalf("holding workload has standing violations: %d", len(sess.Baseline().Violations))
	}
	flip, err := tables.ParseDeltas(`
replace GatewayIngress.ecmp_nhop_tbl 0 0 -> a_drop
---
replace GatewayIngress.ecmp_nhop_tbl 0 0 -> set_nhop(1)
`)
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: two deltas get the solver past its first-blast cost.
	for i := 0; i < 2; i++ {
		if _, err := sess.Apply(flip[i%2]); err != nil {
			t.Fatalf("warmup delta: %v", err)
		}
	}
	const samples = 16
	var sessTimes, freshTimes []time.Duration
	for i := 0; i < samples; i++ {
		t0 := time.Now()
		if _, err := sess.Apply(flip[i%2]); err != nil {
			t.Fatalf("steady-state delta: %v", err)
		}
		sessTimes = append(sessTimes, time.Since(t0))
		t0 = time.Now()
		if _, err := Run(prog, sess.Snapshot(), spec, Options{FindAll: true, Parallel: 1}); err != nil {
			t.Fatalf("fresh run: %v", err)
		}
		freshTimes = append(freshTimes, time.Since(t0))
	}
	sessMed, freshMed := median(sessTimes), median(freshTimes)
	speedup := float64(freshMed) / float64(sessMed)
	t.Logf("steady-state session %v vs fresh %v per delta: %.1fx", sessMed, freshMed, speedup)
	if speedup < 5 {
		t.Fatalf("steady-state speedup %.2fx < 5x (session %v, fresh %v)", speedup, sessMed, freshMed)
	}
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// TestSessionValidateOptions pins the churn-mode flag matrix: every
// engine that freezes or releases the term context is rejected up front
// with an error naming the conflict.
func TestSessionValidateOptions(t *testing.T) {
	ok := Options{Session: true, FindAll: true, Parallel: 1}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid session options rejected: %v", err)
	}
	bad := []struct {
		name string
		o    Options
		want string
	}{
		{"find-first", Options{Session: true}, "find-all"},
		{"stream", Options{Session: true, FindAll: true, Stream: true}, "-stream"},
		{"parallel", Options{Session: true, FindAll: true, Parallel: 8}, "-parallel"},
	}
	for _, tc := range bad {
		err := tc.o.Validate()
		if err == nil {
			t.Errorf("%s: incompatible options accepted", tc.name)
			continue
		}
		if !bytes.Contains([]byte(err.Error()), []byte(tc.want)) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
	// NewSession force-fixes FindAll/Slice but must still reject engine
	// conflicts.
	prog, spec, snap := churnProblem(t)
	if _, err := NewSession(prog, snap, spec, Options{Stream: true}); err == nil {
		t.Fatal("NewSession accepted stream options")
	}
}
