package verify

import (
	"bytes"
	"errors"
	"testing"

	"aquila/internal/genprog"
	"aquila/internal/lpi"
	"aquila/internal/progs"
)

// TestIncrementalMatchesFresh is the differential contract of the
// incremental engine: on the whole corpus, at every worker count, with and
// without the simplification pass, the canonical report bytes (verdicts,
// violations, counterexamples) are identical to fresh mode. On the DC
// gateway — the many-assertion benchmark the mode exists for — the shared
// prefix must also make the total Tseitin clause count strictly smaller
// than fresh mode's.
func TestIncrementalMatchesFresh(t *testing.T) {
	for _, c := range corpusSuite(t) {
		fresh, err := Run(c.prog, nil, c.spec, Options{FindAll: true, Parallel: 1})
		if err != nil {
			t.Fatalf("%s: fresh: %v", c.name, err)
		}
		want, err := fresh.CanonicalJSON()
		if err != nil {
			t.Fatalf("%s: canonical: %v", c.name, err)
		}
		for _, simplify := range []bool{false, true} {
			for _, w := range []int{1, 2, 4} {
				opts := Options{FindAll: true, Parallel: w,
					Incremental: true, Simplify: simplify}
				rep, err := Run(c.prog, nil, c.spec, opts)
				if err != nil {
					t.Fatalf("%s: incremental w=%d simplify=%v: %v",
						c.name, w, simplify, err)
				}
				got, err := rep.CanonicalJSON()
				if err != nil {
					t.Fatalf("%s: w=%d canonical: %v", c.name, w, err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: incremental w=%d simplify=%v differs from fresh\nfresh: %s\nincremental: %s",
						c.name, w, simplify, want, got)
				}
				if !rep.Stats.Incremental || rep.Stats.Shards < 1 {
					t.Errorf("%s: w=%d: stats not marked incremental: %+v",
						c.name, w, rep.Stats)
				}
				if c.name == progs.DCGatewayBench().Name &&
					rep.Stats.TseitinClauses >= fresh.Stats.TseitinClauses {
					t.Errorf("%s: w=%d simplify=%v: incremental Tseitin clauses %d, want < fresh %d",
						c.name, w, simplify, rep.Stats.TseitinClauses, fresh.Stats.TseitinClauses)
				}
			}
		}
	}
}

// TestIncrementalGenprogDifferential repeats the differential check on
// synthetic production-shaped programs with seeded bugs, where table count
// and parser depth exceed anything in the hand-written corpus.
func TestIncrementalGenprogDifferential(t *testing.T) {
	cfgs := []genprog.Config{
		{Name: "gp_small", Pipes: 1, ParserStates: 6, Tables: 8, ActionsPerTable: 2, SeedBug: true},
		{Name: "gp_wide", Pipes: 2, ParserStates: 10, Tables: 14, ActionsPerTable: 3, SeedBug: true},
	}
	for _, cfg := range cfgs {
		bm := genprog.Assemble(cfg)
		prog, err := bm.Parse()
		if err != nil {
			t.Fatalf("%s: parse: %v", cfg.Name, err)
		}
		spec, err := lpi.Parse(progs.InvalidHeaderAccessSpec(prog, bm.Calls))
		if err != nil {
			t.Fatalf("%s: spec: %v", cfg.Name, err)
		}
		fresh, err := Run(prog, nil, spec, Options{FindAll: true, Parallel: 1})
		if err != nil {
			t.Fatalf("%s: fresh: %v", cfg.Name, err)
		}
		want, err := fresh.CanonicalJSON()
		if err != nil {
			t.Fatalf("%s: canonical: %v", cfg.Name, err)
		}
		if fresh.Holds {
			t.Fatalf("%s: seeded bug not found by fresh mode", cfg.Name)
		}
		for _, w := range []int{1, 2} {
			rep, err := Run(prog, nil, spec, Options{FindAll: true, Parallel: w,
				Incremental: true, Simplify: true})
			if err != nil {
				t.Fatalf("%s: incremental w=%d: %v", cfg.Name, w, err)
			}
			got, err := rep.CanonicalJSON()
			if err != nil {
				t.Fatalf("%s: w=%d canonical: %v", cfg.Name, w, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: incremental w=%d differs from fresh\nfresh: %s\nincremental: %s",
					cfg.Name, w, want, got)
			}
		}
	}
}

// TestIncrementalBudgetExhaustion pins budget semantics in incremental
// mode with the simplifier off: a serial shard's first check blasts
// exactly what a fresh solver would, so a budget too small for any check
// surfaces ErrBudget with the same consumed prefix as fresh mode.
// (Beyond the first check per shard, learned clauses make budget reach
// mode- and shard-dependent — see DESIGN.md — so only this serial
// first-check case is pinned.)
func TestIncrementalBudgetExhaustion(t *testing.T) {
	bm := progs.DCGatewayBench()
	prog, err := bm.Parse()
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	spec, err := lpi.Parse(progs.InvalidHeaderAccessSpec(prog, bm.Calls))
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	fresh, err := Run(prog, nil, spec, Options{FindAll: true, Budget: 1, Parallel: 1})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("fresh budget=1: err = %v, want ErrBudget", err)
	}
	want, cerr := fresh.CanonicalJSON()
	if cerr != nil {
		t.Fatalf("canonical: %v", cerr)
	}
	rep, err := Run(prog, nil, spec, Options{FindAll: true, Budget: 1, Parallel: 1,
		Incremental: true})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("incremental budget=1: err = %v, want ErrBudget", err)
	}
	got, cerr := rep.CanonicalJSON()
	if cerr != nil {
		t.Fatalf("canonical: %v", cerr)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("budget-exhausted incremental report differs from fresh\nfresh: %s\nincremental: %s",
			want, got)
	}
}

// TestIncrementalHammer drives the shared-solver fan-out hard enough for
// the -race CI job to see the interleavings: eight shard solvers blast
// concurrently from the frozen context and every Sat is re-solved by a
// fresh solver on the same DAG. Canonical bytes must match the serial
// fresh baseline every time.
func TestIncrementalHammer(t *testing.T) {
	prog, spec := dcGateway(t)
	base, err := Run(prog, nil, spec, Options{FindAll: true, Parallel: 1})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	want, err := base.CanonicalJSON()
	if err != nil {
		t.Fatalf("canonical: %v", err)
	}
	iters := 3
	if testing.Short() {
		iters = 1
	}
	for it := 0; it < iters; it++ {
		rep, err := Run(prog, nil, spec, Options{FindAll: true, Parallel: 8,
			Incremental: true, Preprocess: true, Slice: true})
		if err != nil {
			t.Fatalf("iter %d: %v", it, err)
		}
		got, err := rep.CanonicalJSON()
		if err != nil {
			t.Fatalf("iter %d: canonical: %v", it, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("iter %d: hammer report differs from baseline", it)
		}
	}
}
