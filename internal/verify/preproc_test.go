package verify

import (
	"bytes"
	"testing"

	"aquila/internal/gcl"
	"aquila/internal/genprog"
	"aquila/internal/lpi"
	"aquila/internal/progs"
	"aquila/internal/smt"
)

// TestPreprocessSliceMatchBaseline is the differential contract of the CNF
// preprocessing and cone-of-influence slicing passes: on the whole corpus,
// every combination of {preprocess, slice} at several worker counts
// produces canonical report bytes identical to the plain serial baseline.
// Eight workers on two or four CPUs keep the -race job's interleavings
// busy: fresh solvers blast concurrently from the frozen context and
// every Sat is re-solved on the same DAG.
func TestPreprocessSliceMatchBaseline(t *testing.T) {
	type pass struct {
		name       string
		preprocess bool
		slice      bool
	}
	passes := []pass{
		{"preprocess", true, false},
		{"slice", false, true},
		{"both", true, true},
	}
	for _, c := range corpusSuite(t) {
		base, err := Run(c.prog, nil, c.spec, Options{FindAll: true, Parallel: 1})
		if err != nil {
			t.Fatalf("%s: baseline: %v", c.name, err)
		}
		want, err := base.CanonicalJSON()
		if err != nil {
			t.Fatalf("%s: canonical: %v", c.name, err)
		}
		for _, p := range passes {
			for _, w := range []int{1, 2, 4, 8} {
				opts := Options{FindAll: true, Parallel: w,
					Preprocess: p.preprocess, Slice: p.slice}
				rep, err := Run(c.prog, nil, c.spec, opts)
				if err != nil {
					t.Fatalf("%s: %s w=%d: %v", c.name, p.name, w, err)
				}
				got, err := rep.CanonicalJSON()
				if err != nil {
					t.Fatalf("%s: %s w=%d canonical: %v", c.name, p.name, w, err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: %s w=%d differs from baseline\nbaseline: %s\ngot: %s",
						c.name, p.name, w, want, got)
				}
				if p.slice && rep.Stats.SliceConjuncts == 0 {
					t.Errorf("%s: %s w=%d: slicing recorded no conjuncts",
						c.name, p.name, w)
				}
			}
		}
	}
}

// TestPreprocessShrinksDCGateway pins the point of the passes on the
// many-assertion benchmark: preprocessing must record eliminated/subsumed
// structure and reduce SAT propagations, and slicing must drop conjuncts.
func TestPreprocessShrinksDCGateway(t *testing.T) {
	bm := progs.DCGatewayBench()
	prog, err := bm.Parse()
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	spec, err := lpi.Parse(progs.InvalidHeaderAccessSpec(prog, bm.Calls))
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	base, err := Run(prog, nil, spec, Options{FindAll: true, Parallel: 1})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	prep, err := Run(prog, nil, spec, Options{FindAll: true, Parallel: 1, Preprocess: true})
	if err != nil {
		t.Fatalf("preprocess: %v", err)
	}
	if prep.Stats.ElimVars+prep.Stats.SubsumedClauses+prep.Stats.StrengthenedClauses == 0 {
		t.Error("preprocessing ran but recorded no eliminated/subsumed/strengthened work")
	}
	if prep.Stats.CNFClauses >= base.Stats.CNFClauses {
		t.Errorf("preprocessing retained %d CNF clauses, want < baseline %d",
			prep.Stats.CNFClauses, base.Stats.CNFClauses)
	}
	sliced, err := Run(prog, nil, spec, Options{FindAll: true, Parallel: 1, Slice: true})
	if err != nil {
		t.Fatalf("slice: %v", err)
	}
	if sliced.Stats.SliceDropped == 0 {
		t.Errorf("slicing dropped no conjuncts (saw %d)", sliced.Stats.SliceConjuncts)
	}
}

// TestSliceGenprogDifferential repeats the differential check on synthetic
// production-shaped programs with seeded bugs: slicing must not change
// which assertions are violated or their counterexamples.
func TestSliceGenprogDifferential(t *testing.T) {
	cfgs := []genprog.Config{
		{Name: "gp_slice_small", Pipes: 1, ParserStates: 6, Tables: 8, ActionsPerTable: 2, SeedBug: true},
		{Name: "gp_slice_wide", Pipes: 2, ParserStates: 10, Tables: 14, ActionsPerTable: 3, SeedBug: true},
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
		base, err := Run(prog, nil, spec, Options{FindAll: true, Parallel: 1})
		if err != nil {
			t.Fatalf("%s: baseline: %v", cfg.Name, err)
		}
		if base.Holds {
			t.Fatalf("%s: seeded bug not found by baseline", cfg.Name)
		}
		want, err := base.CanonicalJSON()
		if err != nil {
			t.Fatalf("%s: canonical: %v", cfg.Name, err)
		}
		for _, w := range []int{1, 2} {
			rep, err := Run(prog, nil, spec, Options{FindAll: true, Parallel: w,
				Preprocess: true, Slice: true})
			if err != nil {
				t.Fatalf("%s: w=%d: %v", cfg.Name, w, err)
			}
			got, err := rep.CanonicalJSON()
			if err != nil {
				t.Fatalf("%s: w=%d canonical: %v", cfg.Name, w, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: sliced w=%d differs from baseline\nbaseline: %s\ngot: %s",
					cfg.Name, w, want, got)
			}
		}
	}
}

// TestFindAllZeroAssertions pins the n = 0 path end to end: a find-all
// run over an empty assertion list must hold, spawn no solvers, and not
// panic, on the serial path, the worker pool and the stream policy.
func TestFindAllZeroAssertions(t *testing.T) {
	for _, opts := range []Options{
		{FindAll: true, Parallel: 1, Preprocess: true, Slice: true},
		{FindAll: true, Parallel: 4, Preprocess: true, Slice: true},
		{FindAll: true, Parallel: 1, Stream: true, Preprocess: true, Slice: true},
	} {
		rep := &Report{Ctx: smt.NewCtx(), Result: &gcl.Result{}}
		if err := rep.check(opts); err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if len(rep.Violations) != 0 {
			t.Fatalf("%+v: violations on empty assertion list", opts)
		}
		if rep.Stats.SATVars != 0 || rep.Stats.CNFClauses != 0 {
			t.Fatalf("%+v: empty run created solver work: %+v", opts, rep.Stats)
		}
	}
}
