package verify

import (
	"bytes"
	"errors"
	"testing"

	"aquila/internal/lpi"
	"aquila/internal/p4"
	"aquila/internal/progs"
)

// corpusSuite is every hand-written program plus the DC gateway, each
// paired with its generated invalid-header-access spec.
func corpusSuite(t *testing.T) []struct {
	name string
	prog *p4.Program
	spec *lpi.Spec
} {
	t.Helper()
	var out []struct {
		name string
		prog *p4.Program
		spec *lpi.Spec
	}
	for _, bm := range append(progs.HandWrittenSuite(), progs.DCGatewayBench(), progs.SkewedBench()) {
		prog, err := bm.Parse()
		if err != nil {
			t.Fatalf("%s: parse: %v", bm.Name, err)
		}
		spec, err := lpi.Parse(progs.InvalidHeaderAccessSpec(prog, bm.Calls))
		if err != nil {
			t.Fatalf("%s: spec: %v", bm.Name, err)
		}
		out = append(out, struct {
			name string
			prog *p4.Program
			spec *lpi.Spec
		}{bm.Name, prog, spec})
	}
	return out
}

// TestParallelReportsByteIdentical is the engine's determinism contract:
// at any Parallel setting the canonical report bytes match the serial run
// exactly — same verdicts, violations, counterexamples and formula sizes.
func TestParallelReportsByteIdentical(t *testing.T) {
	for _, c := range corpusSuite(t) {
		serial, err := Run(c.prog, nil, c.spec, Options{FindAll: true, Parallel: 1})
		if err != nil {
			t.Fatalf("%s: serial: %v", c.name, err)
		}
		want, err := serial.CanonicalJSON()
		if err != nil {
			t.Fatalf("%s: canonical: %v", c.name, err)
		}
		for _, w := range []int{2, 4, 8} {
			rep, err := Run(c.prog, nil, c.spec, Options{FindAll: true, Parallel: w})
			if err != nil {
				t.Fatalf("%s: workers=%d: %v", c.name, w, err)
			}
			got, err := rep.CanonicalJSON()
			if err != nil {
				t.Fatalf("%s: workers=%d canonical: %v", c.name, w, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: workers=%d report differs from serial\nserial: %s\nparallel: %s",
					c.name, w, want, got)
			}
			if rep.Stats.Workers < 1 {
				t.Errorf("%s: workers=%d: Stats.Workers = %d", c.name, w, rep.Stats.Workers)
			}
		}
	}
}

// TestParallelBudgetExhaustion pins budget semantics under parallelism:
// a budget too small for any check makes every worker stop, ErrBudget
// surfaces exactly as in the serial run, and the partial report (the
// consumed prefix before the first exhausted check) is byte-identical.
func TestParallelBudgetExhaustion(t *testing.T) {
	bm := progs.DCGatewayBench()
	prog, err := bm.Parse()
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	spec, err := lpi.Parse(progs.InvalidHeaderAccessSpec(prog, bm.Calls))
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	opts := Options{FindAll: true, Budget: 1, Parallel: 1}
	serial, err := Run(prog, nil, spec, opts)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("serial budget=1: err = %v, want ErrBudget", err)
	}
	want, cerr := serial.CanonicalJSON()
	if cerr != nil {
		t.Fatalf("canonical: %v", cerr)
	}
	for _, w := range []int{4, 8} {
		opts.Parallel = w
		rep, err := Run(prog, nil, spec, opts)
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("workers=%d budget=1: err = %v, want ErrBudget", w, err)
		}
		got, cerr := rep.CanonicalJSON()
		if cerr != nil {
			t.Fatalf("workers=%d canonical: %v", w, cerr)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d: budget-exhausted report differs from serial\nserial: %s\nparallel: %s",
				w, want, got)
		}
	}
}

// TestForEach exercises the fan-out primitive directly.
func TestForEach(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		n := 57
		hits := make([]int, n)
		ForEach(workers, n, func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
	ForEach(4, 0, func(i int) { t.Fatal("callback on empty range") })
}

// TestRunDropsMemo checks that a find-all run leaves no recorded
// verdicts on the context its Report keeps. Three of the DC gateway's 13
// conditions repeat an earlier Unsat one, so its fresh solvers record
// some.
func TestRunDropsMemo(t *testing.T) {
	bm := progs.DCGatewayBench()
	prog, err := bm.Parse()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := lpi.Parse(progs.InvalidHeaderAccessSpec(prog, bm.Calls))
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2} {
		rep, err := Run(prog, nil, spec, Options{FindAll: true, Parallel: par})
		if err != nil {
			t.Fatal(err)
		}
		if n := rep.Ctx.MemoLen(); n != 0 {
			t.Fatalf("parallel %d: the report's context holds %d recorded verdicts", par, n)
		}
	}
}
