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
// ErrBudget surfaces exactly as in the serial run, every worker stops, and
// the partial report (the consumed prefix before the first exhausted
// check) is byte-identical at every worker count. Two budgets: one that
// only the DC gateway's first, conflict-free check survives, and one that
// lets the skewed-telemetry program's light checks and its violation
// finish before its one heavy obligation exhausts. Every check runs on
// its own fresh solver, so how far a budget reaches never depends on the
// schedule.
func TestParallelBudgetExhaustion(t *testing.T) {
	for _, c := range []struct {
		bm       *progs.Benchmark
		budget   int64
		finished int // checks consumed before the exhausted one
	}{
		{progs.DCGatewayBench(), 1, 1},
		{progs.SkewedBench(), 1000, 6},
	} {
		prog, err := c.bm.Parse()
		if err != nil {
			t.Fatalf("%s: parse: %v", c.bm.Name, err)
		}
		spec, err := lpi.Parse(progs.InvalidHeaderAccessSpec(prog, c.bm.Calls))
		if err != nil {
			t.Fatalf("%s: spec: %v", c.bm.Name, err)
		}
		var want []byte
		for _, w := range []int{1, 2, 4, 8} {
			rep, err := Run(prog, nil, spec, Options{FindAll: true, Budget: c.budget, Parallel: w})
			if !errors.Is(err, ErrBudget) {
				t.Fatalf("%s workers=%d budget=%d: err = %v, want ErrBudget", c.bm.Name, w, c.budget, err)
			}
			got, cerr := rep.CanonicalJSON()
			if cerr != nil {
				t.Fatalf("%s workers=%d canonical: %v", c.bm.Name, w, cerr)
			}
			if w == 1 {
				pa := rep.Stats.PerAssertion
				if len(pa) != c.finished+1 || pa[len(pa)-1].Status != "unknown" {
					t.Fatalf("%s budget=%d: consumed %d checks, want %d finished then one unknown",
						c.bm.Name, c.budget, len(pa), c.finished)
				}
				want = got
				continue
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s workers=%d: budget-exhausted report differs from serial\nserial: %s\nparallel: %s",
					c.bm.Name, w, want, got)
			}
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
