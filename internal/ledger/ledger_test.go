package ledger

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var namePattern = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// Benchmark is the part of BENCHMARK.json the tests read: its workloads
// and metric rows.
type Benchmark struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []BenchMetric `json:"end_to_end"`
	PerLayer []BenchMetric `json:"per_layer"`
}

// BenchMetric is one BENCHMARK.json metric row; Bound is absent on
// per-layer rows.
type BenchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadBenchmark(t *testing.T) *Benchmark {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b Benchmark
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &b
}

// TestBenchmarkJSON pins BENCHMARK.json to the glossary: its metric rows
// are exactly the Listed glossary rows, and names and counts stay within
// the contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	b := loadBenchmark(t)
	if len(b.Workloads) > 8 || len(b.EndToEnd) > 16 || len(b.PerLayer) > 128 {
		t.Fatalf("%d workloads, %d end-to-end and %d per-layer metrics exceed 8/16/128",
			len(b.Workloads), len(b.EndToEnd), len(b.PerLayer))
	}
	if len(b.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the ledger %d", len(b.Workloads), len(Workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != Workloads[i].Name || w.Why != Workloads[i].Why || !namePattern.MatchString(w.Name) {
			t.Errorf("workload %d: %q (%s), want %q (%s)", i, w.Name, w.Why, Workloads[i].Name, Workloads[i].Why)
		}
	}
	var want []BenchMetric
	for _, m := range Glossary {
		if m.Listed {
			if m.Workloads != nil {
				t.Errorf("%s is listed but applies only to %v", m.Name, m.Workloads)
			}
			row := BenchMetric{Name: m.Name, Unit: m.Unit, Better: m.Better}
			if m.EndToEnd {
				bound := m.Bound
				row.Bound = &bound
			}
			want = append(want, row)
		}
	}
	got := append(append([]BenchMetric(nil), b.EndToEnd...), b.PerLayer...)
	if len(got) != len(want) {
		t.Fatalf("BENCHMARK.json lists %d metrics, the glossary %d", len(got), len(want))
	}
	for i, m := range got {
		w := want[i]
		if m.Name != w.Name || m.Unit != w.Unit || m.Better != w.Better || (m.Bound == nil) != (w.Bound == nil) ||
			(m.Bound != nil && *m.Bound != *w.Bound) {
			t.Errorf("row %d: %+v, glossary says %+v", i, m, w)
		}
		if !namePattern.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
		if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
		}
	}
}

// TestQuickWorkloads runs every workload in quick mode with tracing and
// checks that each BENCHMARK.json metric is emitted with its unit, that
// every verdict and replay check passed, and that the trace parses.
func TestQuickWorkloads(t *testing.T) {
	b := loadBenchmark(t)
	listed := append(append([]BenchMetric(nil), b.EndToEnd...), b.PerLayer...)
	dir := t.TempDir()
	for _, w := range Workloads {
		t.Run(w.Name, func(t *testing.T) {
			tracePath := filepath.Join(dir, w.Name+".trace.json")
			r, err := RunWorkload(w.Name, Config{Seed: 7, Quick: true, Trace: true, TracePath: tracePath, TempDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Wrong != 0 || r.Failed != 0 || r.Metrics["wrong_verdicts"].Value != 0 {
				t.Fatalf("correct=%v wrong=%d failed=%d: %v", r.Correct, r.Wrong, r.Failed, r.Errors)
			}
			for _, m := range listed {
				v, ok := r.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s: got %+v (present %v), want unit %s", m.Name, v, ok, m.Unit)
				}
			}
			var line struct {
				Metrics map[string]json.RawMessage `json:"metrics"`
			}
			data, err := r.SummaryLine(true)
			if err != nil || json.Unmarshal(data, &line) != nil || len(line.Metrics) != len(b.PerLayer) {
				t.Errorf("per-layer summary line %s: %v", data, err)
			}
			raw, err := os.ReadFile(tracePath)
			if err != nil {
				t.Fatal(err)
			}
			var trace struct {
				TraceEvents []traceEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(raw, &trace); err != nil || len(trace.TraceEvents) == 0 {
				t.Fatalf("trace: %d events, %v", len(trace.TraceEvents), err)
			}
		})
	}
}

// TestReplayMatchesRun checks the layer replay against verify.Run on the
// DC Gateway: same verdict for every assertion, violations included.
func TestReplayMatchesRun(t *testing.T) {
	exp, err := LoadExpected()
	if err != nil {
		t.Fatal(err)
	}
	inst, err := setupDCGW(0, exp, "")
	if err != nil {
		t.Fatal(err)
	}
	c := inst.(*cold)
	in, err := c.run(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := replay(nil, 0, in, c.opts)
	if err != nil {
		t.Fatal(err)
	}
	if msg := compareStatuses(rp.statuses, in.rep.Stats.PerAssertion); msg != "" {
		t.Fatal(msg)
	}
	violated := 0
	for _, s := range rp.statuses {
		if s == "sat" {
			violated++
		}
	}
	if violated != len(exp[DCGWCold].Violated) {
		t.Fatalf("replay found %d violations, want %d", violated, len(exp[DCGWCold].Violated))
	}
}

// TestDocGlossary keeps the package doc's glossary complete.
func TestDocGlossary(t *testing.T) {
	doc, err := os.ReadFile("doc.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Glossary {
		if !strings.Contains(string(doc), m.Name) {
			t.Errorf("doc.go does not describe %s", m.Name)
		}
	}
}

// flaky is a workload whose odd operations fail at once and whose even
// ones take at least evenDur.
type flaky struct{}

const evenDur = 2 * time.Millisecond

func (flaky) clientCount() int { return 1 }
func (flaky) op(_, i int, _ *tracer) outcome {
	if i%2 == 1 {
		return outcome{failed: true, err: errors.New("refused")}
	}
	time.Sleep(evenDur)
	return outcome{}
}
func (flaky) finish() []string                        { return nil }
func (flaky) traced(int, *tracer) (*tracedOut, error) { return &tracedOut{}, nil }
func (flaky) close()                                  {}

// TestFailedOpsNotTimed checks that failed operations make a run
// incorrect and stay out of its latency and throughput.
func TestFailedOpsNotTimed(t *testing.T) {
	saved := Workloads
	defer func() { Workloads = saved }()
	Workloads = append(Workloads[:len(Workloads):len(Workloads)], Workload{Name: "flaky", quickOps: 10,
		setup: func(int64, Expected, string) (instance, error) { return flaky{}, nil }})
	r, err := RunWorkload("flaky", Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Correct || r.Attempted != 10 || r.Failed != 5 || r.Metrics["failed_frac"].Value != 0.5 {
		t.Fatalf("correct=%v attempted=%d failed=%d failed_frac=%v", r.Correct, r.Attempted, r.Failed, r.Metrics["failed_frac"])
	}
	if p50 := r.Metrics["latency_ms_p50"]; p50.N != 5 || p50.Value < ms(evenDur) {
		t.Errorf("latency_ms_p50 %+v: want the 5 successful operations, each at least %v", p50, evenDur)
	}
	if ops := r.Metrics["ops_per_s"]; ops.N != 5 {
		t.Errorf("ops_per_s counts %d operations, want the 5 successful ones", ops.N)
	}
}

// TestQuartiles pins quantile to Python's statistics.quantiles(n=4):
// quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	if m := median([]float64{3, 1, 2}); m.Value != 2 || m.N != 3 {
		t.Fatalf("median = %+v, want 2 over 3 samples", m)
	}
}

func TestJudge(t *testing.T) {
	for _, tc := range []struct {
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		{[]float64{10, 10.1, 9.9}, []float64{10.2, 10.3, 10.1}, "lower", 0.1, VerdictOK},
		{[]float64{10, 10.1, 9.9}, []float64{12, 12.1, 11.9}, "lower", 0.1, VerdictRegressed},
		{[]float64{10, 10.1, 9.9}, []float64{8, 8.1, 7.9}, "higher", 0.1, VerdictRegressed},
		{[]float64{5, 10, 15, 20}, []float64{12, 13, 14, 15}, "lower", 0.1, VerdictUnresolved},
		{[]float64{5, 10, 15, 20}, []float64{1, 2, 3, 4}, "lower", 0.1, VerdictOK},
		{[]float64{0, 0}, []float64{0, 1}, "lower", 0, VerdictRegressed},
	} {
		if got := judge(tc.a, tc.b, tc.better, tc.bound); got != tc.want {
			t.Errorf("judge(%v, %v, %s, %v) = %s, want %s", tc.a, tc.b, tc.better, tc.bound, got, tc.want)
		}
	}
}
