package ledger

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// Workload is one benchmark workload: a seeded set of inputs and the
// closed-loop load that drives them.
type Workload struct {
	Name string
	Why  string
	// tracedOps is the number of operations the traced phase replays;
	// quickOps bounds each client's timed operations under Config.Quick
	// (which also replays just quickTraced).
	tracedOps, quickOps, quickTraced int
	setup                            func(seed int64, exp Expected, tmp string) (instance, error)
}

// Workloads lists the benchmark's workloads.
var Workloads = []Workload{
	{Name: DCGWCold, Why: "cold aquila -all -json runs of the DC Gateway: a small program where front end and violation path are a real share",
		tracedOps: 20, quickOps: 3, quickTraced: 1, setup: setupDCGW},
	{Name: SwitchCold, Why: "cold runs of the production-scale Table 3 switch (142 assertions): fresh per-assertion blasting dominates",
		tracedOps: 3, quickOps: 3, quickTraced: 1, setup: setupSwitch},
	{Name: EntriesLean, Why: "one lookup over 2000 seeded table entries with the scale campaign's engine config: CNF preprocessing dominates",
		tracedOps: 3, quickOps: 3, quickTraced: 1, setup: setupEntries},
	{Name: ServeChurn, Why: "the warm path: two clients push seeded deltas and reads through two aquila-serve sessions that live for the whole run, on a 1024-entry table",
		tracedOps: 64, quickOps: 10, quickTraced: 8, setup: setupServe},
}

// instance is one set-up workload.
type instance interface {
	clientCount() int
	// op runs request i of client c; tr is nil in the timed phase.
	op(c, i int, tr *tracer) outcome
	// finish runs the correctness checks kept out of the timed window and
	// returns one message per wrong verdict.
	finish() []string
	// traced runs the traced phase over the first k operations.
	traced(k int, tr *tracer) (*tracedOut, error)
	close()
}

// opKind separates the request types of a workload: latency_ms_* time
// the writes (every cold operation; the deltas on serve-churn),
// read_ms_p50 the reads.
type opKind int

const (
	opWrite opKind = iota
	opRead
)

// outcome is one operation's result. wrong marks a verdict that differs
// from the pinned one; failed covers errors, non-2xx responses, budget
// Unknowns and wrong verdicts.
type outcome struct {
	kind          opKind
	failed, wrong bool
	err           error
}

// tracedOut is what a workload's traced phase measured beyond its spans:
// traced operation latencies, counts and derived values, replay-check
// failures (errs) and wrong verdicts. untraced, when set, holds the
// latencies of the same operations replayed without spans in the same
// process state; trace.overhead_frac compares against it instead of the
// timed phase.
type tracedOut struct {
	latency  []time.Duration
	untraced []time.Duration
	values   map[string]Value
	errs     []string
	wrong    []string
}

type sample struct {
	outcome
	dur time.Duration
}

// drive runs the closed loop: one goroutine per client sends its next
// request only after the previous one returns, until window has passed
// (maxOps == 0) or each client has sent maxOps requests.
func drive(inst instance, tr *tracer, window time.Duration, maxOps int) ([]sample, time.Duration) {
	n := inst.clientCount()
	per := make([][]sample, n)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; (maxOps > 0 && i < maxOps) || (maxOps == 0 && time.Since(start) < window); i++ {
				t0 := time.Now()
				o := inst.op(c, i, tr)
				per[c] = append(per[c], sample{outcome: o, dur: time.Since(t0)})
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all, elapsed
}

// Value is one measured metric with the number of samples behind it.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// Run is one workload run.
type Run struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	// Attempted and Failed count the timed phase's operations (requests
	// on serve-churn); Wrong counts wrong verdicts found anywhere in the
	// run. Correct is false on any failed operation, wrong verdict or
	// failed replay check, described in Errors.
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Wrong     int              `json:"wrong"`
	Correct   bool             `json:"correct"`
	Errors    []string         `json:"errors,omitempty"`
	Metrics   map[string]Value `json:"metrics"`
}

// Config configures one workload run.
type Config struct {
	Seed    int64
	Seconds float64
	// Trace adds the traced phase and the per-layer metrics.
	Trace bool
	// Quick bounds the timed phase by operation counts instead of time
	// and sets up once (the smoke-test mode).
	Quick bool
	// TracePath receives the traced phase's Chrome trace ("": not written).
	TracePath string
	// TempDir holds the serve-churn journals.
	TempDir string
}

// A run sets its workload up setupMinReps times, then again until
// setupBudget of set-up time has passed or it has setupMaxReps samples;
// setup_s is their median. The budget buys a cheap set-up many samples.
const (
	setupMinReps = 9
	setupMaxReps = 201
	setupBudget  = 500 * time.Millisecond
)

// RunWorkload runs one workload in this process: set up, the timed
// phase, the out-of-window correctness checks, then with cfg.Trace the
// traced phase.
func RunWorkload(name string, cfg Config) (*Run, error) {
	var w *Workload
	for i := range Workloads {
		if Workloads[i].Name == name {
			w = &Workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("ledger: unknown workload %q", name)
	}
	exp, err := LoadExpected()
	if err != nil {
		return nil, err
	}
	minReps, budget, maxOps, k := setupMinReps, setupBudget, 0, w.tracedOps
	if cfg.Quick {
		minReps, budget, maxOps, k = 1, 0, w.quickOps, w.quickTraced
	}
	// Each set-up, and the timed phase after them, starts on a collected
	// heap, so no phase pays for the garbage of the one before.
	var inst instance
	var setup []float64
	var spent time.Duration
	for len(setup) < minReps || (spent < budget && len(setup) < setupMaxReps) {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		t0 := time.Now()
		if inst, err = w.setup(cfg.Seed, exp, cfg.TempDir); err != nil {
			return nil, fmt.Errorf("ledger: %s set-up: %w", name, err)
		}
		d := time.Since(t0)
		spent += d
		setup = append(setup, d.Seconds())
	}
	defer inst.close()

	run := &Run{Workload: name, Seed: cfg.Seed, Metrics: map[string]Value{}}
	runtime.GC()
	u0 := readUsage()
	samples, elapsed := drive(inst, nil, time.Duration(cfg.Seconds*float64(time.Second)), maxOps)
	u1 := readUsage()
	run.Seconds = elapsed.Seconds()
	run.Attempted = len(samples)
	// Failed operations are counted but not timed: a change that makes
	// requests fail fast must not look faster.
	var writes, reads []float64
	for _, s := range samples {
		if s.wrong {
			run.Wrong++
		}
		switch {
		case s.failed:
			run.Failed++
			if len(run.Errors) < 10 {
				run.Errors = append(run.Errors, s.err.Error())
			}
		case s.kind == opWrite:
			writes = append(writes, ms(s.dur))
		case s.kind == opRead:
			reads = append(reads, ms(s.dur))
		}
	}
	done := len(samples) - run.Failed
	// set records a metric on the workloads the glossary applies it to.
	set := func(metric string, v Value) {
		if m, ok := lookupMetric(metric); ok && m.AppliesTo(name) {
			v.Unit = m.Unit
			run.Metrics[metric] = v
		}
	}
	set("setup_s", median(setup))
	if len(writes) > 0 {
		set("latency_ms_p50", quantileValue(writes, 0.50))
	}
	if len(writes) >= 1000 { // at least ten samples beyond p99
		set("latency_ms_p99", quantileValue(writes, 0.99))
	}
	if len(reads) > 0 {
		set("read_ms_p50", quantileValue(reads, 0.50))
	}
	if done > 0 {
		perOp := func(x float64) Value { return Value{Value: x / float64(done), N: done} }
		set("ops_per_s", Value{Value: float64(done) / elapsed.Seconds(), N: done})
		set("cpu_ms_per_op", perOp((u1.cpu-u0.cpu).Seconds()*1e3))
		set("go.allocs_per_op", perOp(u1.allocs-u0.allocs))
		set("go.alloc_mb_per_op", perOp((u1.allocBytes-u0.allocBytes)/1e6))
	}
	set("peak_rss_mb", Value{Value: float64(u1.maxRSS) / 1e6, N: 1})
	set("go.gc_cpu_frac", Value{Value: (u1.gcCPU - u0.gcCPU) / (u1.cpu - u0.cpu).Seconds(), N: len(samples)})
	wrong := inst.finish()

	var errs []string
	if cfg.Trace {
		tr := newTracer()
		out, err := inst.traced(k, tr)
		if err != nil {
			return nil, fmt.Errorf("ledger: %s traced phase: %w", name, err)
		}
		wrong = append(wrong, out.wrong...)
		errs = out.errs
		for n, v := range out.values {
			set(n, v)
		}
		for n, v := range layerTimes(tr) {
			set(n, v)
		}
		base := run.Metrics["latency_ms_p50"].Value
		if len(out.untraced) > 0 {
			base = median(millis(out.untraced)).Value
		}
		if traced := millis(out.latency); base > 0 && len(traced) > 0 {
			set("trace.overhead_frac", Value{Value: median(traced).Value/base - 1, N: len(traced)})
		}
		if cfg.TracePath != "" {
			if err := writeTrace(tr, cfg.TracePath); err != nil {
				return nil, err
			}
		}
	}
	run.Wrong += len(wrong)
	run.Errors = append(run.Errors, wrong...)
	run.Errors = append(run.Errors, errs...)
	set("failed_frac", Value{Value: float64(run.Failed) / float64(len(samples)), N: len(samples)})
	set("wrong_verdicts", Value{Value: float64(run.Wrong), N: len(samples)})
	run.Correct = run.Failed == 0 && run.Wrong == 0 && len(errs) == 0
	return run, nil
}

// layerTimes turns the spans into per-layer metrics: for each glossary
// metric with a span, the median over the operations that contain that
// span of the operation's summed self time, in the metric's unit.
func layerTimes(tr *tracer) map[string]Value {
	self := tr.selfTimes()
	ops := make([]int, 0, len(self))
	for op := range self {
		ops = append(ops, op)
	}
	sort.Ints(ops)
	out := map[string]Value{}
	for _, m := range Glossary {
		if m.Span == "" {
			continue
		}
		var xs []float64
		for _, op := range ops {
			if ns, ok := self[op][m.Span]; ok {
				xs = append(xs, float64(ns)/unitNS[m.Unit])
			}
		}
		if len(xs) > 0 {
			out[m.Name] = median(xs)
		}
	}
	return out
}

var unitNS = map[string]float64{"s": 1e9, "ms": 1e6, "us": 1e3}

func writeTrace(tr *tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// usage is a point-in-time reading of the process's resource counters.
type usage struct {
	cpu                time.Duration // user+sys (getrusage)
	maxRSS             int64         // bytes
	allocs, allocBytes float64
	gcCPU              float64 // runtime/metrics estimate, CPU-seconds
}

var usageMetrics = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readUsage() usage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(usageMetrics))
	for i, name := range usageMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return usage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSS:     ru.Maxrss * 1024, // KiB on Linux
		allocs:     float64(s[0].Value.Uint64()),
		allocBytes: float64(s[1].Value.Uint64()),
		gcCPU:      s[2].Value.Float64(),
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func millis(ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return xs
}

// quantile returns the p-quantile of xs by the "exclusive" method of
// Python's statistics.quantiles: rank (n+1)p, interpolated between
// neighbours and clamped to the extremes. At p = 0.5 it is the usual
// median; with no samples it is 0. Every quantile the ledger reports, in
// a run or in -compare, comes from here.
func quantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	h := float64(n+1) * p
	j := int(math.Floor(h))
	switch {
	case n == 0:
		return 0
	case j < 1:
		return s[0]
	case j >= n:
		return s[n-1]
	}
	return s[j-1] + (h-float64(j))*(s[j]-s[j-1])
}

// quantileValue is quantile with its sample count.
func quantileValue(xs []float64, p float64) Value {
	return Value{Value: quantile(xs, p), N: len(xs)}
}

func median(xs []float64) Value { return quantileValue(xs, 0.5) }

// Provenance records where and how a result was measured.
type Provenance struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Revision   string  `json:"vcs_revision"`
	Dirty      bool    `json:"vcs_dirty"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick"`
}

// NewProvenance reads the host and build facts.
func NewProvenance(seed int64, seconds float64, quick bool) Provenance {
	p := Provenance{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Revision: "unknown", Seed: seed, Seconds: seconds, Quick: quick}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Dirty = s.Value == "true"
			}
		}
	}
	return p
}

// Result is a ledger result file: provenance plus every run, by workload.
type Result struct {
	Provenance Provenance        `json:"provenance"`
	Workloads  map[string][]*Run `json:"workloads"`
}

// LoadResult reads a result file.
func LoadResult(path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("ledger: %s: %w", path, err)
	}
	return &r, nil
}

// SummaryLine is the run's one-line JSON summary: correctness, operation
// counts, and the BENCHMARK.json metrics of one kind (end-to-end, or with
// layers set the per-layer ones), each as value and unit.
func (r *Run) SummaryLine(layers bool) ([]byte, error) {
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]vu{}
	for _, m := range Glossary {
		if !m.Listed || m.EndToEnd == layers {
			continue
		}
		if v, ok := r.Metrics[m.Name]; ok {
			out[m.Name] = vu{v.Value, v.Unit}
		}
	}
	return json.Marshal(map[string]any{"correct": r.Correct, "attempted": r.Attempted,
		"failed": r.Failed, "metrics": out})
}
