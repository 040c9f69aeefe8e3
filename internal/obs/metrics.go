package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Canonical counter and gauge names — the glossary DESIGN.md documents.
// Counters accumulate across every solver instance of a run; gauges hold
// the latest value.
const (
	// SAT core (per-solve work, summed over all fresh solver instances).
	CtrSATConflicts     = "sat.conflicts"
	CtrSATDecisions     = "sat.decisions"
	CtrSATPropagations  = "sat.propagations"
	CtrSATRestarts      = "sat.restarts"
	CtrSATLearntClause  = "sat.learnt_clauses"
	CtrSATLearntLits    = "sat.learnt_literals"
	CtrSATLearntDeleted = "sat.learnt_deleted"

	// SAT preprocessing (SatELite-style CNF simplification).
	CtrSATElimVars     = "sat.elim_vars"
	CtrSATSubsumed     = "sat.subsumed_clauses"
	CtrSATStrengthened = "sat.strengthened_clauses"

	// SMT layer (bit-blasting and term interning).
	CtrSMTTseitinClauses   = "smt.tseitin_clauses"
	CtrSMTBlastHits        = "smt.blast_cache_hits"
	CtrSMTBlastMisses      = "smt.blast_cache_misses"
	CtrSMTInternHits       = "smt.intern_hits"
	CtrSMTInternMisses     = "smt.intern_misses"
	CtrSMTFrozenLocks      = "smt.frozen_ctx_locks"
	CtrSMTSimplifyRewrites = "smt.simplify_rewrites"
	CtrSMTTermsReleased    = "smt.terms_released"

	// GCL structure: one counter per statement kind reachable in the
	// compiled verification program, named CtrGCLStmtPrefix + kind. The
	// fuzzer's coverage signature reads these to detect encoder shapes a
	// mutant newly exercised.
	CtrGCLStmtPrefix = "gcl.stmt."

	// Verification driver.
	CtrVerifyChecks       = "verify.checks"
	CtrVerifySat          = "verify.checks_sat"
	CtrVerifyUnsat        = "verify.checks_unsat"
	CtrVerifyUnknown      = "verify.checks_unknown"
	CtrVerifySliceDropped = "verify.slice_conjuncts_dropped"
	// Session (delta re-verification) engine: verdicts replayed from the
	// session cache vs assertions re-solved after a table delta.
	CtrVerifyDeltaReuse   = "verify.delta_reuse_hits"
	CtrVerifyDeltaRecheck = "verify.delta_recheck"
	GaugeTermNodes        = "smt.term_nodes"
	GaugeVerifyWorkers    = "verify.workers"
	GaugeVerifyShards     = "verify.incremental_shards"

	// Continuous verification daemon (internal/serve): applied deltas,
	// requests rejected before reaching a session (parse/validation/size
	// failures), sessions rebuilt from the journal on restart, and the
	// current live-session count.
	CtrServeDeltas     = "serve.deltas_applied"
	CtrServeRejected   = "serve.requests_rejected"
	CtrServeRecovered  = "serve.sessions_recovered"
	GaugeServeSessions = "serve.sessions"

	// Process memory, published by the scale campaign (internal/bench):
	// the sampled peak live heap of the most recent point and the heap
	// allocations accumulated across every point.
	GaugeBenchPeakHeap = "mem.peak_heap_bytes"
	CtrBenchAllocs     = "mem.heap_allocs"
)

// Counter is a monotone atomic counter. The zero value is usable; a nil
// *Counter ignores Add, so `registry.Counter(x).Add(n)` stays a nil-check
// when the registry is absent.
type Counter struct{ v atomic.Int64 }

// Add increments the counter. Safe on nil and safe for concurrent use —
// workers fold solver stats in from their own goroutines, which is what
// puts this layer under the -race CI job.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic last-value-wins gauge.
type Gauge struct{ v atomic.Int64 }

// Set stores v. Safe on nil.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry is a named counter/gauge store. Creation is mutex-guarded;
// updates go straight to the atomics, so concurrent writers never contend
// on the map once their instruments exist.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns (creating if needed) the named counter. A nil registry
// returns a nil counter, whose Add is a no-op.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge; nil-registry-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram;
// nil-registry-safe.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.histograms == nil {
		r.histograms = map[string]*Histogram{}
	}
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Histograms returns plain-data snapshots of every registered histogram
// keyed by name. Histograms are deliberately not part of Snapshot():
// the fuzzer's coverage signatures hash Snapshot maps, and folding
// distribution buckets in would perturb corpus scheduling.
func (r *Registry) Histograms() map[string]HistogramSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.histograms) == 0 {
		return nil
	}
	out := make(map[string]HistogramSnapshot, len(r.histograms))
	for name, h := range r.histograms {
		out[name] = h.Snapshot()
	}
	return out
}

// HistogramNames returns the registered histogram names, sorted.
func (r *Registry) HistogramNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.histograms))
	for name := range r.histograms {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Snapshot returns every counter and gauge's current value keyed by
// name (histograms are exposed via Histograms).
func (r *Registry) Snapshot() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters)+len(r.gauges))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	return out
}

// Names returns the registered instrument names, sorted.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.counters)+len(r.gauges))
	for name := range r.counters {
		out = append(out, name)
	}
	for name := range r.gauges {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
