package ledger

// Metric is one glossary row. The glossary is the single definition of
// every number the ledger emits: BENCHMARK.json lists exactly the Listed
// rows, -compare takes bounds from it, and the package doc describes each
// row, with a per-layer metric's module and the end-to-end metric it
// should move.
type Metric struct {
	Name string
	Unit string
	// Better is "lower" or "higher".
	Better string
	// EndToEnd marks a metric a user of the verifier sees; the rest are
	// per-layer attribution metrics.
	EndToEnd bool
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change counts as a regression; 0 means
	// any worsening regresses.
	Bound float64
	// Span is the traced span whose per-operation self time the metric
	// reports ("" for counts and derived values).
	Span string
	// Workloads restricts the metric to the workloads it applies to (nil:
	// every workload).
	Workloads []string
	// Listed marks the rows BENCHMARK.json carries: metrics that apply to
	// every workload and, for times, are never zero on any of them.
	Listed bool
}

// Workload names.
const (
	DCGWCold    = "dcgw-cold"
	SwitchCold  = "switch-cold"
	EntriesLean = "entries-lean"
	ServeChurn  = "serve-churn"
)

var (
	onlyServe   = []string{ServeChurn}
	onlyEntries = []string{EntriesLean}
)

// Glossary lists every metric, end-to-end rows first.
var Glossary = []Metric{
	{Name: "setup_s", Unit: "s", Better: "lower", EndToEnd: true, Bound: 0.25, Listed: true},
	{Name: "latency_ms_p50", Unit: "ms", Better: "lower", EndToEnd: true, Bound: 0.25, Listed: true},
	{Name: "latency_ms_p99", Unit: "ms", Better: "lower", EndToEnd: true, Bound: 0.10, Workloads: []string{DCGWCold, ServeChurn}},
	{Name: "read_ms_p50", Unit: "ms", Better: "lower", EndToEnd: true, Bound: 0.10, Workloads: onlyServe},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", EndToEnd: true, Bound: 0.25, Listed: true},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", EndToEnd: true, Bound: 0.25, Listed: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", EndToEnd: true, Bound: 0.10},
	{Name: "failed_frac", Unit: "frac", Better: "lower", EndToEnd: true},
	{Name: "wrong_verdicts", Unit: "count", Better: "lower", EndToEnd: true},

	{Name: "p4.parse_ms", Unit: "ms", Better: "lower", Span: "p4.parse", Listed: true},
	{Name: "lpi.spec_parse_ms", Unit: "ms", Better: "lower", Span: "lpi.spec_parse", Listed: true},
	{Name: "lpi.compose_ms", Unit: "ms", Better: "lower", Span: "lpi.compose", Listed: true},
	{Name: "tables.snapshot_parse_ms", Unit: "ms", Better: "lower", Span: "tables.snapshot_parse", Workloads: []string{EntriesLean, ServeChurn}},
	{Name: "tables.delta_parse_us", Unit: "us", Better: "lower", Span: "tables.delta_parse", Workloads: onlyServe},
	{Name: "tables.delta_apply_us", Unit: "us", Better: "lower", Span: "tables.delta_apply", Workloads: onlyServe},
	{Name: "tables.snapshot_clone_us", Unit: "us", Better: "lower", Span: "tables.snapshot_clone", Workloads: onlyServe},
	{Name: "encode.env_us", Unit: "us", Better: "lower", Span: "encode.env", Listed: true},
	{Name: "encode.terms", Unit: "count", Better: "lower", Listed: true},
	{Name: "gcl.vcgen_ms", Unit: "ms", Better: "lower", Span: "gcl.vcgen", Listed: true},
	{Name: "gcl.stmts", Unit: "count", Better: "lower", Listed: true},
	{Name: "gcl.vc_terms", Unit: "count", Better: "lower", Listed: true},
	{Name: "smt.blast_ms", Unit: "ms", Better: "lower", Span: "smt.blast", Listed: true},
	{Name: "smt.tseitin_clauses", Unit: "count", Better: "lower", Listed: true},
	{Name: "smt.blast_hit_frac", Unit: "frac", Better: "higher", Listed: true},
	{Name: "smt.sat_vars", Unit: "count", Better: "lower", Listed: true},
	{Name: "smt.model_ms", Unit: "ms", Better: "lower", Span: "smt.model", Workloads: []string{DCGWCold, SwitchCold}},
	{Name: "sat.preprocess_ms", Unit: "ms", Better: "lower", Span: "sat.preprocess", Workloads: onlyEntries},
	{Name: "sat.clauses_in", Unit: "count", Better: "lower", Listed: true},
	{Name: "sat.clauses_out", Unit: "count", Better: "lower", Listed: true},
	{Name: "sat.elim_vars", Unit: "count", Better: "higher", Listed: true},
	{Name: "sat.search_ms", Unit: "ms", Better: "lower", Span: "sat.search", Listed: true},
	{Name: "sat.conflicts", Unit: "count", Better: "lower", Listed: true},
	{Name: "sat.propagations", Unit: "count", Better: "lower", Listed: true},
	{Name: "verify.run_ms", Unit: "ms", Better: "lower", Span: "verify.run", Listed: true},
	{Name: "verify.solve_cpu_ms", Unit: "ms", Better: "lower", Listed: true},
	{Name: "verify.solve_wall_ms", Unit: "ms", Better: "lower", Listed: true},
	{Name: "verify.worker_busy_frac", Unit: "frac", Better: "higher", Listed: true},
	{Name: "verify.check_ms_max", Unit: "ms", Better: "lower", Listed: true},
	{Name: "verify.report_ms", Unit: "ms", Better: "lower", Span: "verify.report", Listed: true},
	{Name: "verify.slice_drop_frac", Unit: "frac", Better: "higher", Listed: true},
	{Name: "verify.session_apply_ms", Unit: "ms", Better: "lower", Span: "verify.session_apply", Workloads: onlyServe},
	{Name: "verify.delta_reuse_frac", Unit: "frac", Better: "higher", Workloads: onlyServe},
	{Name: "serve.queue_wait_us_mean", Unit: "us", Better: "lower", Workloads: onlyServe},
	{Name: "serve.apply_wall_us_mean", Unit: "us", Better: "lower", Workloads: onlyServe},
	{Name: "serve.overhead_ms", Unit: "ms", Better: "lower", Workloads: onlyServe},
	{Name: "serve.journal_bytes_per_delta", Unit: "B", Better: "lower", Workloads: onlyServe},
	{Name: "go.allocs_per_op", Unit: "count", Better: "lower", Listed: true},
	{Name: "go.alloc_mb_per_op", Unit: "MB", Better: "lower", Listed: true},
	{Name: "go.gc_cpu_frac", Unit: "frac", Better: "lower", Listed: true},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower", Listed: true},
}

// lookupMetric returns the glossary row for name.
func lookupMetric(name string) (Metric, bool) {
	for _, m := range Glossary {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// AppliesTo reports whether the metric is emitted on workload w.
func (m Metric) AppliesTo(w string) bool {
	if m.Workloads == nil {
		return true
	}
	for _, x := range m.Workloads {
		if x == w {
			return true
		}
	}
	return false
}
