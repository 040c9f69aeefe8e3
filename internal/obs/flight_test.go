package obs

import (
	"bytes"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	var h Histogram // zero value usable, like Counter
	for _, v := range []int64{0, 1, 2, 3, 4, 7, 8, 1000} {
		h.Observe(v)
	}
	if got := h.Count(); got != 8 {
		t.Errorf("count = %d, want 8", got)
	}
	if got := h.Sum(); got != 1025 {
		t.Errorf("sum = %d, want 1025", got)
	}
	// BucketLog2: 0 -> 0, 1 -> 1, {2,3} -> 2, {4,7} -> 3, 8 -> 4, 1000 -> 10.
	want := map[int]int64{0: 1, 1: 1, 2: 2, 3: 2, 4: 1, 10: 1}
	for i := 0; i < NumHistBuckets; i++ {
		if got := h.Bucket(i); got != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, got, want[i])
		}
	}

	// Values past the last boundary clamp into the final bucket.
	h.Observe(1 << 62)
	if got := h.Bucket(NumHistBuckets - 1); got != 1 {
		t.Errorf("clamped bucket = %d, want 1", got)
	}
}

func TestHistogramBucketBounds(t *testing.T) {
	for i, want := range []int64{0, 1, 3, 7, 15, 31} {
		if got := HistBucketBound(i); got != want {
			t.Errorf("HistBucketBound(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestHistogramSnapshotMerge(t *testing.T) {
	var h Histogram
	h.Observe(1)
	h.Observe(6)
	s := h.Snapshot()
	if s.Count != 2 || s.Sum != 7 {
		t.Errorf("snapshot count/sum = %d/%d, want 2/7", s.Count, s.Sum)
	}
	// Buckets trimmed to the highest non-empty: 6 lands in bucket 3.
	if len(s.Buckets) != 4 {
		t.Errorf("snapshot buckets = %v, want length 4", s.Buckets)
	}

	var dst Histogram
	dst.Merge(s)
	dst.Merge(HistogramSnapshot{}) // empty merge is a no-op
	if dst.Count() != 2 || dst.Sum() != 7 || dst.Bucket(3) != 1 {
		t.Errorf("merged = count %d sum %d b3 %d, want 2/7/1", dst.Count(), dst.Sum(), dst.Bucket(3))
	}

	var pre Histogram
	pre.AddBucket(5, 3, 42)
	pre.AddBucket(99, 1, 1) // out-of-range clamps
	pre.AddBucket(2, 0, 9)  // n <= 0 ignored
	if pre.Count() != 4 || pre.Sum() != 43 || pre.Bucket(5) != 3 || pre.Bucket(NumHistBuckets-1) != 1 {
		t.Errorf("AddBucket: count %d sum %d b5 %d last %d",
			pre.Count(), pre.Sum(), pre.Bucket(5), pre.Bucket(NumHistBuckets-1))
	}
}

// TestFlightNilSafety extends the TestNilSafety contract to the flight
// recorder: every new hook must be callable through nil receivers.
func TestFlightNilSafety(t *testing.T) {
	var h *Histogram
	h.Observe(5)
	h.AddBucket(1, 2, 3)
	if h.Count() != 0 || h.Sum() != 0 || h.Bucket(0) != 0 {
		t.Error("nil histogram reads != 0")
	}
	if s := h.Snapshot(); s.Count != 0 || s.Buckets != nil {
		t.Error("nil histogram snapshot not zero")
	}
	h.Merge(HistogramSnapshot{Count: 1, Sum: 1, Buckets: []int64{1}})

	var r *Registry
	r.Histogram("x").Observe(1)
	if r.Histograms() != nil || r.HistogramNames() != nil {
		t.Error("nil registry histograms != nil")
	}
	if err := r.WriteOpenMetrics(&bytes.Buffer{}); err != nil {
		t.Errorf("nil registry WriteOpenMetrics: %v", err)
	}

	var ring *ProgressRing
	ring.Publish(ProgressSample{})
	if ring.Seq() != 0 || ring.Every() != 0 {
		t.Error("nil ring seq/every != 0")
	}
	if _, ok := ring.Latest(); ok {
		t.Error("nil ring Latest ok")
	}
	if ring.Snapshot() != nil {
		t.Error("nil ring snapshot != nil")
	}
	stop := StartStatusLine(nil, nil, 0)
	stop()

	var w *Watchdog
	if w.Poll(time.Now()) || w.Dumps() != 0 {
		t.Error("nil watchdog fired")
	}
	w.Start()()

	// A zero-value registry (no NewRegistry) must still lazily create
	// histograms, like a zero Counter map would not — the map is nil.
	zero := &Registry{}
	zero.Histogram("h").Observe(1)
	if zero.Histogram("h").Count() != 1 {
		t.Error("zero-value registry histogram lost the observation")
	}
}

func TestProgressRing(t *testing.T) {
	r := NewProgressRing(4, 16)
	if r.Every() != 16 {
		t.Errorf("every = %d, want 16", r.Every())
	}
	if _, ok := r.Latest(); ok {
		t.Error("empty ring has a latest sample")
	}
	for i := 0; i < 6; i++ {
		r.Publish(ProgressSample{Label: "a", Conflicts: int64(i)})
	}
	if r.Seq() != 6 {
		t.Errorf("seq = %d, want 6", r.Seq())
	}
	cur, ok := r.Latest()
	if !ok || cur.Conflicts != 5 || cur.Seq != 5 {
		t.Errorf("latest = %+v, ok %v", cur, ok)
	}
	// Capacity 4, 6 published: the snapshot retains the last 4 in order.
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot length = %d, want 4", len(snap))
	}
	for i, s := range snap {
		if s.Conflicts != int64(i+2) {
			t.Errorf("snapshot[%d].Conflicts = %d, want %d", i, s.Conflicts, i+2)
		}
	}

	// Defaults kick in for nonsense arguments.
	d := NewProgressRing(0, 0)
	if d.Every() != 4096 || len(d.slots) != 256 {
		t.Errorf("defaults: every %d cap %d", d.Every(), len(d.slots))
	}
}

func TestStatusLine(t *testing.T) {
	prev := ProgressSample{Label: "a", WhenUS: 0, Conflicts: 0}
	cur := ProgressSample{Label: "a", Worker: 2, WhenUS: 1_000_000, Conflicts: 500,
		TrailDepth: 9, LearntDB: 3, ArenaBytes: 4096}
	line := statusLine(cur, prev, true)
	for _, want := range []string{"solving a", "[w2]", "conflicts=500", "(500/s)", "trail=9", "learnt=3", "arena=4KB"} {
		if !strings.Contains(line, want) {
			t.Errorf("status line missing %q: %s", want, line)
		}
	}
	done := cur
	done.Done = true
	if line := statusLine(done, prev, true); !strings.Contains(line, "done a") {
		t.Errorf("done sample not rendered as done: %s", line)
	}
}

// lockedBuffer synchronizes test reads against the status goroutine.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestStartStatusLine(t *testing.T) {
	var buf lockedBuffer
	ring := NewProgressRing(8, 1)
	stop := StartStatusLine(&buf, ring, time.Millisecond)
	ring.Publish(ProgressSample{Label: "check1", Conflicts: 7})
	deadline := time.Now().Add(2 * time.Second)
	for buf.String() == "" && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop()
	if !strings.Contains(buf.String(), "check1") {
		t.Errorf("status goroutine never printed the heartbeat: %q", buf.String())
	}
}

// TestWatchdogPoll drives the stall detector deterministically: a check
// that keeps heartbeating past the window fires exactly one dump, a Done
// tail resets the timer, and a fresh label restarts it.
func TestWatchdogPoll(t *testing.T) {
	ring := NewProgressRing(8, 1)
	var out bytes.Buffer
	reg := NewRegistry()
	wd := NewWatchdog(ring, 10*time.Millisecond, &out, nil, reg)

	t0 := time.Now()
	if wd.Poll(t0) {
		t.Fatal("empty ring fired")
	}
	ring.Publish(ProgressSample{Label: "slow", Worker: 1, Conflicts: 100})
	if wd.Poll(t0) {
		t.Fatal("first sighting fired (should only arm the timer)")
	}
	ring.Publish(ProgressSample{Label: "slow", Worker: 1, Conflicts: 200})
	if wd.Poll(t0.Add(5 * time.Millisecond)) {
		t.Fatal("fired inside the window")
	}
	if !wd.Poll(t0.Add(11 * time.Millisecond)) {
		t.Fatal("did not fire past the window")
	}
	if wd.Poll(t0.Add(20 * time.Millisecond)) {
		t.Fatal("fired twice for the same label")
	}
	if wd.Dumps() != 1 {
		t.Errorf("dumps = %d, want 1", wd.Dumps())
	}
	if got := reg.Counter(CtrWatchdogStalls).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", CtrWatchdogStalls, got)
	}
	dump := out.String()
	for _, want := range []string{`"slow" stalled`, "conflicts=200", "goroutine dump:"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q", want)
		}
	}

	// Done marks idle; the next non-done label starts a fresh window.
	ring.Publish(ProgressSample{Label: "slow", Done: true})
	if wd.Poll(t0.Add(30 * time.Millisecond)) {
		t.Fatal("fired on a Done tail")
	}
	ring.Publish(ProgressSample{Label: "other", Worker: 2})
	if wd.Poll(t0.Add(40 * time.Millisecond)) {
		t.Fatal("new label fired before its own window elapsed")
	}
	if !wd.Poll(t0.Add(51 * time.Millisecond)) {
		t.Fatal("new label did not fire after its own window")
	}
	if wd.Dumps() != 2 {
		t.Errorf("dumps = %d, want 2", wd.Dumps())
	}
}

func TestAnalyze(t *testing.T) {
	// Synthetic 2-worker trace: worker 1 busy 600us over two checks,
	// worker 2 busy 900us over one; the solve phase span, the encode span
	// and an unmatched end event do not count as check work.
	ev := func(ph, name string, tid int, ts int64) Event {
		return Event{Name: name, Ph: ph, TS: ts, TID: tid}
	}
	events := []Event{
		{Name: "thread_name", Ph: "M", TID: 1, Args: map[string]any{"name": "worker-1"}},
		ev("B", "solve", 0, 100),
		ev("B", "solve:a", 1, 100),
		ev("B", "solve:c", 2, 150),
		ev("E", "solve:a", 1, 300),
		ev("B", "solve:b", 1, 400),
		ev("E", "solve:b", 1, 800),
		ev("E", "solve:c", 2, 1050),
		ev("E", "solve:c", 2, 1070),
		ev("E", "solve", 0, 1100),
	}
	u, err := Analyze(events)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	// mean busy = (600+900)/2 = 750; straggler = 900/750 = 1.2.
	if u.StragglerIndex < 1.199 || u.StragglerIndex > 1.201 {
		t.Errorf("straggler index = %v, want 1.2", u.StragglerIndex)
	}

	if _, err := Analyze([]Event{ev("B", "encode", 0, 0), ev("E", "encode", 0, 5)}); err == nil {
		t.Error("Analyze accepted a trace with no check spans")
	}
}

func TestWriteOpenMetrics(t *testing.T) {
	r := NewRegistry()
	r.Counter("sat.conflicts").Add(42)
	r.Gauge("smt.term_nodes").Set(7)
	h := r.Histogram("verify.check_wall_us")
	h.Observe(0)
	h.Observe(2)
	h.Observe(3)

	var buf bytes.Buffer
	if err := r.WriteOpenMetrics(&buf); err != nil {
		t.Fatalf("WriteOpenMetrics: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE aquila_sat_conflicts counter\naquila_sat_conflicts_total 42\n",
		"# TYPE aquila_smt_term_nodes gauge\naquila_smt_term_nodes 7\n",
		"# TYPE aquila_verify_check_wall_us histogram\n",
		`aquila_verify_check_wall_us_bucket{le="0"} 1`,
		`aquila_verify_check_wall_us_bucket{le="1"} 1`,
		`aquila_verify_check_wall_us_bucket{le="3"} 3`,
		`aquila_verify_check_wall_us_bucket{le="+Inf"} 3`,
		"aquila_verify_check_wall_us_sum 5\n",
		"aquila_verify_check_wall_us_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Errorf("exposition does not end with # EOF:\n%s", out)
	}
	// Instruments are sorted by registry name: sat.* < smt.* < verify.*.
	if !(strings.Index(out, "aquila_sat_conflicts") < strings.Index(out, "aquila_smt_term_nodes") &&
		strings.Index(out, "aquila_smt_term_nodes") < strings.Index(out, "aquila_verify_check_wall_us")) {
		t.Errorf("exposition not sorted:\n%s", out)
	}
}

// TestSetupFlight: Setup wires the progress ring, watchdog, and
// OpenMetrics writer from the config, and the close function flushes the
// exposition file.
func TestSetupFlight(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/metrics.om"
	var stall bytes.Buffer
	o, closeAll, err := Setup(Config{
		Progress: true, ProgressTo: &bytes.Buffer{}, ProgressEvery: 32,
		StallWindow: time.Hour, StallTo: &stall,
		MetricsPath: path,
	})
	if err != nil {
		t.Fatalf("Setup: %v", err)
	}
	if o == nil || o.Progress == nil || o.Metrics == nil {
		t.Fatal("Setup with Progress did not attach ring + registry")
	}
	if o.Progress.Every() != 32 {
		t.Errorf("ring every = %d, want 32", o.Progress.Every())
	}
	o.Metrics.Counter("sat.conflicts").Add(3)
	if err := closeAll(); err != nil {
		t.Fatalf("close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("metrics file not written: %v", err)
	}
	if !strings.Contains(string(data), "aquila_sat_conflicts_total 3") ||
		!strings.HasSuffix(string(data), "# EOF\n") {
		t.Errorf("metrics exposition wrong:\n%s", data)
	}
}
