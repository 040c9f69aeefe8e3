package verify

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"aquila/internal/encode"
	"aquila/internal/genprog"
	"aquila/internal/lpi"
	"aquila/internal/obs"
)

// flightSink returns a full flight-recorder sink: tracer, metrics,
// discarded log, and a heartbeat ring sampling every conflict. The ring
// is sized so a full DC-gateway run (one Done per assertion plus one
// heartbeat per conflict at period 1) fits without wrapping —
// TestHeartbeatRing counts every sample.
func flightSink() *obs.Obs {
	return &obs.Obs{
		Tracer:   obs.NewTracer(),
		Metrics:  obs.NewRegistry(),
		Log:      obs.NewLogger(io.Discard),
		Progress: obs.NewProgressRing(512, 1),
	}
}

// TestFlightCanonicalMatrix pins the determinism contract across the
// whole engine matrix: canonical report bytes are byte-identical with
// the full flight recorder attached vs no sinks at all, for
// {fresh, parallel, stream} × workers 1/2/4.
func TestFlightCanonicalMatrix(t *testing.T) {
	prog, spec := dcGateway(t)
	configs := []struct {
		name string
		opts Options
	}{
		{"fresh/w1", Options{FindAll: true, Parallel: 1}},
		{"parallel/w2", Options{FindAll: true, Parallel: 2}},
		{"parallel/w4", Options{FindAll: true, Parallel: 4}},
		{"stream/w1", Options{FindAll: true, Stream: true, Parallel: 1}},
	}
	var want []byte
	for _, c := range configs {
		for _, flight := range []bool{false, true} {
			opts := c.opts
			if flight {
				opts.Obs = flightSink()
			}
			rep, err := Run(prog, nil, spec, opts)
			if err != nil {
				t.Fatalf("%s flight=%v: %v", c.name, flight, err)
			}
			got, err := rep.CanonicalJSON()
			if err != nil {
				t.Fatalf("%s flight=%v: canonical: %v", c.name, flight, err)
			}
			if want == nil {
				want = got
				continue
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s flight=%v: canonical report differs from fresh/w1 baseline", c.name, flight)
			}
		}
	}
}

// TestFlightHistograms: a flight-recorded run folds per-check
// distributions into Stats.Histograms and the metrics registry, reports
// them in the JSON report, and keeps them out of the canonical bytes.
func TestFlightHistograms(t *testing.T) {
	prog, spec := dcGateway(t)
	sink := flightSink()
	rep, err := Run(prog, nil, spec, Options{FindAll: true, Parallel: 2, Obs: sink})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	byName := map[string]HistogramStat{}
	for _, h := range rep.Stats.Histograms {
		byName[h.Name] = h
	}
	n := int64(rep.Stats.Assertions)
	if got := byName[obs.HistCheckWallUS]; got.Count != n {
		t.Errorf("%s count = %d, want %d (one sample per check)", obs.HistCheckWallUS, got.Count, n)
	}
	if got := byName[obs.HistCheckConflicts]; got.Count != n || got.Sum != rep.Stats.Conflicts {
		t.Errorf("%s count/sum = %d/%d, want %d/%d",
			obs.HistCheckConflicts, got.Count, got.Sum, n, rep.Stats.Conflicts)
	}
	// CDCL learns exactly one clause per conflict; the distribution also
	// counts unit learnts, which Stats.LearntClauses excludes.
	if got := byName[obs.HistLearntSize]; got.Count != rep.Stats.Conflicts || got.Sum != rep.Stats.LearntLits {
		t.Errorf("%s count/sum = %d/%d, want %d/%d",
			obs.HistLearntSize, got.Count, got.Sum, rep.Stats.Conflicts, rep.Stats.LearntLits)
	}
	// No slicing in this run, so the slice-drop histogram must be absent.
	if _, ok := byName[obs.HistSliceDropPct]; ok {
		t.Errorf("%s present without -slice", obs.HistSliceDropPct)
	}

	// The registry carries the same distributions under the same names.
	regHists := sink.Metrics.Histograms()
	for name, h := range byName {
		if regHists[name].Count != h.Count || regHists[name].Sum != h.Sum {
			t.Errorf("registry %s = %d/%d, want %d/%d",
				name, regHists[name].Count, regHists[name].Sum, h.Count, h.Sum)
		}
	}
	// Snapshot() must NOT include histograms — the fuzzer's coverage
	// signatures hash it, and distributions would perturb the corpus.
	for name := range sink.Metrics.Snapshot() {
		if strings.Contains(name, "check_wall") || strings.Contains(name, "learnt_clause_size") {
			t.Errorf("histogram %q leaked into Snapshot()", name)
		}
	}

	// JSON report carries them; canonical bytes do not.
	data, err := rep.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	var parsed struct {
		Stats struct {
			Histograms []struct {
				Name    string  `json:"name"`
				Count   int64   `json:"count"`
				Sum     int64   `json:"sum"`
				Buckets []int64 `json:"buckets"`
			} `json:"histograms"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatalf("report JSON: %v", err)
	}
	if len(parsed.Stats.Histograms) != len(rep.Stats.Histograms) {
		t.Errorf("JSON histograms = %d entries, want %d",
			len(parsed.Stats.Histograms), len(rep.Stats.Histograms))
	}
	for i, h := range parsed.Stats.Histograms {
		if h.Name != rep.Stats.Histograms[i].Name || h.Count != rep.Stats.Histograms[i].Count {
			t.Errorf("JSON histogram[%d] = %s/%d, want %s/%d",
				i, h.Name, h.Count, rep.Stats.Histograms[i].Name, rep.Stats.Histograms[i].Count)
		}
	}
	canon, err := rep.CanonicalJSON()
	if err != nil {
		t.Fatalf("canonical: %v", err)
	}
	if bytes.Contains(canon, []byte("histograms")) {
		t.Error("canonical bytes contain histograms (cost data must be zeroed)")
	}
}

// TestFlightSliceDropHistogram: under -slice every assertion records its
// conjuncts-dropped percentage.
func TestFlightSliceDropHistogram(t *testing.T) {
	prog, spec := dcGateway(t)
	rep, err := Run(prog, nil, spec, Options{FindAll: true, Parallel: 1, Slice: true, Obs: flightSink()})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var drop *HistogramStat
	for i := range rep.Stats.Histograms {
		if rep.Stats.Histograms[i].Name == obs.HistSliceDropPct {
			drop = &rep.Stats.Histograms[i]
		}
	}
	if drop == nil {
		t.Fatalf("%s missing from a sliced run: %+v", obs.HistSliceDropPct, rep.Stats.Histograms)
	}
	// One sample per sliced assertion (assertions whose VC has no
	// sliceable conjuncts record nothing).
	if drop.Count < 1 || drop.Count > int64(rep.Stats.Assertions) {
		t.Errorf("slice-drop count = %d, want 1..%d", drop.Count, rep.Stats.Assertions)
	}
	if rep.Stats.SliceDropped > 0 && drop.Sum == 0 {
		t.Errorf("conjuncts were dropped (%d) but every drop pct is 0", rep.Stats.SliceDropped)
	}
}

// TestHeartbeatRing: with a 1-conflict sampling period, a find-all run
// publishes one Done sample per check (plus conflict heartbeats), and
// the labels match the program's assertions.
func TestHeartbeatRing(t *testing.T) {
	prog, spec := dcGateway(t)
	sink := flightSink()
	rep, err := Run(prog, nil, spec, Options{FindAll: true, Parallel: 1, Obs: sink})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	labels := map[string]bool{}
	for _, a := range rep.Stats.PerAssertion {
		labels[a.Label] = true
	}
	var done int
	var beats int64
	for _, s := range sink.Progress.Snapshot() {
		if !labels[s.Label] {
			t.Errorf("sample label %q is not an assertion", s.Label)
		}
		if s.Done {
			done++
			continue
		}
		beats++
		if s.Conflicts <= 0 {
			t.Errorf("heartbeat for %q has no conflicts: %+v", s.Label, s)
		}
	}
	if done != rep.Stats.Assertions {
		t.Errorf("Done samples = %d, want %d", done, rep.Stats.Assertions)
	}
	if beats != rep.Stats.Conflicts {
		t.Errorf("conflict heartbeats = %d, want %d (period 1)", beats, rep.Stats.Conflicts)
	}
}

// TestWatchdogStallDump is the satellite-6 contract: on a
// budget-starved check the watchdog emits exactly one diagnostic dump
// (label, solver snapshot, goroutine stacks) and the run's outcome —
// verdict, error, canonical bytes — is identical to a watchdog-free run.
func TestWatchdogStallDump(t *testing.T) {
	const entries = 2000
	cfg := genprog.SwitchT("small")
	cfg.TTLChain = false
	bm := genprog.Assemble(cfg)
	prog, err := bm.Parse()
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	snap := genprog.BigTableSnapshot(cfg, entries)
	dst := uint64(0x0A000000 + entries/2)
	spec, err := lpi.Parse(genprog.BigTableSpec(cfg, bm.Calls, dst, uint64((entries/2)%500)))
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	// Budget 25 starves the lookup check: it grinds most of the solve
	// before exhausting, heartbeating every conflict the whole way.
	opts := Options{
		FindAll: true, Parallel: 1, Budget: 25,
		Encode: encode.Options{Table: encode.TableNaive},
	}

	ring := obs.NewProgressRing(64, 1)
	reg := obs.NewRegistry()
	watched := opts
	watched.Obs = &obs.Obs{Metrics: reg, Progress: ring}
	rep, runErr := Run(prog, snap, spec, watched)

	// The starved check heartbeats 25 times (every conflict) before its
	// Done sample. Replay that real stream through a watchdog with a
	// fabricated clock that advances one full window per heartbeat —
	// publishes and polls interleave in one goroutine, so the stall
	// detection is deterministic (a wall-clock poller on a single-CPU
	// host only sees whatever heartbeats the scheduler happens to show
	// it).
	recorded := ring.Snapshot()
	if len(recorded) < 3 {
		t.Fatalf("budget-starved run published %d samples, want >= 3", len(recorded))
	}
	replay := obs.NewProgressRing(64, 1)
	var dumpBuf bytes.Buffer
	const window = 10 * time.Millisecond
	wd := obs.NewWatchdog(replay, window, &dumpBuf, nil, reg)
	fab := time.Unix(1, 0)
	fired := 0
	for _, s := range recorded {
		replay.Publish(obs.ProgressSample{
			Label: s.Label, Worker: s.Worker, Done: s.Done,
			Conflicts: s.Conflicts, Decisions: s.Decisions,
			Propagations: s.Propagations, Restarts: s.Restarts,
			TrailDepth: s.TrailDepth, LearntDB: s.LearntDB,
			ArenaBytes: s.ArenaBytes,
		})
		if wd.Poll(fab) {
			fired++
		}
		fab = fab.Add(window)
	}
	if fired != 1 {
		t.Fatalf("watchdog fired %d times on the starved check's heartbeat stream, want exactly 1", fired)
	}
	if wd.Dumps() != 1 {
		t.Errorf("dumps = %d, want 1 (one-shot per label)", wd.Dumps())
	}
	if got := reg.Counter(obs.CtrWatchdogStalls).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", obs.CtrWatchdogStalls, got)
	}
	dump := dumpBuf.String()
	for _, want := range []string{`check "lookup#0" stalled`, "solver snapshot:", "goroutine dump:"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q", want)
		}
	}

	// The watchdog observes the ring only — outcome must be untouched.
	if !errors.Is(runErr, ErrBudget) {
		t.Fatalf("watched run error = %v, want ErrBudget", runErr)
	}
	baseRep, baseErr := Run(prog, snap, spec, opts)
	if !errors.Is(baseErr, ErrBudget) {
		t.Fatalf("baseline run error = %v, want ErrBudget", baseErr)
	}
	watchedCanon, err := rep.CanonicalJSON()
	if err != nil {
		t.Fatalf("canonical: %v", err)
	}
	baseCanon, err := baseRep.CanonicalJSON()
	if err != nil {
		t.Fatalf("canonical: %v", err)
	}
	if !bytes.Equal(watchedCanon, baseCanon) {
		t.Errorf("canonical report differs with the watchdog attached\nwatched: %s\nbase:    %s",
			watchedCanon, baseCanon)
	}
	if rep.Stats.PerAssertion[0].Status != "unknown" {
		t.Errorf("starved check status = %q, want unknown", rep.Stats.PerAssertion[0].Status)
	}
}
