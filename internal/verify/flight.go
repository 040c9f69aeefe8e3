package verify

import (
	"time"

	"aquila/internal/obs"
	"aquila/internal/smt"
)

// HistogramStat is a plain-data snapshot of one flight-recorder
// histogram: log2 buckets (obs.BucketLog2 boundaries) trimmed to the
// highest non-empty one. Plain data on purpose — Stats and Report are
// shallow-copied by CanonicalJSON, so no atomics may live in them.
type HistogramStat struct {
	Name    string
	Count   int64
	Sum     int64
	Buckets []int64
}

// runHists holds the run's live histograms. It hangs off the Report
// behind a pointer (the atomics must not be copied) and is folded into
// Stats.Histograms — and into the metrics registry — when the solve
// phase ends. All methods are nil-safe: tests that build a bare Report
// and call the check engines directly simply record nothing.
type runHists struct {
	wall      obs.Histogram // per-check wall time, µs
	conflicts obs.Histogram // per-check SAT conflicts
	learnt    obs.Histogram // learnt-clause sizes (folded from the SAT core)
	sliceDrop obs.Histogram // per-assertion slice-drop percentage
}

// observeCheck records one check's wall time, conflicts, and
// learnt-size buckets.
func (h *runHists) observeCheck(ss smt.SolverStats, wall time.Duration) {
	if h == nil {
		return
	}
	h.wall.Observe(wall.Microseconds())
	h.conflicts.Observe(ss.Conflicts)
	// The bucket fold cannot attribute literals to individual buckets;
	// the learnt-literal total rides along with the first non-empty one
	// so mean learnt size stays derivable from sum/count.
	sum := ss.LearntLits
	for b, n := range ss.LearntSizes {
		if n > 0 {
			h.learnt.AddBucket(b, n, sum)
			sum = 0
		}
	}
}

// observeSlice records one assertion's conjuncts-dropped percentage.
func (h *runHists) observeSlice(conjuncts, dropped int64) {
	if h == nil || conjuncts <= 0 {
		return
	}
	h.sliceDrop.Observe(100 * dropped / conjuncts)
}

// stats snapshots the non-empty histograms in fixed name order.
func (h *runHists) stats() []HistogramStat {
	if h == nil {
		return nil
	}
	var out []HistogramStat
	for _, e := range []struct {
		name string
		h    *obs.Histogram
	}{
		{obs.HistCheckWallUS, &h.wall},
		{obs.HistCheckConflicts, &h.conflicts},
		{obs.HistLearntSize, &h.learnt},
		{obs.HistSliceDropPct, &h.sliceDrop},
	} {
		s := e.h.Snapshot()
		if s.Count == 0 {
			continue
		}
		out = append(out, HistogramStat{
			Name: e.name, Count: s.Count, Sum: s.Sum, Buckets: s.Buckets,
		})
	}
	return out
}

// mergeInto folds the run's histograms into the registry's named ones.
func (h *runHists) mergeInto(r *obs.Registry) {
	if h == nil || r == nil {
		return
	}
	r.Histogram(obs.HistCheckWallUS).Merge(h.wall.Snapshot())
	r.Histogram(obs.HistCheckConflicts).Merge(h.conflicts.Snapshot())
	r.Histogram(obs.HistLearntSize).Merge(h.learnt.Snapshot())
	r.Histogram(obs.HistSliceDropPct).Merge(h.sliceDrop.Snapshot())
}

// recordCheck publishes one check's full flight-recorder record: the
// registry counters (countSolver), the run histograms, and — when a
// heartbeat ring is attached — the check's final Done sample, which
// tells the watchdog the check is no longer in flight.
func (rep *Report) recordCheck(o *obs.Obs, label string, worker int,
	ss smt.SolverStats, status smt.Status, wall time.Duration) {
	countSolver(o, ss, status)
	rep.hists.observeCheck(ss, wall)
	if o != nil && o.Progress != nil {
		o.Progress.Publish(obs.ProgressSample{
			Label: label, Worker: worker, Done: true,
			Conflicts: ss.Conflicts, Decisions: ss.Decisions,
			Propagations: ss.Propagations, Restarts: ss.Restarts,
		})
	}
}

// installProgress points a solver's heartbeat at the run's ring,
// labeled with the check it is about to work on. Reinstalled per check
// on the Session's shared solver so samples carry the in-flight
// assertion. No-op without a ring; the solver then keeps a nil hook
// and pays one nil check per conflict.
func installProgress(o *obs.Obs, s *smt.Solver, label string, worker int) {
	if o == nil || o.Progress == nil {
		return
	}
	ring := o.Progress
	s.SetProgress(ring.Every(), func(p smt.SolveProgress) {
		ring.Publish(obs.ProgressSample{
			Label: label, Worker: worker,
			Conflicts: p.Conflicts, Decisions: p.Decisions,
			Propagations: p.Propagations, Restarts: p.Restarts,
			TrailDepth: p.TrailDepth, LearntDB: p.LearntDB,
			ArenaBytes: p.ArenaBytes,
		})
	})
}
