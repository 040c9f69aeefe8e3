package obs

import "sync/atomic"

// Canonical histogram names — the flight recorder's distributions, all
// log2-bucketed with BucketLog2 (coverage.go). Per-check instruments are
// observed once per assertion check by the verification driver; the
// learnt-clause size distribution is accumulated inside the SAT core as
// plain per-solver buckets and folded here at check granularity, keeping
// atomics out of the inner loops.
const (
	// HistCheckWallUS is per-check wall time in microseconds.
	HistCheckWallUS = "verify.check_wall_us"
	// HistCheckConflicts is per-check SAT conflicts.
	HistCheckConflicts = "sat.check_conflicts"
	// HistLearntSize is the learnt-clause length distribution.
	HistLearntSize = "sat.learnt_clause_size"
	// HistSliceDropPct is the per-assertion percentage of VC conjuncts
	// dropped by cone-of-influence slicing (0..100, only under -slice).
	HistSliceDropPct = "verify.slice_drop_pct"
	// HistDeltaRecheck is, per applied table delta, the number of
	// assertions the session engine actually re-solved (the rest were
	// replayed from the session cache; only under -churn).
	HistDeltaRecheck = "verify.delta_recheck_per_delta"
	// HistServeApplyWallUS is, per delta accepted by the aquila-serve
	// daemon, the wall microseconds the session spent re-verifying it —
	// the daemon's per-update SLO latency.
	HistServeApplyWallUS = "serve.apply_wall_us"
	// HistServeQueueWaitUS is, per accepted delta, the microseconds the
	// request waited in its session's serialized apply queue before the
	// session picked it up — queueing delay, separated from solve time.
	HistServeQueueWaitUS = "serve.queue_wait_us"
)

// NumHistBuckets is the fixed bucket count of every Histogram. Bucket i
// holds observations v with BucketLog2(v) == i, i.e. bucket 0 is v <= 0
// and bucket i >= 1 covers [2^(i-1), 2^i - 1]; values past the last
// boundary clamp into the final bucket.
const NumHistBuckets = 32

// HistBucketBound returns the inclusive upper bound of bucket i
// (2^i - 1), with bucket 0 bounded at 0. The final bucket is unbounded
// (+Inf in the OpenMetrics exposition).
func HistBucketBound(i int) int64 {
	if i <= 0 {
		return 0
	}
	return int64(1)<<uint(i) - 1
}

// Histogram is a log2-bucketed atomic histogram. The zero value is
// usable; a nil *Histogram ignores observations, so
// `registry.Histogram(x).Observe(v)` stays a nil-check when the registry
// is absent. Like Counter, it is safe for concurrent writers — parallel
// verify workers observe per-check samples from their own goroutines.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [NumHistBuckets]atomic.Int64
}

// Observe records one sample. Safe on nil.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	b := BucketLog2(v)
	if b >= NumHistBuckets {
		b = NumHistBuckets - 1
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// AddBucket folds n pre-bucketed samples summing to sum into bucket b —
// how the SAT core's plain per-solver learnt-size buckets merge in at
// check granularity. Safe on nil; out-of-range buckets clamp.
func (h *Histogram) AddBucket(b int, n, sum int64) {
	if h == nil || n <= 0 {
		return
	}
	if b < 0 {
		b = 0
	}
	if b >= NumHistBuckets {
		b = NumHistBuckets - 1
	}
	h.buckets[b].Add(n)
	h.count.Add(n)
	h.sum.Add(sum)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Bucket returns the count in bucket i (0 on nil or out of range).
func (h *Histogram) Bucket(i int) int64 {
	if h == nil || i < 0 || i >= NumHistBuckets {
		return 0
	}
	return h.buckets[i].Load()
}

// HistogramSnapshot is a plain-data copy of a Histogram, safe to embed
// in shallow-copied report structs (no atomics, no locks). Buckets is
// trimmed to the highest non-empty bucket.
type HistogramSnapshot struct {
	Count   int64
	Sum     int64
	Buckets []int64
}

// Snapshot returns a plain-data copy (zero value on nil).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	top := -1
	var raw [NumHistBuckets]int64
	for i := range raw {
		raw[i] = h.buckets[i].Load()
		if raw[i] != 0 {
			top = i
		}
	}
	if top >= 0 {
		s.Buckets = append([]int64(nil), raw[:top+1]...)
	}
	return s
}

// Merge folds a snapshot into h (approximating the per-bucket sums by
// attributing the whole sum to the call). Safe on nil.
func (h *Histogram) Merge(s HistogramSnapshot) {
	if h == nil || s.Count == 0 {
		return
	}
	for i, n := range s.Buckets {
		if n != 0 {
			b := i
			if b >= NumHistBuckets {
				b = NumHistBuckets - 1
			}
			h.buckets[b].Add(n)
		}
	}
	h.count.Add(s.Count)
	h.sum.Add(s.Sum)
}
