package sat

import "math/bits"

// NumLearntSizeBuckets bounds the learnt-clause length distribution:
// log2 buckets 0..15, with lengths past 2^15 clamped into the last.
const NumLearntSizeBuckets = 16

// learntSizeBucket maps a clause length onto its log2 bucket — the same
// bucketing the observability layer's BucketLog2 uses, inlined so the
// SAT core stays dependency-free.
func learntSizeBucket(n int) int {
	if n <= 0 {
		return 0
	}
	b := bits.Len64(uint64(n))
	if b >= NumLearntSizeBuckets {
		b = NumLearntSizeBuckets - 1
	}
	return b
}

// Progress is one solver heartbeat: the trajectory counters plus the
// sizes that tell a stalled check from a grinding one (trail depth,
// learnt database, clause-arena footprint).
type Progress struct {
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Restarts     int64
	TrailDepth   int
	LearntDB     int
	ArenaBytes   int64
}

// SetProgress installs fn to fire every `every` conflicts during
// search. Passing nil fn or every <= 0 disables the hook. The callback
// runs on the solving goroutine — it must be cheap and non-blocking
// (the verification driver publishes into a lock-free ring).
func (s *Solver) SetProgress(every int64, fn func(Progress)) {
	if fn == nil || every <= 0 {
		s.progressFn, s.progressEvery, s.progressNext = nil, 0, 0
		return
	}
	s.progressFn = fn
	s.progressEvery = every
	s.progressNext = s.Conflicts + every
}

// HasProgress reports whether a progress hook is installed.
func (s *Solver) HasProgress() bool { return s.progressFn != nil }

func (s *Solver) progressSample() Progress {
	return Progress{
		Conflicts:    s.Conflicts,
		Decisions:    s.Decisions,
		Propagations: s.Propagations,
		Restarts:     s.Restarts,
		TrailDepth:   len(s.trail),
		LearntDB:     len(s.learnts),
		ArenaBytes:   int64(len(s.ca.data)) * 4,
	}
}
