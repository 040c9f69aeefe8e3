package ledger

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one recorded layer call: its name, the operation it belongs to,
// the span that caused it (0 for a root), the worker row it ran on, and
// its start and end in nanoseconds since the tracer started.
type span struct {
	Name    string
	Op      int
	ID      int
	Parent  int
	TID     int
	StartNS int64
	EndNS   int64
}

// tracer keeps the traced phase's spans in memory. A nil *tracer is the
// timed phase: begin returns 0 and end does nothing, so untraced calls pay
// one nil check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (ids start at 1).
func (t *tracer) begin(name string, op, parent, tid int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, Op: op, ID: id, Parent: parent, TID: tid,
		StartNS: time.Since(t.t0).Nanoseconds()})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// selfTimes returns, per operation and span name, the summed self time in
// nanoseconds: each span's duration minus the part of it its child spans
// cover (children running concurrently on several workers are merged
// into one covered interval set, so self time never goes negative).
func (t *tracer) selfTimes() map[int]map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[int]map[string]int64{}
	for _, s := range t.spans {
		self := s.EndNS - s.StartNS - covered(children[s.ID])
		if out[s.Op] == nil {
			out[s.Op] = map[string]int64{}
		}
		out[s.Op][s.Name] += self
	}
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartNS < spans[j].StartNS })
	var total, curS, curE int64
	open := false
	for _, s := range spans {
		switch {
		case !open:
			curS, curE, open = s.StartNS, s.EndNS, true
		case s.StartNS > curE:
			total += curE - curS
			curS, curE = s.StartNS, s.EndNS
		case s.EndNS > curE:
			curE = s.EndNS
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// traceEvent is one Chrome trace-event "complete" event (ph "X");
// timestamps and durations are microseconds.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeJSON writes the spans as Chrome trace-event JSON, loadable in
// chrome://tracing or Perfetto; args carry the operation id, span id and
// parent id.
func (t *tracer) writeJSON(w io.Writer) error {
	t.mu.Lock()
	events := make([]traceEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = traceEvent{Name: s.Name, Ph: "X", PID: 1, TID: s.TID,
			TS: float64(s.StartNS) / 1e3, Dur: float64(s.EndNS-s.StartNS) / 1e3,
			Args: map[string]int{"op": s.Op, "id": s.ID, "parent": s.Parent}}
	}
	t.mu.Unlock()
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
