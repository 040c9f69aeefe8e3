package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Utilization is the trace-analysis result ROADMAP item 2(c) asks for:
// per-worker busy fractions over the solve phase, the critical path (the
// longest single check — the floor any scheduler can reach), and a
// straggler index quantifying load imbalance. CI gates on MeanBusyFrac
// so a scheduling regression shows up even on single-CPU hosts, where
// wall time alone cannot distinguish "workers starved" from "machine
// slow".
type Utilization struct {
	// SolveWallUS is the duration of the orchestrator's "solve" phase
	// (falls back to the envelope of all check spans).
	SolveWallUS int64 `json:"solve_wall_us"`
	// Checks is the number of solve:* spans across all workers.
	Checks  int                 `json:"checks"`
	Workers []WorkerUtilization `json:"workers"`
	// MeanBusyFrac / MinBusyFrac aggregate the per-worker fractions.
	MeanBusyFrac float64 `json:"mean_busy_frac"`
	MinBusyFrac  float64 `json:"min_busy_frac"`
	// CriticalPathUS is the longest single check span; no schedule can
	// finish the solve phase faster.
	CriticalPathUS    int64  `json:"critical_path_us"`
	CriticalPathLabel string `json:"critical_path_label"`
	// StragglerIndex is max worker busy time over mean worker busy time
	// (1.0 = perfectly balanced; 2.0 = one worker did twice the mean).
	StragglerIndex float64 `json:"straggler_index"`
}

// WorkerUtilization is one worker row: the sum of its solve:* span
// durations and that sum as a fraction of the solve-phase wall.
type WorkerUtilization struct {
	TID      int     `json:"tid"`
	Name     string  `json:"name,omitempty"`
	Checks   int     `json:"checks"`
	BusyUS   int64   `json:"busy_us"`
	BusyFrac float64 `json:"busy_frac"`
}

// Analyze computes utilization analytics from trace events. Check work
// is every span named "solve:<label>"; the solve wall is the "solve"
// phase on the orchestrator thread. Returns an error when the trace
// contains no check spans.
func Analyze(events []Event) (*Utilization, error) {
	type open struct{ ts int64 }
	type key struct {
		tid  int
		name string
	}
	stacks := map[key][]open{}
	names := map[int]string{}
	u := &Utilization{}
	busy := map[int]int64{}
	checks := map[int]int{}
	var envLo, envHi int64 = -1, -1
	var solveLo, solveHi int64 = -1, -1
	for _, e := range events {
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				if n, ok := e.Args["name"].(string); ok {
					names[e.TID] = n
				}
			}
		case "B":
			k := key{e.TID, e.Name}
			stacks[k] = append(stacks[k], open{e.TS})
		case "E":
			k := key{e.TID, e.Name}
			st := stacks[k]
			if len(st) == 0 {
				continue
			}
			b := st[len(st)-1]
			stacks[k] = st[:len(st)-1]
			dur := e.TS - b.ts
			if e.Name == "solve" {
				if solveLo < 0 || b.ts < solveLo {
					solveLo, solveHi = b.ts, e.TS
				}
				continue
			}
			if !strings.HasPrefix(e.Name, "solve:") {
				continue
			}
			busy[e.TID] += dur
			checks[e.TID]++
			u.Checks++
			if dur > u.CriticalPathUS {
				u.CriticalPathUS = dur
				u.CriticalPathLabel = strings.TrimPrefix(e.Name, "solve:")
			}
			if envLo < 0 || b.ts < envLo {
				envLo = b.ts
			}
			if e.TS > envHi {
				envHi = e.TS
			}
		}
	}
	if u.Checks == 0 {
		return nil, fmt.Errorf("obs: analyze: no solve:* spans in trace (run with -trace and -all)")
	}
	if solveLo >= 0 {
		u.SolveWallUS = solveHi - solveLo
	} else {
		u.SolveWallUS = envHi - envLo
	}
	if u.SolveWallUS <= 0 {
		u.SolveWallUS = 1
	}
	tids := make([]int, 0, len(busy))
	for tid := range busy {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	var sumBusy, maxBusy int64
	u.MinBusyFrac = 1
	for _, tid := range tids {
		frac := float64(busy[tid]) / float64(u.SolveWallUS)
		u.Workers = append(u.Workers, WorkerUtilization{
			TID: tid, Name: names[tid], Checks: checks[tid],
			BusyUS: busy[tid], BusyFrac: frac,
		})
		sumBusy += busy[tid]
		if busy[tid] > maxBusy {
			maxBusy = busy[tid]
		}
		if frac < u.MinBusyFrac {
			u.MinBusyFrac = frac
		}
	}
	mean := float64(sumBusy) / float64(len(tids))
	u.MeanBusyFrac = mean / float64(u.SolveWallUS)
	if mean > 0 {
		u.StragglerIndex = float64(maxBusy) / mean
	}
	return u, nil
}

// AnalyzeTraceFile reads a Chrome trace-event JSON file (as written by
// -trace) and analyzes it.
func AnalyzeTraceFile(path string) (*Utilization, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("obs: analyze: %w", err)
	}
	var tf struct {
		TraceEvents []Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		return nil, fmt.Errorf("obs: analyze: %s: %w", path, err)
	}
	return Analyze(tf.TraceEvents)
}

// FormatUtilization renders the analytics as the table aquila-bench
// -analyze prints.
func FormatUtilization(u *Utilization) string {
	var b strings.Builder
	fmt.Fprintf(&b, "solve wall: %.3f ms over %d checks\n",
		float64(u.SolveWallUS)/1000, u.Checks)
	fmt.Fprintf(&b, "%-6s %-12s %7s %12s %10s\n", "tid", "name", "checks", "busy_ms", "busy_frac")
	for _, w := range u.Workers {
		fmt.Fprintf(&b, "%-6d %-12s %7d %12.3f %9.1f%%\n",
			w.TID, w.Name, w.Checks, float64(w.BusyUS)/1000, 100*w.BusyFrac)
	}
	fmt.Fprintf(&b, "mean busy %.1f%%  min busy %.1f%%  straggler index %.2f\n",
		100*u.MeanBusyFrac, 100*u.MinBusyFrac, u.StragglerIndex)
	fmt.Fprintf(&b, "critical path: %.3f ms (%s)\n",
		float64(u.CriticalPathUS)/1000, u.CriticalPathLabel)
	return b.String()
}

// CompareUtilization is the CI scheduling-regression gate: it fails
// when the measured mean busy fraction regressed more than 20%
// relative to the reference.
func CompareUtilization(ref, got *Utilization) error {
	if ref == nil || got == nil {
		return fmt.Errorf("obs: compare: missing utilization data")
	}
	if ref.MeanBusyFrac <= 0 {
		return nil
	}
	if got.MeanBusyFrac < ref.MeanBusyFrac*0.8 {
		return fmt.Errorf("obs: scheduling regression: mean busy fraction %.1f%% fell >20%% below reference %.1f%%",
			100*got.MeanBusyFrac, 100*ref.MeanBusyFrac)
	}
	return nil
}
