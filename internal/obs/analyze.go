package obs

import (
	"fmt"
	"strings"
)

// Utilization is the trace-analysis result the parallel sweep records:
// how evenly the check work spread over the workers.
type Utilization struct {
	// StragglerIndex is max worker busy time over mean worker busy time
	// (1.0 = perfectly balanced; 2.0 = one worker did twice the mean).
	StragglerIndex float64 `json:"straggler_index"`
}

// Analyze computes utilization from trace events. A worker's busy time
// is the sum of its "solve:<label>" span durations. Returns an error when
// the trace contains no check spans.
func Analyze(events []Event) (*Utilization, error) {
	type key struct {
		tid  int
		name string
	}
	open := map[key][]int64{}
	busy := map[int]int64{}
	for _, e := range events {
		if !strings.HasPrefix(e.Name, "solve:") {
			continue
		}
		k := key{e.TID, e.Name}
		switch e.Ph {
		case "B":
			open[k] = append(open[k], e.TS)
		case "E":
			st := open[k]
			if len(st) == 0 {
				continue
			}
			busy[e.TID] += e.TS - st[len(st)-1]
			open[k] = st[:len(st)-1]
		}
	}
	if len(busy) == 0 {
		return nil, fmt.Errorf("obs: analyze: no solve:* spans in trace (run with -trace and -all)")
	}
	var sum, most int64
	for _, b := range busy {
		sum += b
		most = max(most, b)
	}
	u := &Utilization{}
	if sum > 0 {
		u.StragglerIndex = float64(most) * float64(len(busy)) / float64(sum)
	}
	return u, nil
}
