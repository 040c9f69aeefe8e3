package ledger

import (
	"fmt"
	"io"
	"math"
)

// quartiles returns the first quartile, median and third quartile of xs,
// as Python's statistics.quantiles(xs, n=4) gives them.
func quartiles(xs []float64) (q1, med, q3 float64) {
	return quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)
}

// Verdict of one (workload, metric) pair.
const (
	VerdictOK         = "ok"
	VerdictRegressed  = "regressed"
	VerdictUnresolved = "unresolved"
)

// judge compares runs b against baseline runs a for a metric where
// "better" is lower or higher: regressed when b's median is worse than
// a's by more than bound (any worsening when bound is 0), unresolved when
// either side's quartile spread exceeds the bound and b does not beat
// every run of a outright.
func judge(a, b []float64, better string, bound float64) string {
	sign := 1.0 // positive "worse" means b is worse
	if better == "higher" {
		sign = -1
	}
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	if bound == 0 || ma == 0 {
		if sign*(mb-ma) > 0 {
			return VerdictRegressed
		}
		return VerdictOK
	}
	if (q3a-q1a)/math.Abs(ma) > bound || (q3b-q1b)/math.Abs(mb) > bound {
		worstB, bestA := b[0], a[0]
		for _, x := range b {
			if sign*x > sign*worstB {
				worstB = x
			}
		}
		for _, x := range a {
			if sign*x < sign*bestA {
				bestA = x
			}
		}
		if sign*worstB < sign*bestA {
			return VerdictOK
		}
		return VerdictUnresolved
	}
	if sign*(mb-ma)/math.Abs(ma) > bound {
		return VerdictRegressed
	}
	return VerdictOK
}

// Compare prints, for each workload and end-to-end metric both results
// carry, each side's median and quartiles over its runs and the verdict of
// b against baseline a under the glossary's bound (the bound
// BENCHMARK.json lists for the rows it carries). It returns the number of
// regressed pairs; there is no combined score.
func Compare(w io.Writer, a, b *Result) int {
	fmt.Fprintf(w, "%-12s  %-16s  %-5s  %-36s  %-36s  %8s  %6s  %s\n",
		"workload", "metric", "unit", "a median [q1 q3] (runs)", "b median [q1 q3] (runs)", "change", "bound", "verdict")
	regressed := 0
	for _, wl := range Workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, m := range Glossary {
			if !m.EndToEnd {
				continue
			}
			xa, xb := values(ra, m.Name), values(rb, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v := judge(xa, xb, m.Better, m.Bound)
			if v == VerdictRegressed {
				regressed++
			}
			_, ma, _ := quartiles(xa)
			_, mb, _ := quartiles(xb)
			change := "-"
			if ma != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(mb-ma)/math.Abs(ma))
			}
			fmt.Fprintf(w, "%-12s  %-16s  %-5s  %-36s  %-36s  %8s  %6.2f  %s\n",
				wl.Name, m.Name, m.Unit, summary(xa), summary(xb), change, m.Bound, v)
		}
	}
	return regressed
}

func values(runs []*Run, metric string) []float64 {
	var xs []float64
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

func summary(xs []float64) string {
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g] (%d)", med, q1, q3, len(xs))
}
