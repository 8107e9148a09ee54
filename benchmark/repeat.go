package main

import (
	"fmt"
	"math"
	"slices"
)

// exactMetrics are end-to-end metrics that must repeat bit for bit on a
// workload: the modeled machine is deterministic.
var exactMetrics = map[string]string{"sim-figures": "pto_speedup"}

// spreadRow is one (workload, metric) pair's agreement over repeated sets.
type spreadRow struct {
	workload, metric, unit string
	values                 []float64
	bound                  float64
	exact                  bool
}

// spread is the share of the median the values scatter over: the distance
// between the quartiles (as Python's statistics.quantiles(n=4) gives them,
// the acceptance criterion's definition) from four values up, the full range
// below that.
func (r spreadRow) spread() float64 {
	med := median(r.values)
	if med == 0 {
		return math.Inf(1)
	}
	lo, hi := slices.Min(r.values), slices.Max(r.values)
	if len(r.values) >= 4 {
		lo, hi = quartiles(r.values)
	}
	return (hi - lo) / math.Abs(med)
}

func (r spreadRow) ok() bool {
	if r.exact {
		return slices.Min(r.values) == slices.Max(r.values)
	}
	return r.spread() <= r.bound
}

// repeat runs n untraced sets and prints, per end-to-end metric and
// workload, the median, the quartiles, the range and the spread against the
// metric's bound. It fails if any spread exceeds its bound, any exact metric
// differs between sets, or any set had a non-zero error rate.
func (p *parent) repeat(n int) int {
	rows := make(map[string]*spreadRow)
	var keys []string
	code := 0
	for i := 0; i < n; i++ {
		fmt.Printf("--- set %d of %d\n", i+1, n)
		results, c := p.set(false)
		code = max(code, c)
		for _, res := range results {
			for _, m := range res.Metrics {
				key := res.Workload + " " + m.Name
				if rows[key] == nil {
					rows[key] = &spreadRow{workload: res.Workload, metric: m.Name, unit: m.Unit,
						bound: boundOf(m.Name), exact: exactMetrics[res.Workload] == m.Name}
					keys = append(keys, key)
				}
				rows[key].values = append(rows[key].values, m.Value)
			}
		}
	}
	fmt.Printf("--- agreement over %d sets\n", n)
	fmt.Printf("%-15s %-12s %12s %12s %12s %10s %8s %7s\n",
		"workload", "metric", "median", "q1", "q3", "range/med", "spread", "bound")
	for _, key := range keys {
		r := rows[key]
		q1, q3 := quartiles(r.values)
		med := median(r.values)
		verdict := "ok"
		if !r.ok() {
			verdict = "EXCEEDS"
			code = max(code, 1)
		}
		bound := fmt.Sprintf("%.3f", r.bound)
		if r.exact {
			bound = "exact"
		}
		fmt.Printf("%-15s %-12s %12.6g %12.6g %12.6g %10.4f %8.4f %7s %s\n", r.workload, r.metric,
			med, q1, q3, (slices.Max(r.values)-slices.Min(r.values))/med, r.spread(), bound, verdict)
	}
	return code
}

func boundOf(metric string) float64 {
	for _, m := range endToEnd {
		if m.Name == metric {
			return m.Bound
		}
	}
	return 0
}
