package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// sortedCopy returns xs in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs, the mean of the two middle values
// for an even count. It is NaN for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, the median and the third quartile
// of xs as Python's statistics.quantiles(xs, n=4) computes them (its
// default "exclusive" method), so a spread computed here matches one
// computed by a script from the same values. One value gives itself three
// times; no values give NaN.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sortedCopy(xs)
	n := len(s)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the distance between the quartiles of xs as a share of their
// median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(q2)
}

// rank is the 1-based nearest rank of the p-th percentile of n samples
// (the epsilon absorbs the rounding of p/100).
func rank(n int, p float64) int {
	return max(int(math.Ceil(p/100*float64(n)-1e-9)), 1)
}

// beyond returns how many of n samples lie above the nearest-rank p-th
// percentile.
func beyond(n int, p float64) int { return n - rank(n, p) }

// percentile returns the nearest-rank p-th percentile of ascending s.
func percentile(s []float64, p float64) float64 { return s[rank(len(s), p)-1] }

// tailLadder lists the percentiles a tail is reported at, highest first.
var tailLadder = []float64{99, 95, 90, 75, 50}

// tailOf returns the highest percentile in tailLadder with at least ten
// samples beyond it. A run with too few samples for any of them reports
// its slowest sample, labelled "max".
func tailOf(xs []float64) (v float64, label string) {
	if len(xs) == 0 {
		return math.NaN(), "none"
	}
	s := sortedCopy(xs)
	for _, p := range tailLadder {
		if beyond(len(s), p) >= 10 {
			return percentile(s, p), fmt.Sprintf("p%g", p)
		}
	}
	return s[len(s)-1], "max"
}

// metric is one reported number with its unit. Samples and Percentile
// describe a value taken from a distribution.
type metric struct {
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	Samples    int     `json:"samples,omitempty"`
	Percentile string  `json:"percentile,omitempty"`
}

// p50Metric is the median of xs.
func p50Metric(xs []float64, unit string) metric {
	return metric{Value: median(xs), Unit: unit, Samples: len(xs), Percentile: "p50"}
}

// tailMetric is tailOf(xs).
func tailMetric(xs []float64, unit string) metric {
	v, label := tailOf(xs)
	return metric{Value: v, Unit: unit, Samples: len(xs), Percentile: label}
}

// pctMetric is the p-th percentile of xs; ok is false when fewer than ten
// samples lie beyond it, and the percentile then goes unreported.
func pctMetric(xs []float64, p float64, unit string) (metric, bool) {
	if len(xs) == 0 || beyond(len(xs), p) < 10 {
		return metric{}, false
	}
	return metric{Value: percentile(sortedCopy(xs), p), Unit: unit,
		Samples: len(xs), Percentile: fmt.Sprintf("p%g", p)}, true
}

// bound is one end-to-end metric's regression rule from BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// compareRow is one workload × metric line of a comparison.
type compareRow struct {
	workload, metric, unit string
	a, b                   []float64
	verdict                string
}

// judge compares run set b (the change) with run set a (the parent) under
// rule. A median that worsened by more than the bound is a regression —
// unless the parent's own spread exceeds the bound, which makes the metric
// unresolved, or every run of b beats every run of a.
func judge(a, b []float64, rule bound) string {
	if rule.Bound == 0 {
		return "-"
	}
	lower := rule.Better == "lower"
	ma, mb := median(a), median(b)
	worse := (mb - ma) / math.Abs(ma)
	if !lower {
		worse = -worse
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			if (lower && x >= y) || (!lower && x <= y) {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		return "ok"
	case spread(a) > rule.Bound:
		return "unresolved"
	case worse > rule.Bound:
		return "regressed"
	}
	return "ok"
}

// compareRecords builds one row per workload × metric found in both run
// sets, judged against the bounds; metrics without a bound get no verdict.
func compareRecords(a, b []*record, bounds map[string]bound) []compareRow {
	type key struct{ w, m string }
	collect := func(recs []*record) (map[key][]float64, map[key]string) {
		vals, units := map[key][]float64{}, map[key]string{}
		for _, rec := range recs {
			for _, res := range rec.Workloads {
				for name, m := range res.Metrics {
					k := key{res.Workload, name}
					vals[k] = append(vals[k], m.Value)
					units[k] = m.Unit
				}
			}
		}
		return vals, units
	}
	av, units := collect(a)
	bv, _ := collect(b)
	var rows []compareRow
	for k, xs := range av {
		ys, ok := bv[k]
		if !ok {
			continue
		}
		rows = append(rows, compareRow{workload: k.w, metric: k.m, unit: units[k],
			a: xs, b: ys, verdict: judge(xs, ys, bounds[k.m])})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].workload != rows[j].workload {
			return rows[i].workload < rows[j].workload
		}
		return rows[i].metric < rows[j].metric
	})
	return rows
}

// printCompare writes the comparison table and reports whether any metric
// regressed.
func printCompare(w io.Writer, rows []compareRow, bounds map[string]bound) (regressed bool) {
	fmt.Fprintf(w, "%-8s %-30s %-34s %-34s %8s %6s  %s\n",
		"workload", "metric", "A median [q1 q3]", "B median [q1 q3]", "delta", "bound", "verdict")
	side := func(xs []float64) string {
		q1, q2, q3 := quartiles(xs)
		return fmt.Sprintf("%.4g [%.4g %.4g] n=%d", q2, q1, q3, len(xs))
	}
	for _, r := range rows {
		b := "-"
		if rule, ok := bounds[r.metric]; ok {
			b = fmt.Sprintf("%.0f%%", 100*rule.Bound)
		}
		delta := 100 * (median(r.b) - median(r.a)) / math.Abs(median(r.a))
		fmt.Fprintf(w, "%-8s %-30s %-34s %-34s %+7.1f%% %6s  %s\n",
			r.workload, r.metric+" ("+r.unit+")", side(r.a), side(r.b), delta, b, r.verdict)
		if r.verdict == "regressed" {
			regressed = true
		}
	}
	return regressed
}

// splitList splits a comma-separated list, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
