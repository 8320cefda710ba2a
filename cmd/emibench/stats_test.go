package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1}, 2},
		{[]float64{5, 1, 4}, 4},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{3, 1, 2, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1.5, 2.25, 9, 4}, [3]float64{1.875, 4, 7}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != (8.25-2.75)/5.5 {
		t.Errorf("spread = %v", got)
	}
}

func TestTailIsHighestPercentileWithTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: tailOf must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		label string
		value float64
	}{
		{5, "max", 5},
		{19, "max", 19},
		{20, "p50", 10},
		{39, "p50", 20},
		{40, "p75", 30},
		{100, "p90", 90},
		{200, "p95", 190},
		{999, "p95", 950},
		{1000, "p99", 990},
		{5000, "p99", 4950},
	} {
		v, label := tailOf(seq(tc.n))
		if label != tc.label || v != tc.value {
			t.Errorf("n=%d: tail %v at %s, want %v at %s", tc.n, v, label, tc.value, tc.label)
		}
	}
}

func TestNamedPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 1010)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, ok := pctMetric(xs[:999], 99, "ms"); ok {
		t.Error("p99 of 999 samples has only 9 beyond it")
	}
	m, ok := pctMetric(xs, 99, "ms")
	if !ok || m.Percentile != "p99" || m.Samples != 1010 || m.Value != 999 {
		t.Errorf("p99 of 1010 samples = %+v, %v", m, ok)
	}
	r := newResult("w")
	r.named(&config{}, xs[:500], 99, "x_p99_ms")
	if _, ok := r.Metrics["x_p99_ms"]; ok || len(r.Notes) != 1 {
		t.Errorf("a short run must leave the percentile out and note it: %v %v", r.Metrics, r.Notes)
	}
	r = newResult("w")
	r.named(&config{trace: true}, xs[:500], 99, "x_p99_ms")
	if _, ok := r.Metrics["x_p99_ms"]; ok || len(r.Notes) != 0 {
		t.Errorf("a traced run reports no end-to-end metrics, so a short one is valid: %v", r.Notes)
	}
}

func TestJudge(t *testing.T) {
	lower := bound{Name: "p50_ms", Better: "lower", Bound: 0.1}
	higher := bound{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	parent := []float64{100, 101, 99, 100, 102, 98}
	for _, tc := range []struct {
		name string
		a, b []float64
		rule bound
		want string
	}{
		{"within bound", parent, []float64{105, 106, 104, 107, 105, 103}, lower, "ok"},
		{"worse beyond bound", parent, []float64{115, 116, 114, 113, 117, 115}, lower, "regressed"},
		{"higher is better", parent, []float64{85, 86, 84, 88, 85, 87}, higher, "regressed"},
		{"noisy parent", []float64{80, 120, 90, 110, 100, 130}, []float64{125, 120, 115, 118, 119, 121}, lower, "unresolved"},
		{"noisy but every run better", []float64{80, 120, 90, 110, 100, 130}, []float64{70, 72, 75, 71, 69, 73}, lower, "ok"},
		{"no bound", parent, []float64{200, 200}, bound{}, "-"},
	} {
		if got := judge(tc.a, tc.b, tc.rule); got != tc.want {
			t.Errorf("%s: judge = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareRecordsPairsWorkloadAndMetric(t *testing.T) {
	rec := func(jobsP50, editsP50 float64) *record {
		j, e := newResult("jobs"), newResult("edits")
		j.Metrics["p50_ms"] = metric{Value: jobsP50, Unit: "ms"}
		j.Metrics["only_a"] = metric{Value: 1, Unit: "1"}
		e.Metrics["p50_ms"] = metric{Value: editsP50, Unit: "ms"}
		return &record{Schema: recordSchema, Workloads: []*result{j, e}}
	}
	a := []*record{rec(10, 1), rec(10.2, 1.01), rec(9.9, 1)}
	b := []*record{rec(10.1, 2), rec(10, 2.1), rec(10.3, 2)}
	b[0].Workloads[0].Metrics = map[string]metric{"p50_ms": b[0].Workloads[0].Metrics["p50_ms"]}
	bounds := map[string]bound{"p50_ms": {Name: "p50_ms", Better: "lower", Bound: 0.1}}
	rows := compareRecords(a, b, bounds)
	got := map[string]string{}
	for _, r := range rows {
		got[r.workload+"/"+r.metric] = r.verdict
	}
	want := map[string]string{"jobs/p50_ms": "ok", "edits/p50_ms": "regressed", "jobs/only_a": "-"}
	if len(got) != len(want) {
		t.Fatalf("rows %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: %s, want %s", k, got[k], v)
		}
	}
}
