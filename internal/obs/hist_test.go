package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	// A value equal to a bound lands in that bound's bucket (le is
	// inclusive, Prometheus semantics).
	for _, v := range []float64{0.5, 1} {
		h.Observe(v)
	}
	h.Observe(1.5)
	h.Observe(4)
	h.Observe(100) // overflow
	counts := h.BucketCounts()
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, counts[i], w, counts)
		}
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got := h.Sum(); math.Abs(got-107) > 1e-9 {
		t.Fatalf("sum = %g, want 107", got)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	t.Parallel()
	h := NewHistogram(ExpBuckets(1, 2, 10))
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(i % 7))
			}
		}()
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	perWorker := 0.0
	for i := 0; i < per; i++ {
		perWorker += float64(i % 7)
	}
	wantSum := float64(workers) * perWorker
	if math.Abs(h.Sum()-wantSum) > 1e-6 {
		t.Fatalf("sum = %g, want %g", h.Sum(), wantSum)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1e-3, 2, 4)
	want := []float64{1e-3, 2e-3, 4e-3, 8e-3}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("bucket %d = %g, want %g", i, got[i], want[i])
		}
	}
}

// exposition is one histogram family's input and the exposition
// lines it must produce; series of before[0] must precede before[1].
type exposition struct {
	name, help string
	labels     []string
	bounds     []float64
	observe    []expObs
	want       []string
	before     [2]string
}

type expObs struct {
	v    float64
	vals []string
}

// checkExposition pins the histogram exposition format: every label
// name on every series, label tuples in sorted order, le last, and one
// HELP/TYPE header per family.
func checkExposition(t *testing.T, tc exposition) {
	t.Helper()
	v := NewHistogramVec(tc.name, tc.help, tc.labels, tc.bounds)
	for _, o := range tc.observe {
		v.Observe(o.v, o.vals...)
	}
	var r Registry
	r.Histograms(v)
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range tc.want {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "# HELP") != 1 || strings.Count(out, "# TYPE") != 1 {
		t.Errorf("want exactly one HELP and one TYPE header:\n%s", out)
	}
	if strings.Index(out, tc.before[0]) > strings.Index(out, tc.before[1]) {
		t.Errorf("label tuples not sorted:\n%s", out)
	}
	if h := v.Get(tc.observe[0].vals...); h == nil || h.Count() == 0 {
		t.Errorf("Get did not find the observed member")
	}
}

// TestHistogramSetPromExposition covers a family with one label, the
// shape of the per-phase latency histograms.
func TestHistogramSetPromExposition(t *testing.T) {
	checkExposition(t, exposition{
		name: "emiserve_phase_seconds", help: "Wall time per pipeline phase.",
		labels: []string{"phase"}, bounds: []float64{0.001, 0.01},
		observe: []expObs{{0.0005, []string{"predict"}}, {0.005, []string{"predict"}},
			{5, []string{"predict"}}, {0.0001, []string{"queue.wait"}}},
		want: []string{
			"# HELP emiserve_phase_seconds Wall time per pipeline phase.\n",
			"# TYPE emiserve_phase_seconds histogram\n",
			`emiserve_phase_seconds_bucket{phase="predict",le="0.001"} 1` + "\n",
			`emiserve_phase_seconds_bucket{phase="predict",le="0.01"} 2` + "\n",
			`emiserve_phase_seconds_bucket{phase="predict",le="+Inf"} 3` + "\n",
			`emiserve_phase_seconds_sum{phase="predict"} 5.0055` + "\n",
			`emiserve_phase_seconds_count{phase="predict"} 3` + "\n",
			`emiserve_phase_seconds_bucket{phase="queue.wait",le="0.001"} 1` + "\n",
		},
		before: [2]string{`phase="predict"`, `phase="queue.wait"`},
	})
}

// TestHistogramVecExposition covers a family with two labels, the
// shape of the router's forward-latency histogram.
func TestHistogramVecExposition(t *testing.T) {
	checkExposition(t, exposition{
		name: "test_fwd_seconds", help: "Forward latency.",
		labels: []string{"route", "outcome"}, bounds: []float64{0.1, 1},
		observe: []expObs{{0.05, []string{"predict", "ok"}}, {2.0, []string{"predict", "ok"}},
			{0.5, []string{"jobs", "error"}}},
		want: []string{
			"# HELP test_fwd_seconds Forward latency.\n",
			"# TYPE test_fwd_seconds histogram\n",
			`test_fwd_seconds_bucket{route="predict",outcome="ok",le="0.1"} 1` + "\n",
			`test_fwd_seconds_bucket{route="predict",outcome="ok",le="+Inf"} 2` + "\n",
			`test_fwd_seconds_count{route="predict",outcome="ok"} 2` + "\n",
			`test_fwd_seconds_bucket{route="jobs",outcome="error",le="1"} 1` + "\n",
			`test_fwd_seconds_sum{route="jobs",outcome="error"} 0.5` + "\n",
		},
		before: [2]string{`route="jobs"`, `route="predict"`},
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(LatencySeconds)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-4)
	}
}
