package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"repro/internal/obs"
)

// config is one benchmark invocation's settings.
type config struct {
	root     string  // repository root: testdata/ and figures_output.txt
	bin      string  // directory of the built binaries
	work     string  // per-run directory for data directories and outputs
	traceDir string  // where traced runs write their Chrome traces
	seed     int64   // input seed
	seconds  float64 // measured length of a run
	trace    bool    // per-layer run: untraced half, traced half
	setups   int     // times a service is set up to time setup_s
	launch   launcher
	sizes    sizes
}

// sizes are the workload dimensions. The benchmark uses defaultSizes;
// the smoke test shrinks them.
type sizes struct {
	explorePop    int      // batch explore population
	exploreGens   int      // batch explore generations
	yieldSamples  int      // batch yield Monte Carlo samples
	batchPairSec  float64  // nominal seconds of one explore+yield pair
	figuresArgs   []string // figures selection
	boardSegments int      // emiscale board size
	offlineRepSec float64  // nominal seconds of one offline repetition
}

// defaultSizes are the benchmark's workload dimensions. The nominal costs
// were measured on a 2-vCPU Linux VM; they turn -seconds into a fixed
// amount of batch and offline work, so every commit runs the same work.
var defaultSizes = sizes{
	explorePop:    8,
	exploreGens:   2,
	yieldSamples:  96,
	batchPairSec:  1.5,
	figuresArgs:   []string{"-all"},
	boardSegments: 10000,
	offlineRepSec: 9,
}

// result is what one workload run reports.
type result struct {
	Workload  string             `json:"workload"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
	Run       map[string]float64 `json:"run"`
	Metrics   map[string]metric  `json:"metrics"`
	Layers    map[string]metric  `json:"layers,omitempty"`
	Traces    []string           `json:"traces,omitempty"`
}

func newResult(name string) *result {
	return &result{Workload: name, Run: map[string]float64{},
		Metrics: map[string]metric{}, Layers: map[string]metric{}}
}

// maxFailures bounds the failure messages kept in a result.
const maxFailures = 20

// fail counts one failed operation or check.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < maxFailures {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// failFrac is failures per attempted operation.
func (r *result) failFrac() float64 { return ratio(float64(r.Failed), float64(r.Attempted)) }

// named records a named percentile of xs. A run too short to have ten
// samples beyond it leaves the metric out and notes why; a note makes the
// run invalid. A traced run, which reports no end-to-end metrics, only
// leaves it out.
func (r *result) named(c *config, xs []float64, p float64, name string) {
	if m, ok := pctMetric(xs, p, "ms"); ok {
		r.Metrics[name] = m
	} else if !c.trace {
		r.Notes = append(r.Notes, fmt.Sprintf("%s: %d samples leave fewer than ten beyond p%g", name, len(xs), p))
	}
}

// writeTrace writes a workload's Chrome trace into the trace directory.
func (r *result) writeTrace(c *config, d obs.ChromeDoc) error {
	path := filepath.Join(c.traceDir, r.Workload+".json")
	if err := writeDoc(path, d); err != nil {
		return err
	}
	r.Traces = append(r.Traces, path)
	return nil
}

// selfLayers reports the mean self time of the benchmark's send, wait and
// read spans per op.
func selfLayers(r *result, events []obs.ChromeEvent) {
	self, count := selfTimes(events)
	for _, name := range []string{"send", "wait", "read"} {
		r.Layers["self."+name+"_ms"] = metric{Value: self[name] / float64(count[name]), Unit: "ms", Samples: count[name]}
	}
}

// serverSelf reports the mean self time per traced job of every span name
// the server traces carry.
func serverSelf(r *result, events []obs.ChromeEvent, jobs int) {
	self, _ := selfTimes(events)
	for name, ms := range self {
		r.Layers["self."+name+"_ms"] = metric{Value: ms / float64(jobs), Unit: "ms", Samples: jobs}
	}
}

// overheadPct compares the traced and the untraced value of a workload's
// primary latency.
func overheadPct(untraced, traced float64) metric {
	return metric{Value: 100 * (traced - untraced) / untraced, Unit: "%"}
}

// seconds converts float seconds to a duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// windows are a run's measured windows, back to back after warm-up: one
// window of the whole measured length, or with tracing an untraced half
// followed by a traced half.
type windows struct {
	start, end time.Time
	length     float64 // seconds per window
	split      bool
}

func newWindows(start time.Time, secs float64, traced bool) *windows {
	w := &windows{start: start, end: start.Add(seconds(secs)), length: secs, split: traced}
	if traced {
		w.length = secs / 2
	}
	return w
}

// count is the number of windows.
func (w *windows) count() int {
	if w.split {
		return 2
	}
	return 1
}

// index returns the window t falls in, -1 outside them.
func (w *windows) index(t time.Time) int {
	if t.Before(w.start) || !t.Before(w.end) {
		return -1
	}
	return min(int(t.Sub(w.start).Seconds()/w.length), w.count()-1)
}

// traced reports whether t falls in the traced window.
func (w *windows) traced(t time.Time) bool { return w.split && w.index(t) == 1 }

// scrapeAt scrapes the service's metrics at every window boundary, so
// scrape i and i+1 bracket window i.
func (w *windows) scrapeAt(ctx context.Context, cl *client) ([]prom, error) {
	var out []prom
	for i := 0; i <= w.count(); i++ {
		at := w.start.Add(seconds(float64(i) * w.length))
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(time.Until(at)):
		}
		p, err := scrape(ctx, cl)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// setUp launches the system under test c.setups times, each time timing
// it from the first spawn until it is ready and ready(s) has run, and
// keeps the last one running. It returns the median set-up time.
func setUp(ctx context.Context, c *config, sp sutSpec, ready func(*sut) error) (*sut, metric, error) {
	var times []float64
	var s *sut
	for i := 0; i < c.setups; i++ {
		if s != nil {
			s.stop()
		}
		t0 := time.Now()
		var err error
		if s, err = c.launch.launch(ctx, sp); err != nil {
			return nil, metric{}, err
		}
		if ready != nil {
			if err := ready(s); err != nil {
				s.stop()
				return nil, metric{}, err
			}
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return s, metric{Value: median(times), Unit: "s", Samples: len(times), Percentile: "p50"}, nil
}

// dropNonFinite removes values that are not finite numbers: a metric with
// no samples in a short run.
func dropNonFinite(ms map[string]metric) {
	for name, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			delete(ms, name)
		}
	}
}
