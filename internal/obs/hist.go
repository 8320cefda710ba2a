package obs

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram safe for concurrent Observe.
// Buckets are defined by ascending upper bounds; an implicit +Inf bucket
// catches the overflow. Counts and the sum are atomics, so the hot path
// never takes a lock.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, last = +Inf overflow
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
	total  atomic.Uint64
}

// NewHistogram creates a histogram over the given ascending upper
// bounds. Panics on an empty or unsorted bound list (a programming
// error, not an input error).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Bounds returns the bucket upper bounds (excluding +Inf).
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// BucketCounts returns the per-bucket (non-cumulative) counts, the last
// entry being the +Inf overflow bucket.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// ExpBuckets returns n strictly ascending bounds start, start·factor,
// start·factor², … — the standard exponential latency/alloc ladder.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencySeconds is the default latency ladder: 1 ms … ~65 s in powers
// of two — wide enough for a queue wait and a full placement job alike.
var LatencySeconds = ExpBuckets(1e-3, 2, 17)

// AllocBytes is the default allocation ladder: 4 KiB … 4 GiB in powers
// of four.
var AllocBytes = ExpBuckets(4096, 4, 11)

// formatBound renders a bucket bound the shortest round-trip way —
// matches Prometheus's own `le` label rendering closely enough to grep.
func formatBound(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// HistogramVec is a histogram family keyed by a fixed tuple of labels
// (e.g. job-phase latency by phase, forward latency by route and
// outcome). Members are created on first Observe.
type HistogramVec struct {
	name, help string
	labels     []string
	bounds     []float64

	mu sync.RWMutex
	m  map[string]*Histogram // key: label values joined by \x00
}

// NewHistogramVec creates an empty family over the given label names.
func NewHistogramVec(name, help string, labels []string, bounds []float64) *HistogramVec {
	if len(labels) == 0 {
		panic("obs: HistogramVec needs at least one label")
	}
	return &HistogramVec{
		name: name, help: help,
		labels: append([]string(nil), labels...),
		bounds: append([]float64(nil), bounds...),
		m:      map[string]*Histogram{},
	}
}

const vecKeySep = "\x00"

// Observe records v under the given label values (one per label name;
// a mismatched count is a programming error and panics).
func (s *HistogramVec) Observe(v float64, labelVals ...string) {
	if len(labelVals) != len(s.labels) {
		panic(fmt.Sprintf("obs: %s needs %d label values, got %d", s.name, len(s.labels), len(labelVals)))
	}
	key := strings.Join(labelVals, vecKeySep)
	s.mu.RLock()
	h := s.m[key]
	s.mu.RUnlock()
	if h == nil {
		s.mu.Lock()
		h = s.m[key]
		if h == nil {
			h = NewHistogram(s.bounds)
			s.m[key] = h
		}
		s.mu.Unlock()
	}
	h.Observe(v)
}

// Get returns the member histogram for a label tuple, or nil.
func (s *HistogramVec) Get(labelVals ...string) *Histogram {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m[strings.Join(labelVals, vecKeySep)]
}

// keys returns the observed label tuples, sorted for deterministic
// exposition.
func (s *HistogramVec) keys() []string {
	s.mu.RLock()
	out := make([]string, 0, len(s.m))
	for k := range s.m {
		out = append(out, k)
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}

// expose writes the family: one HELP/TYPE header, then per label tuple
// the cumulative _bucket series, _sum and _count.
func (s *HistogramVec) expose(b *bytes.Buffer) {
	writeHeader(b, s.name, s.help, "histogram")
	for _, key := range s.keys() {
		vals := strings.Split(key, vecKeySep)
		var lb strings.Builder
		for i, name := range s.labels {
			fmt.Fprintf(&lb, "%s=%q,", name, vals[i])
		}
		labels := lb.String() // trailing comma kept; le= follows
		s.mu.RLock()
		h := s.m[key]
		s.mu.RUnlock()
		counts := h.BucketCounts()
		cum := uint64(0)
		for i, bound := range h.bounds {
			cum += counts[i]
			fmt.Fprintf(b, "%s_bucket{%sle=%q} %d\n", s.name, labels, formatBound(bound), cum)
		}
		cum += counts[len(counts)-1]
		fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", s.name, labels, cum)
		trimmed := strings.TrimSuffix(labels, ",")
		fmt.Fprintf(b, "%s_sum{%s} %g\n%s_count{%s} %d\n", s.name, trimmed, h.Sum(), s.name, trimmed, h.Count())
	}
}
