package obs

import (
	"bytes"
	"fmt"
	"io"
)

// Registry is a set of metric families exposed together in the
// Prometheus text format (version 0.0.4). Every family writes its HELP
// and TYPE header by construction, ahead of its series, so a header can
// never drift from the series it describes. Counter and gauge values are
// read through funcs at exposition time, so the hot paths keep their own
// atomics and never touch the registry. Families are written in
// registration order. Register everything before the first WriteProm;
// the zero value is an empty registry.
type Registry struct {
	fams []family
}

// family is one metric family: it appends its whole exposition to b.
type family interface {
	expose(b *bytes.Buffer)
}

// Number is the value type of a counter or gauge: integers print in
// decimal, floats the shortest %g way.
type Number interface {
	~int | ~int64 | ~uint64 | ~float64
}

// Counter registers an unlabelled counter read through v.
func Counter[V Number](r *Registry, name, help string, v func() V) {
	r.fams = append(r.fams, scalar[V]{name, help, "counter", v})
}

// Gauge registers an unlabelled gauge read through v.
func Gauge[V Number](r *Registry, name, help string, v func() V) {
	r.fams = append(r.fams, scalar[V]{name, help, "gauge", v})
}

// CounterVec registers a counter family with one label. At exposition
// time samples calls emit once per series, in the order to print.
func CounterVec[V Number](r *Registry, name, help, label string, samples func(emit func(labelValue string, v V))) {
	r.fams = append(r.fams, vec[V]{name, help, "counter", label, samples})
}

// GaugeVec registers a gauge family with one label (see CounterVec).
func GaugeVec[V Number](r *Registry, name, help, label string, samples func(emit func(labelValue string, v V))) {
	r.fams = append(r.fams, vec[V]{name, help, "gauge", label, samples})
}

// Histograms registers a histogram family.
func (r *Registry) Histograms(h *HistogramVec) {
	r.fams = append(r.fams, h)
}

// WriteProm writes every family to w.
func (r *Registry) WriteProm(w io.Writer) error {
	var b bytes.Buffer
	for _, f := range r.fams {
		f.expose(&b)
	}
	_, err := w.Write(b.Bytes())
	return err
}

func writeHeader(b *bytes.Buffer, name, help, typ string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

type scalar[V Number] struct {
	name, help, typ string
	v               func() V
}

func (s scalar[V]) expose(b *bytes.Buffer) {
	writeHeader(b, s.name, s.help, s.typ)
	fmt.Fprintf(b, "%s %v\n", s.name, s.v())
}

type vec[V Number] struct {
	name, help, typ, label string
	samples                func(emit func(string, V))
}

func (s vec[V]) expose(b *bytes.Buffer) {
	writeHeader(b, s.name, s.help, s.typ)
	s.samples(func(lv string, v V) {
		fmt.Fprintf(b, "%s{%s=%q} %v\n", s.name, s.label, lv, v)
	})
}
