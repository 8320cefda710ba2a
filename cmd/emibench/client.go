package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"strings"
	"time"
)

// client issues the benchmark's HTTP calls to one base URL over at most
// conns connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr}}
}

// close releases the client's idle connections.
func (c *client) close() { c.hc.CloseIdleConnections() }

// call is one timed HTTP exchange. wrote and first (request fully written,
// first response byte) are only set on traced calls.
type call struct {
	start, wrote, first, end time.Time
	status                   int
	body                     []byte
	err                      error
}

// ok reports a transport-clean 2xx exchange.
func (c call) ok() bool { return c.err == nil && c.status/100 == 2 }

// ms returns the exchange's round trip in milliseconds.
func (c call) ms() float64 { return msBetween(c.start, c.end) }

// msBetween returns b − a in milliseconds.
func msBetween(a, b time.Time) float64 { return float64(b.Sub(a)) / float64(time.Millisecond) }

// do performs one request and reads the whole response body. A traced
// call records when the request was written and when the first response
// byte arrived, which splits it into send, wait and read spans.
func (c *client) do(ctx context.Context, method, path string, body []byte, traced bool) call {
	var cl call
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		cl.err = err
		return cl
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if traced {
		req = req.WithContext(httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { cl.wrote = time.Now() },
			GotFirstResponseByte: func() { cl.first = time.Now() },
		}))
	}
	cl.start = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		cl.err = err
		cl.end = time.Now()
		return cl
	}
	cl.status = resp.StatusCode
	cl.body, cl.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	cl.end = time.Now()
	return cl
}

// sseEvent is one server-sent event.
type sseEvent struct {
	name, id string
	data     []byte
	at       time.Time // when its last line arrived
}

// readSSE parses server-sent events from r and hands each to fn until r
// ends or fn returns false.
func readSSE(r io.Reader, fn func(sseEvent) bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var ev sseEvent
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if ev.name != "" || ev.data != nil {
				ev.at = time.Now()
				if !fn(ev) {
					return nil
				}
			}
			ev = sseEvent{}
		case strings.HasPrefix(line, "event: "):
			ev.name = line[len("event: "):]
		case strings.HasPrefix(line, "id: "):
			ev.id = line[len("id: "):]
		case strings.HasPrefix(line, "data: "):
			ev.data = append(ev.data, line[len("data: "):]...)
		}
	}
	return sc.Err()
}

// prom is one scrape of a Prometheus text exposition: sample value by
// series (metric name plus its label set as printed).
type prom map[string]float64

// parseProm reads the sample lines of an exposition.
func parseProm(text string) prom {
	out := prom{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] += v
	}
	return out
}

// sum adds the samples of metric name whose labels include every
// key="value" pair in match (a federated scrape repeats a series once per
// replica).
func (p prom) sum(name string, match ...string) float64 {
	var total float64
	for series, v := range p {
		base, labels, _ := strings.Cut(series, "{")
		if base != name {
			continue
		}
		all := true
		for _, m := range match {
			if !strings.Contains(labels, m) {
				all = false
				break
			}
		}
		if all {
			total += v
		}
	}
	return total
}

// label renders one key="value" matcher for prom.sum.
func label(k, v string) string { return fmt.Sprintf("%s=%q", k, v) }

// scrape fetches and parses base/metrics.
func scrape(ctx context.Context, c *client) (prom, error) {
	cl := c.do(ctx, http.MethodGet, "/metrics", nil, false)
	if !cl.ok() {
		return nil, fmt.Errorf("scrape /metrics: status %d: %v", cl.status, cl.err)
	}
	return parseProm(string(cl.body)), nil
}

// delta returns after − before for one summed series.
func delta(before, after prom, name string, match ...string) float64 {
	return after.sum(name, match...) - before.sum(name, match...)
}
