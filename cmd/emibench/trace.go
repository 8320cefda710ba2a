package main

import (
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// spanLog collects the benchmark's own client spans in memory; they are
// written out as a Chrome trace when the workload ends.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []obs.ChromeEvent
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records one span on a lane (one lane per client connection or
// loop).
func (l *spanLog) add(name string, lane int, start, end time.Time) {
	if start.IsZero() || end.Before(start) {
		return
	}
	ev := obs.ChromeEvent{
		Name: name, Ph: "X", Pid: 1, Tid: lane,
		Ts:  float64(start.Sub(l.t0)) / float64(time.Microsecond),
		Dur: float64(end.Sub(start)) / float64(time.Microsecond),
	}
	l.mu.Lock()
	l.spans = append(l.spans, ev)
	l.mu.Unlock()
}

// addCall records a traced HTTP exchange as an op span with its send,
// wait and read children.
func (l *spanLog) addCall(name string, lane int, c call) {
	l.add(name, lane, c.start, c.end)
	if c.wrote.IsZero() || c.first.IsZero() {
		return
	}
	l.add("send", lane, c.start, c.wrote)
	l.add("wait", lane, c.wrote, c.first)
	l.add("read", lane, c.first, c.end)
}

// doc returns the client spans as a Chrome trace on the "emibench" lane.
func (l *spanLog) doc() obs.ChromeDoc {
	l.mu.Lock()
	defer l.mu.Unlock()
	d := obs.ChromeDoc{
		DisplayTimeUnit: "ms",
		TraceEvents:     append([]obs.ChromeEvent(nil), l.spans...),
		OtherData:       map[string]string{"startUnixUs": strconv.FormatInt(l.t0.UnixMicro(), 10)},
	}
	d.SetProcess(1, "emibench")
	return d
}

// attach shifts a fragment recorded by another process onto the client
// log's clock and appends it on its own process lanes, starting at pid.
// Fragments without a start anchor are appended unshifted.
func attach(into *obs.ChromeDoc, frag obs.ChromeDoc, pid int, name string) {
	anchor, _ := into.StartUnixUs()
	if start, ok := frag.StartUnixUs(); ok {
		frag.Shift(float64(start - anchor))
	}
	pids := map[int]int{}
	named := false
	for i := range frag.TraceEvents {
		ev := &frag.TraceEvents[i]
		if _, ok := pids[ev.Pid]; !ok {
			pids[ev.Pid] = pid + len(pids)
		}
		ev.Pid = pids[ev.Pid]
		named = named || (ev.Ph == "M" && ev.Name == "process_name")
	}
	if !named {
		frag.SetProcess(pid, name)
	}
	into.TraceEvents = append(into.TraceEvents, frag.TraceEvents...)
}

// writeDoc writes a Chrome trace document to path.
func writeDoc(path string, d obs.ChromeDoc) error {
	b, err := json.Marshal(d)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns, per span name, the summed self time in milliseconds
// (a span's duration minus the part of it its direct children cover) and
// the number of spans. Nesting is read from time containment on each
// process lane, the way trace viewers stack spans.
func selfTimes(events []obs.ChromeEvent) (selfMS map[string]float64, count map[string]int) {
	type lane struct{ pid, tid int }
	byLane := map[lane][]obs.ChromeEvent{}
	for _, ev := range events {
		if ev.Ph == "X" {
			byLane[lane{ev.Pid, ev.Tid}] = append(byLane[lane{ev.Pid, ev.Tid}], ev)
		}
	}
	selfMS, count = map[string]float64{}, map[string]int{}
	for _, evs := range byLane {
		sort.SliceStable(evs, func(i, j int) bool {
			if evs[i].Ts != evs[j].Ts {
				return evs[i].Ts < evs[j].Ts
			}
			return evs[i].Dur > evs[j].Dur
		})
		type open struct {
			end     float64
			covered *float64
		}
		var stack []open
		covered := make([]float64, len(evs))
		for i, ev := range evs {
			for len(stack) > 0 && stack[len(stack)-1].end <= ev.Ts {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				top := stack[len(stack)-1]
				*top.covered += min(ev.Ts+ev.Dur, top.end) - ev.Ts
			}
			stack = append(stack, open{end: ev.Ts + ev.Dur, covered: &covered[i]})
		}
		for i, ev := range evs {
			selfMS[ev.Name] += max(ev.Dur-covered[i], 0) / 1e3
			count[ev.Name]++
		}
	}
	return selfMS, count
}
