package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
)

// Resumable event streams: a Log keeps the newest events of one source
// (a design session's deltas, a job's progress, the cluster timeline) in
// a bounded replay ring and fans each new event out to live subscribers;
// an SSE writes them as server-sent events. A client that reconnects with
// Last-Event-ID (or ?after=N) replays what the ring still holds and then
// follows live.

// Log is a bounded replay ring with subscription fan-out. Every event
// carries a sequence number: either the log numbers events 1, 2, …
// itself (Publish) or the caller supplies increasing numbers of its own
// (PublishSeq), which the log replays by and never renumbers. A
// subscriber whose buffer fills is dropped by closing its channel — a
// stalled client must never block the publisher — and reconnects to
// resume. Closing the log ends every live subscription but keeps the
// ring, so late subscribers still replay the history. Safe for
// concurrent use.
type Log[T any] struct {
	stamp func(v *T, seq uint64)
	slack int

	mu     sync.Mutex
	ring   []logEntry[T] // oldest at head once the ring is full
	head   int
	size   int    // ring capacity
	last   uint64 // seq of the newest event
	subs   map[chan T]struct{}
	closed bool
}

type logEntry[T any] struct {
	seq uint64
	v   T
}

// NewLog returns an empty log retaining the newest capacity events. A
// subscriber gets slack buffered live events beyond its replay backlog.
// stamp, when non-nil, writes the number Publish assigns into the event;
// it runs under the log's lock, so it must only set fields.
func NewLog[T any](capacity, slack int, stamp func(v *T, seq uint64)) *Log[T] {
	return &Log[T]{stamp: stamp, slack: slack, size: capacity, subs: map[chan T]struct{}{}}
}

// Publish numbers v with the log's next sequence number, stamps it, and
// retains and fans it out. Numbering happens under the log's lock, so
// events published from many goroutines get distinct, ordered numbers.
// Returns false (discarding v) once the log is closed.
func (l *Log[T]) Publish(v T) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	if l.stamp != nil {
		l.stamp(&v, l.last+1)
	}
	l.push(l.last+1, v)
	return true
}

// PublishSeq retains and fans out v under the caller-assigned sequence
// number seq, which must exceed every number published before. Returns
// false (discarding v) once the log is closed.
func (l *Log[T]) PublishSeq(seq uint64, v T) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	l.push(seq, v)
	return true
}

// push appends one event, evicting the oldest beyond capacity, and
// fans it out. The caller holds the lock.
func (l *Log[T]) push(seq uint64, v T) {
	e := logEntry[T]{seq: seq, v: v}
	if len(l.ring) < l.size {
		l.ring = append(l.ring, e)
	} else {
		l.ring[l.head] = e
		l.head = (l.head + 1) % l.size
	}
	l.last = seq
	for ch := range l.subs {
		select {
		case ch <- v:
		default:
			delete(l.subs, ch)
			close(ch)
		}
	}
}

// retained calls fn on the retained events with seq > after, oldest
// first. The caller holds the lock.
func (l *Log[T]) retained(after uint64, fn func(T)) {
	for i := range l.ring {
		if e := l.ring[(l.head+i)%len(l.ring)]; e.seq > after {
			fn(e.v)
		}
	}
}

// Subscribe returns a channel that replays the retained events with
// seq > after and then carries live events until cancel is called, the
// log closes, or the subscriber falls behind; then the channel closes.
// cancel must be called when done.
func (l *Log[T]) Subscribe(after uint64) (<-chan T, func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	l.retained(after, func(T) { n++ })
	ch := make(chan T, n+l.slack)
	l.retained(after, func(v T) { ch <- v })
	if l.closed {
		close(ch)
		return ch, func() {}
	}
	l.subs[ch] = struct{}{}
	return ch, func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		if _, ok := l.subs[ch]; ok {
			delete(l.subs, ch)
			close(ch)
		}
	}
}

// Since returns the retained events with seq > after, oldest first.
func (l *Log[T]) Since(after uint64) []T {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []T
	l.retained(after, func(v T) { out = append(out, v) })
	return out
}

// Close ends the live stream: every subscriber's channel closes and
// later publishes are discarded. The ring is kept for replay.
func (l *Log[T]) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	for ch := range l.subs {
		delete(l.subs, ch)
		close(ch)
	}
}

// Closed reports whether Close has been called.
func (l *Log[T]) Closed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

// SSE writes one server-sent event stream onto an HTTP response.
type SSE struct {
	w  http.ResponseWriter
	fl http.Flusher
}

// NewSSE prepares a stream on w and returns the client's resume cursor:
// the Last-Event-ID header, else the ?after= query parameter, else 0.
// It reports false, having written nothing, when w cannot flush.
func NewSSE(w http.ResponseWriter, r *http.Request) (*SSE, uint64, bool) {
	fl, ok := w.(http.Flusher)
	if !ok {
		return nil, 0, false
	}
	var after uint64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		after, _ = strconv.ParseUint(v, 10, 64)
	} else if v := r.URL.Query().Get("after"); v != "" {
		after, _ = strconv.ParseUint(v, 10, 64)
	}
	return &SSE{w: w, fl: fl}, after, true
}

// Start sets the stream headers (keeping any the handler set before),
// writes status 200 and flushes.
func (s *SSE) Start() {
	h := s.w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	s.w.WriteHeader(http.StatusOK)
	s.fl.Flush()
}

// Event writes one frame — the event name, its id, and v as JSON data —
// and flushes. A value that does not marshal is skipped.
func (s *SSE) Event(name string, id uint64, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	fmt.Fprintf(s.w, "event: %s\nid: %d\ndata: %s\n\n", name, id, data)
	s.fl.Flush()
}

// Follow passes every value from ch to emit until ch closes (it returns
// true) or ctx ends (false) — the loop of a stream handler.
func Follow[T any](ctx context.Context, ch <-chan T, emit func(T)) bool {
	for {
		select {
		case v, open := <-ch:
			if !open {
				return true
			}
			emit(v)
		case <-ctx.Done():
			return false
		}
	}
}
