package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// A server that stalls one request must see the stall charged, from due
// time, to the ops queued behind it, while the generator's own lateness
// stays small and is reported apart.
func TestOpenLoopChargesStallFromDueTime(t *testing.T) {
	const stalled, ops = 10, 40
	const stall = 50 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		if n.Add(1) == stalled+1 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	cl := newClient(srv.URL, 1)
	defer cl.close()
	ctx := context.Background()
	cl.do(ctx, http.MethodGet, "/", nil, false) // open the connection
	n.Store(0)

	period := 5 * time.Millisecond
	start := time.Now().Add(20 * time.Millisecond)
	slots := openLoop(ctx, start, start.Add(ops*period), period, func(int) func() {
		return func() {
			if c := cl.do(ctx, http.MethodGet, "/", nil, false); !c.ok() {
				t.Errorf("request failed: %d %v", c.status, c.err)
			}
		}
	})
	if len(slots) != ops {
		t.Fatalf("%d slots, want %d", len(slots), ops)
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, tc := range []struct {
		op       int
		atLeast  float64
		comment  string
		atMostMS float64
	}{
		{stalled, ms(stall), "the stalled op itself", 1e9},
		{stalled + 1, ms(stall - period), "queued behind the stall", 1e9},
		{stalled + 4, ms(stall - 4*period), "still queued", 1e9},
		{ops - 1, 0, "back on schedule", 10},
	} {
		l := slots[tc.op].latency()
		if l < tc.atLeast || l > tc.atMostMS {
			t.Errorf("op %d (%s): latency %.2f ms, want [%.0f, %.0f]", tc.op, tc.comment, l, tc.atLeast, tc.atMostMS)
		}
	}
	for i, s := range slots {
		if s.sent.Before(s.due) {
			t.Errorf("op %d sent %v before it was due", i, s.due.Sub(s.sent))
		}
		// Generous for a loaded machine; the stall itself is ~50 ms.
		if s.late > 5*time.Millisecond {
			t.Errorf("op %d: generator lateness %v counts the stall", i, s.late)
		}
	}
	if hol := msBetween(slots[stalled+1].due, slots[stalled+1].sent); hol < ms(stall-2*period) {
		t.Errorf("op after the stall waited only %.2f ms to be sent", hol)
	}
}
