package obs

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

type testEvent struct {
	Seq   uint64
	Stage string
}

func newTestLog(capacity, slack int) *Log[testEvent] {
	return NewLog(capacity, slack, func(ev *testEvent, seq uint64) { ev.Seq = seq })
}

// drain reads what a channel holds without blocking.
func drain(ch <-chan testEvent) (out []testEvent, closed bool) {
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return out, true
			}
			out = append(out, ev)
		default:
			return out, false
		}
	}
}

// TestLogReplay pins the ring semantics: subscribers replay events after
// their cursor, live events fan out, and the ring survives close so late
// subscribers still see history.
func TestLogReplay(t *testing.T) {
	l := newTestLog(8, 4)
	for i := 0; i < 3; i++ {
		if !l.Publish(testEvent{Stage: "front"}) {
			t.Fatalf("publish %d rejected", i)
		}
	}

	// Full replay from the beginning.
	ch, cancel := l.Subscribe(0)
	for i := 1; i <= 3; i++ {
		if ev := <-ch; ev.Seq != uint64(i) || ev.Stage != "front" {
			t.Fatalf("replayed event %+v, want seq %d", ev, i)
		}
	}
	// A live event reaches the open subscriber.
	l.Publish(testEvent{Stage: "yield"})
	if ev := <-ch; ev.Seq != 4 || ev.Stage != "yield" {
		t.Fatalf("live event %+v", ev)
	}
	cancel()
	if _, open := <-ch; open {
		t.Fatal("channel still open after cancel")
	}

	// A cursor skips already-seen history.
	ch2, cancel2 := l.Subscribe(3)
	if ev := <-ch2; ev.Seq != 4 {
		t.Fatalf("cursor replay %+v, want seq 4", ev)
	}
	cancel2()

	// Close ends live subscribers but keeps the ring for replay; later
	// publishes are discarded.
	ch3, cancel3 := l.Subscribe(4)
	defer cancel3()
	l.Close()
	if _, ok := <-ch3; ok {
		t.Fatal("subscriber channel still open after close")
	}
	if l.Publish(testEvent{}) || !l.Closed() {
		t.Fatal("publish accepted after close")
	}
	ch4, cancel4 := l.Subscribe(0)
	defer cancel4()
	n := 0
	for range ch4 {
		n++
	}
	if n != 4 {
		t.Fatalf("post-close replay delivered %d events, want 4", n)
	}
	if got := l.Since(2); len(got) != 2 || got[0].Seq != 3 {
		t.Fatalf("Since(2) = %+v, want seqs 3, 4", got)
	}
}

// TestLogRingCap: the ring keeps only the newest events, in order, and
// sequence numbers keep counting across the eviction.
func TestLogRingCap(t *testing.T) {
	const capacity = 5
	l := newTestLog(capacity, 0)
	total := capacity + 7
	for i := 0; i < total; i++ {
		l.Publish(testEvent{})
	}
	ch, cancel := l.Subscribe(0)
	defer cancel()
	got, _ := drain(ch)
	if len(got) != capacity {
		t.Fatalf("replayed %d events, want %d", len(got), capacity)
	}
	for i, ev := range got {
		if want := uint64(total - capacity + 1 + i); ev.Seq != want {
			t.Fatalf("replay[%d] seq %d, want %d", i, ev.Seq, want)
		}
	}
}

// TestLogDropOnFull: a subscriber that stops reading is dropped by
// closing its channel once its buffer fills; the publisher never blocks
// and other subscribers keep receiving.
func TestLogDropOnFull(t *testing.T) {
	l := newTestLog(16, 2)
	slow, cancelSlow := l.Subscribe(0)
	defer cancelSlow()
	fast, cancelFast := l.Subscribe(0)
	defer cancelFast()
	for i := 0; i < 3; i++ {
		l.Publish(testEvent{})
		if ev := <-fast; ev.Seq != uint64(i+1) {
			t.Fatalf("fast subscriber got %+v", ev)
		}
	}
	got, closed := drain(slow)
	if !closed || len(got) != 2 {
		t.Fatalf("slow subscriber: %d buffered events, closed=%v; want 2 and closed", len(got), closed)
	}
	cancelSlow() // cancelling a dropped subscriber is a no-op
	// It resumes by reconnecting with its cursor.
	again, cancelAgain := l.Subscribe(got[len(got)-1].Seq)
	defer cancelAgain()
	if ev := <-again; ev.Seq != 3 {
		t.Fatalf("resumed at %+v, want seq 3", ev)
	}
}

// TestLogCallerSeq: events published under caller-assigned numbers (a
// design session's delta seq, which survives WAL replay) replay by those
// numbers and are never renumbered, whatever the first number is.
func TestLogCallerSeq(t *testing.T) {
	l := NewLog[testEvent](3, 4, nil)
	for seq := uint64(41); seq <= 45; seq++ {
		if !l.PublishSeq(seq, testEvent{Seq: seq}) {
			t.Fatalf("publish %d rejected", seq)
		}
	}
	ch, cancel := l.Subscribe(42)
	defer cancel()
	got, _ := drain(ch)
	if len(got) != 3 || got[0].Seq != 43 || got[2].Seq != 45 {
		t.Fatalf("replay after 42 = %+v, want seqs 43..45", got)
	}
	ch2, cancel2 := l.Subscribe(0)
	defer cancel2()
	if got, _ := drain(ch2); len(got) != 3 || got[0].Seq != 43 {
		t.Fatalf("ring after eviction = %+v, want seqs 43..45", got)
	}
}

// BenchmarkLogPublishSeq measures one delta published to one live
// subscriber — the session edit hot path. A full ring allocates nothing.
func BenchmarkLogPublishSeq(b *testing.B) {
	l := NewLog[testEvent](256, 64, nil)
	ch, cancel := l.Subscribe(0)
	defer cancel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.PublishSeq(uint64(i+1), testEvent{Seq: uint64(i + 1)})
		<-ch
	}
}

// TestSSE pins the stream framing: the resume cursor comes from
// Last-Event-ID first, then ?after=; Start keeps handler-set headers;
// every event is one event/id/data frame.
func TestSSE(t *testing.T) {
	for _, tc := range []struct {
		url, lastID string
		want        uint64
	}{
		{"/s", "", 0},
		{"/s?after=7", "", 7},
		{"/s?after=7", "3", 3},
		{"/s?after=x", "", 0},
	} {
		r := httptest.NewRequest(http.MethodGet, tc.url, nil)
		if tc.lastID != "" {
			r.Header.Set("Last-Event-ID", tc.lastID)
		}
		w := httptest.NewRecorder()
		s, after, ok := NewSSE(w, r)
		if !ok || after != tc.want {
			t.Fatalf("%s Last-Event-ID %q: after %d ok %v, want %d", tc.url, tc.lastID, after, ok, tc.want)
		}
		w.Header().Set("X-Job-ID", "j1")
		s.Start()
		s.Event("hello", after, map[string]int{"seq": 1})
		s.Event("bad", 9, func() {}) // does not marshal: skipped
		if w.Code != http.StatusOK || w.Header().Get("Content-Type") != "text/event-stream" ||
			w.Header().Get("Cache-Control") != "no-cache" || w.Header().Get("X-Job-ID") != "j1" {
			t.Fatalf("status %d headers %v", w.Code, w.Header())
		}
		want := "event: hello\nid: " + strconv.FormatUint(tc.want, 10) + "\ndata: {\"seq\":1}\n\n"
		if w.Body.String() != want {
			t.Fatalf("body %q, want %q", w.Body.String(), want)
		}
	}
}

type noFlush struct{ http.ResponseWriter }

func TestSSENeedsFlusher(t *testing.T) {
	if _, _, ok := NewSSE(noFlush{httptest.NewRecorder()}, httptest.NewRequest(http.MethodGet, "/", nil)); ok {
		t.Fatal("NewSSE accepted a writer that cannot flush")
	}
}

// TestFollow: Follow relays until the channel closes (true) or the
// context ends (false).
func TestFollow(t *testing.T) {
	ch := make(chan int, 2)
	ch <- 1
	ch <- 2
	close(ch)
	var got []int
	if !Follow(context.Background(), ch, func(v int) { got = append(got, v) }) || len(got) != 2 {
		t.Fatalf("Follow over a closed channel: %v", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if Follow(ctx, make(chan int), func(int) {}) {
		t.Fatal("Follow reported a closed channel on a done context")
	}
}

// TestRegistryExposition pins the counter and gauge formats: one header
// per family, integers in decimal at any size, floats the %g way, label
// values quoted like %q, families in registration order.
func TestRegistryExposition(t *testing.T) {
	var r Registry
	big := uint64(12345678901)
	Counter(&r, "a_total", "A things.", func() uint64 { return big })
	Gauge(&r, "b", "B now.", func() int64 { return -3 })
	GaugeVec(&r, "c_seconds", "C by member.", "member", func(emit func(string, float64)) {
		emit("r0", 0.00125)
		emit(`q"x`, 2e6)
	})
	CounterVec(&r, "d_total", "D by state.", "state", func(emit func(string, int)) {
		emit("done", 1000000)
	})
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# HELP a_total A things.", "# TYPE a_total counter", "a_total 12345678901",
		"# HELP b B now.", "# TYPE b gauge", "b -3",
		"# HELP c_seconds C by member.", "# TYPE c_seconds gauge",
		`c_seconds{member="r0"} 0.00125`, `c_seconds{member="q\"x"} 2e+06`,
		"# HELP d_total D by state.", "# TYPE d_total counter", `d_total{state="done"} 1000000`,
	}, "\n") + "\n"
	if buf.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", buf.String(), want)
	}
}
