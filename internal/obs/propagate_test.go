package obs

import (
	"strings"
	"testing"
	"time"
)

// TestTraceparentRoundTrip pins the wire format: a minted trace renders
// a valid traceparent whose trace ID parses back to the same identity.
func TestTraceparentRoundTrip(t *testing.T) {
	tr := NewTrace("req")
	if tr.ID().IsZero() {
		t.Fatal("NewTrace minted a zero trace ID")
	}
	tp := tr.Traceparent()
	parts := strings.Split(tp, "-")
	if len(parts) != 4 || parts[0] != "00" || len(parts[1]) != 32 || len(parts[2]) != 16 || parts[3] != "01" {
		t.Fatalf("malformed traceparent %q", tp)
	}
	id, ok := ParseTraceparent(tp)
	if !ok {
		t.Fatalf("own traceparent %q did not parse", tp)
	}
	if id != tr.ID() {
		t.Fatalf("round trip changed the ID: %s != %s", id, tr.ID())
	}
}

// TestTraceparentAdoption: a trace that adopts an inbound ID renders it
// back on the wire — the propagation contract across a hop.
func TestTraceparentAdoption(t *testing.T) {
	up := NewTrace("router")
	down := NewTrace("job")
	before := down.ID()
	id, ok := ParseTraceparent(up.Traceparent())
	if !ok {
		t.Fatal("parse failed")
	}
	down.SetID(id)
	if down.ID() != up.ID() {
		t.Fatalf("adoption failed: %s != %s", down.ID(), up.ID())
	}
	if down.ID() == before {
		t.Fatal("SetID did not replace the minted ID")
	}
	down.SetID(TraceID{}) // zero must be ignored
	if down.ID() != up.ID() {
		t.Fatal("SetID accepted the zero ID")
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00",
		"00-abc-def-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero parent
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // forbidden version
		"00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01", // non-hex
		"0-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // short version
	}
	for _, v := range bad {
		if _, ok := ParseTraceparent(v); ok {
			t.Errorf("ParseTraceparent(%q) accepted malformed input", v)
		}
	}
	// Version tolerance: a future version with trailing fields parses.
	if _, ok := ParseTraceparent("cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"); !ok {
		t.Error("future traceparent version rejected")
	}
}

// TestChromeDocMerge builds the two-process merge the cluster router
// performs: a router doc on pid 1, a replica fragment shifted onto the
// router's clock on pid 2, each lane named via process_name metadata.
func TestChromeDocMerge(t *testing.T) {
	router := fakeClockTrace("router")
	router.RecordSpan("forward", time.Millisecond, 2*time.Millisecond)
	router.Finish()

	replica := fakeClockTrace("job")
	replica.start = time.Unix(0, int64(1500*time.Microsecond)) // 1.5ms after the router
	replica.RecordSpan("queue.wait", 0, 300*time.Microsecond)
	replica.Finish()

	rd := router.ChromeDoc()
	fd := replica.ChromeDoc()
	rs, ok1 := rd.StartUnixUs()
	fs, ok2 := fd.StartUnixUs()
	if !ok1 || !ok2 {
		t.Fatal("missing startUnixUs anchors")
	}
	if fs-rs != 1500 {
		t.Fatalf("anchor delta = %d us, want 1500", fs-rs)
	}
	rd.SetProcess(1, "emirouter")
	fd.SetProcess(2, "r0")
	fd.Shift(float64(fs - rs))
	merged := MergeChromeDocs(rd, fd)

	if got := merged.OtherData["traceId"]; got != router.ID().String() {
		t.Fatalf("merged traceId = %q, want the router's %q", got, router.ID())
	}
	pids := map[int]bool{}
	names := map[string]bool{}
	var shifted *ChromeEvent
	for i, ev := range merged.TraceEvents {
		pids[ev.Pid] = true
		if ev.Ph == "M" && ev.Name == "process_name" {
			names[ev.Args["name"].(string)] = true
		}
		if ev.Name == "queue.wait" {
			shifted = &merged.TraceEvents[i]
		}
	}
	if len(pids) != 2 {
		t.Fatalf("merged doc spans %d pids, want 2", len(pids))
	}
	if !names["emirouter"] || !names["r0"] {
		t.Fatalf("missing process_name lanes: %v", names)
	}
	if shifted == nil {
		t.Fatal("replica span missing from merge")
	}
	if shifted.Ts != 1500 {
		t.Fatalf("replica span ts = %v us after shift, want 1500", shifted.Ts)
	}
	if shifted.Pid != 2 {
		t.Fatalf("replica span pid = %d, want 2", shifted.Pid)
	}
}
