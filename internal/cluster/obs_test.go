package cluster

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

// ---- trace propagation and request correlation ----------------------

// TestRouterInjectsTraceparentAndRequestID: every submit forward
// carries a W3C traceparent minted by the router (or adopted from the
// caller) plus an X-Request-ID, and the response echoes the same
// request ID so client, router and replica logs correlate.
func TestRouterInjectsTraceparentAndRequestID(t *testing.T) {
	a := newStubReplica(t, "r0")
	rt := testRouter(t, a)
	base := routerServer(t, rt)

	resp, body := post(t, base+"/v1/predict", `{"n":1}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d body %s", resp.StatusCode, body)
	}
	hdr, ok := a.lastSubmitHdr.Load().(http.Header)
	if !ok {
		t.Fatal("stub recorded no submit headers")
	}
	tp := hdr.Get(obs.TraceparentHeader)
	tid, ok := obs.ParseTraceparent(tp)
	if !ok {
		t.Fatalf("forward carried no valid traceparent: %q", tp)
	}
	if tid.IsZero() {
		t.Fatal("forwarded trace ID is zero")
	}
	rid := hdr.Get("X-Request-ID")
	if rid == "" {
		t.Fatal("forward carried no X-Request-ID")
	}
	if got := resp.Header.Get("X-Request-ID"); got != rid {
		t.Fatalf("response request ID %q, forward carried %q", got, rid)
	}

	// A caller-supplied traceparent is adopted, not replaced: the
	// replica must see the caller's trace ID.
	const callerTP = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	req, err := http.NewRequest(http.MethodPost, base+"/v1/predict", strings.NewReader(`{"n":2}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceparentHeader, callerTP)
	req.Header.Set("X-Request-ID", "caller-rid-1")
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	hdr, _ = a.lastSubmitHdr.Load().(http.Header)
	tid2, _ := obs.ParseTraceparent(hdr.Get(obs.TraceparentHeader))
	if tid2.String() != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("forwarded trace ID %s, want the caller's", tid2)
	}
	if got := hdr.Get("X-Request-ID"); got != "caller-rid-1" {
		t.Fatalf("forwarded request ID %q, want the caller's", got)
	}
	if got := r2.Header.Get("X-Request-ID"); got != "caller-rid-1" {
		t.Fatalf("echoed request ID %q, want the caller's", got)
	}
}

// TestClusterTraceMergesProcesses: GET /cluster/trace/{job} returns one
// Chrome trace containing the router's request spans and the owning
// replica's fragment under the same trace ID, one process lane each.
func TestClusterTraceMergesProcesses(t *testing.T) {
	a := newStubReplica(t, "r0")
	b := newStubReplica(t, "r1")
	rt := testRouter(t, a, b)
	base := routerServer(t, rt)

	resp, body := post(t, base+"/v1/predict", `{"n":1}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d body %s", resp.StatusCode, body)
	}
	var view struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &view); err != nil || view.ID == "" {
		t.Fatalf("submit body %s: %v", body, err)
	}

	resp, body = get(t, base+"/cluster/trace/"+view.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster trace status %d body %s", resp.StatusCode, body)
	}
	var doc obs.ChromeDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("cluster trace is not Chrome JSON: %v", err)
	}

	pids := map[int]string{} // pid → process_name
	spansByPid := map[int]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			name, _ := ev.Args["name"].(string)
			pids[ev.Pid] = name
		}
		if ev.Ph == "X" {
			spansByPid[ev.Pid]++
		}
	}
	if len(pids) < 2 {
		t.Fatalf("merged trace has %d process lanes, want >= 2: %v", len(pids), pids)
	}
	names := map[string]bool{}
	for _, n := range pids {
		names[n] = true
	}
	if !names["emirouter"] {
		t.Fatalf("no emirouter lane: %v", pids)
	}
	owner := rt.jobOwnerOf(view.ID)
	if !names[owner] {
		t.Fatalf("no lane for owner %q: %v", owner, pids)
	}
	for pid, name := range pids {
		if spansByPid[pid] == 0 {
			t.Errorf("lane %q (pid %d) has no spans", name, pid)
		}
	}

	// Both processes share one propagated trace ID.
	hdr, _ := a.lastSubmitHdr.Load().(http.Header)
	if hdr == nil {
		hdr, _ = b.lastSubmitHdr.Load().(http.Header)
	}
	tid, _ := obs.ParseTraceparent(hdr.Get(obs.TraceparentHeader))
	if doc.OtherData["traceId"] != tid.String() {
		t.Fatalf("merged traceId %q, forwarded traceparent carried %q",
			doc.OtherData["traceId"], tid)
	}
}

// ---- metrics federation ----------------------------------------------

// TestFederatedMetrics: the router's /metrics re-exports every member's
// series with an injected replica label, dedupes HELP/TYPE headers, and
// reports per-member scrape health.
func TestFederatedMetrics(t *testing.T) {
	a := newStubReplica(t, "r0")
	b := newStubReplica(t, "r1")
	rt := testRouter(t, a, b)
	base := routerServer(t, rt)
	post(t, base+"/v1/predict", `{"n":1}`)

	resp, body := get(t, base+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		`emiserve_cluster_scrape_ok{replica="r0"} 1`,
		`emiserve_cluster_scrape_ok{replica="r1"} 1`,
		`emiserve_jobs_total{replica="r0"}`,
		`emiserve_jobs_total{replica="r1"}`,
		`emiserve_queue_wait_depth{replica="r0",queue="jobs"}`,
		`emiserve_queue_wait_depth{replica="r1",queue="jobs"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("federated metrics missing %q", want)
		}
	}
	// HELP/TYPE of a replica family appears once, not per member.
	if n := strings.Count(text, "# HELP emiserve_jobs_total "); n != 1 {
		t.Errorf("HELP emiserve_jobs_total appears %d times, want 1", n)
	}
	// Series of one family stay contiguous: between the first and last
	// emiserve_jobs_total sample there is no other family's sample.
	lines := strings.Split(text, "\n")
	first, last := -1, -1
	for i, ln := range lines {
		if strings.HasPrefix(ln, "emiserve_jobs_total") {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	for i := first; i >= 0 && i <= last; i++ {
		ln := lines[i]
		if ln == "" || strings.HasPrefix(ln, "#") || strings.HasPrefix(ln, "emiserve_jobs_total") {
			continue
		}
		t.Errorf("family emiserve_jobs_total interleaved with %q", ln)
	}

	// A member that dies shows up as a failed scrape, not a hole.
	b.ts.Close()
	rt.Prober().ProbeNow()
	_, body = get(t, base+"/metrics")
	if !strings.Contains(string(body), `emiserve_cluster_scrape_ok{replica="r1"} 0`) {
		t.Error("dead member not reported as scrape_ok 0")
	}
}

// ---- event timeline --------------------------------------------------

// eventTypes filters the timeline to one session's takeover events.
func eventTypes(evs []Event, session string) []string {
	var out []string
	for _, ev := range evs {
		if ev.Session == session {
			out = append(out, ev.Type)
		}
	}
	return out
}

// TestTakeoverTimelineOrder: a completed takeover emits timeline events
// in the proven handshake order seal → fetch → replay → release,
// bracketed by begin and adopted.
func TestTakeoverTimelineOrder(t *testing.T) {
	a := newStubReplica(t, "r0")
	b := newStubReplica(t, "r1")
	rt := testRouter(t, a, b)
	base := routerServer(t, rt)

	a.putSession("s1", "live")
	rt.mu.Lock()
	rt.sessOwner["s1"] = sessRoute{owner: "r0"}
	rt.mu.Unlock()
	a.ready.Store(false) // owner drains; next request must adopt
	rt.Prober().ProbeNow()

	resp, body := get(t, base+"/v1/sessions/s1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session read after takeover: status %d body %s", resp.StatusCode, body)
	}
	got := eventTypes(rt.Events(0), "s1")
	want := []string{"takeover.begin", "takeover.seal", "takeover.fetch",
		"takeover.replay", "takeover.release", "takeover.adopted"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("timeline %v, want %v", got, want)
	}

	// The probe round that saw r0 drain left a member.state transition.
	var sawState bool
	for _, ev := range rt.Events(0) {
		if ev.Type == "member.state" && ev.Member == "r0" {
			sawState = true
		}
	}
	if !sawState {
		t.Error("no member.state event for the drained owner")
	}
}

// TestTakeoverAbortTimeline: an aborted takeover ends with the unseal
// event (the fence was lifted) followed by takeover.abort, and counts
// as a failed outcome.
func TestTakeoverAbortTimeline(t *testing.T) {
	a := newStubReplica(t, "r0")
	b := newStubReplica(t, "r1")
	b.failTakeover.Store(true)
	rt := testRouter(t, a, b)
	base := routerServer(t, rt)

	a.putSession("s2", "live")
	rt.mu.Lock()
	rt.sessOwner["s2"] = sessRoute{owner: "r0"}
	rt.mu.Unlock()
	a.ready.Store(false)
	rt.Prober().ProbeNow()

	resp, _ := get(t, base+"/v1/sessions/s2")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("aborted takeover: status %d, want 503", resp.StatusCode)
	}
	got := eventTypes(rt.Events(0), "s2")
	want := []string{"takeover.begin", "takeover.seal", "takeover.unseal", "takeover.abort"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("timeline %v, want %v", got, want)
	}
	var buf strings.Builder
	if err := rt.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `emiserve_cluster_takeover_outcomes_total{result="failed"} 1`) {
		t.Error("failed takeover not counted in outcomes")
	}
}

// TestEventsSSEReplay: GET /cluster/events replays the retained ring as
// server-sent events with sequence IDs, honoring ?after=.
func TestEventsSSEReplay(t *testing.T) {
	a := newStubReplica(t, "r0")
	rt := testRouter(t, a)
	base := routerServer(t, rt)

	rt.events.Publish(Event{Type: "member.drain", Member: "r0"})
	rt.events.Publish(Event{Type: "admission.reject", Detail: "test"})
	evs := rt.Events(0)
	if len(evs) < 2 {
		t.Fatalf("timeline holds %d events, want >= 2", len(evs))
	}
	after := evs[len(evs)-2].Seq - 1 // expect the last two

	resp, err := http.Get(base + "/cluster/events?after=" + strconv.FormatUint(after, 10))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var types, ids []string
	for sc.Scan() && (len(types) < 2 || len(ids) < 2) {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			types = append(types, strings.TrimPrefix(line, "event: "))
		}
		if strings.HasPrefix(line, "id: ") {
			ids = append(ids, strings.TrimPrefix(line, "id: "))
		}
	}
	if len(types) < 2 || types[0] != "member.drain" || types[1] != "admission.reject" {
		t.Fatalf("replayed event types %v", types)
	}
	if len(ids) < 2 || ids[0] != strconv.FormatUint(evs[len(evs)-2].Seq, 10) {
		t.Fatalf("replayed ids %v, want first %d", ids, evs[len(evs)-2].Seq)
	}
}
