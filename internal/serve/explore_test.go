package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// sseEvent is one parsed frame of a text/event-stream response.
type sseEvent struct {
	name string
	id   string
	data string
}

// readSSE parses frames from the stream until the given event name arrives
// or the limit is hit.
func readSSE(t *testing.T, r *bufio.Reader, until string, limit int) []sseEvent {
	t.Helper()
	var events []sseEvent
	cur := sseEvent{}
	for len(events) < limit {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("SSE stream ended early (%v) after %d events", err, len(events))
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.name != "" {
				events = append(events, cur)
				if cur.name == until {
					return events
				}
			}
			cur = sseEvent{}
		}
	}
	t.Fatalf("event %q not seen within %d frames", until, limit)
	return nil
}

// TestHTTPJobEvents streams a job's progress over SSE: hello first, one
// frame per published stage with the sequence as the event id, and a final
// done frame carrying the terminal view.
func TestHTTPJobEvents(t *testing.T) {
	release := make(chan struct{})
	_, base := httpFixture(t, Config{
		Workers: 1,
		Runners: map[Kind]Runner{
			KindPredict: func(ctx context.Context, req []byte) (any, error) {
				for i := 1; i <= 3; i++ {
					Publish(ctx, "front", map[string]int{"gen": i})
				}
				<-release
				return "done", nil
			},
		},
	})
	_, body := postJSON(t, base+"/v1/predict", `{"x":1}`)
	var v View
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(base + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/event-stream") {
		t.Fatalf("content type %q", ct)
	}
	r := bufio.NewReader(resp.Body)
	got := readSSE(t, r, "front", 10)
	if got[0].name != "hello" {
		t.Fatalf("first event %q, want hello", got[0].name)
	}
	if !strings.Contains(got[len(got)-1].data, `"gen"`) {
		t.Fatalf("front payload %q", got[len(got)-1].data)
	}
	// The job is still running: unblock it and expect the remaining fronts
	// then the done frame with the final view.
	close(release)
	rest := readSSE(t, r, "done", 10)
	last := rest[len(rest)-1]
	var final View
	if err := json.Unmarshal([]byte(last.data), &final); err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("done frame state %s", final.State)
	}

	// Reconnect with Last-Event-ID: only events after the cursor replay.
	req, _ := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+v.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", "2")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	events := readSSE(t, bufio.NewReader(resp2.Body), "done", 10)
	for _, ev := range events {
		if ev.name == "front" {
			seq, _ := strconv.Atoi(ev.id)
			if seq <= 2 {
				t.Fatalf("cursor ignored: replayed seq %d", seq)
			}
		}
	}

	// Unknown jobs 404.
	resp3, err := http.Get(base + "/v1/jobs/nope/events")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job events status %d", resp3.StatusCode)
	}
}

// TestHTTPJobsTypeFilter: GET /v1/jobs?type= restricts the listing to one
// job kind and composes with the state filter.
func TestHTTPJobsTypeFilter(t *testing.T) {
	_, base := httpFixture(t, Config{
		Workers: 1,
		Runners: map[Kind]Runner{
			KindPredict: func(ctx context.Context, req []byte) (any, error) { return "p", nil },
			KindCouple:  func(ctx context.Context, req []byte) (any, error) { return "c", nil },
		},
	})
	postJSON(t, base+"/v1/predict?wait=1", `{"a":1}`)
	postJSON(t, base+"/v1/predict?wait=1", `{"a":2}`)
	postJSON(t, base+"/v1/couple?wait=1", `{"b":1}`)

	list := func(q string) []View {
		resp, body := getJSON(t, base+"/v1/jobs"+q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("list %q status %d body %s", q, resp.StatusCode, body)
		}
		var out []View
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	if got := list(""); len(got) != 3 {
		t.Fatalf("unfiltered list has %d jobs, want 3", len(got))
	}
	preds := list("?type=predict")
	if len(preds) != 2 {
		t.Fatalf("type=predict returned %d jobs, want 2", len(preds))
	}
	for _, v := range preds {
		if v.Kind != KindPredict {
			t.Fatalf("type filter leaked kind %s", v.Kind)
		}
	}
	if got := list("?type=couple&state=done"); len(got) != 1 || got[0].Kind != KindCouple {
		t.Fatalf("combined filter returned %+v", got)
	}
	if got := list("?type=couple&state=failed"); len(got) != 0 {
		t.Fatalf("done couple job listed under state=failed: %+v", got)
	}

	resp, _ := getJSON(t, base+"/v1/jobs?type=nope")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown type status %d, want 400", resp.StatusCode)
	}
}

// TestHTTPExploreEndToEnd submits a tiny tournament on the builtin buck
// project, watches the SSE stream for an intermediate front, and checks
// the final response invariants.
func TestHTTPExploreEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("placement tournaments in -short mode")
	}
	_, base := httpFixture(t, Config{Workers: 2})
	req := `{"project":{"builtin":"buck"},"objectives":["area","net"],` +
		`"population":4,"generations":2,"seed":11}`

	_, body := postJSON(t, base+"/v1/explore", req)
	var v View
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(base + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readSSE(t, bufio.NewReader(resp.Body), "done", 64)
	fronts := 0
	for _, ev := range events {
		if ev.name == "front" {
			fronts++
		}
	}
	if fronts < 1 {
		t.Fatalf("no intermediate front on the event stream (%d events)", len(events))
	}

	var final View
	if err := json.Unmarshal([]byte(events[len(events)-1].data), &final); err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("explore job ended %s: %s", final.State, final.Error)
	}
	var res ExploreResponse
	if err := json.Unmarshal(final.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	if res.Generations != 3 || res.Evaluations != 4+2*4 {
		t.Fatalf("generations/evaluations = %d/%d", res.Generations, res.Evaluations)
	}
	for _, c := range res.Front {
		for _, name := range res.Objectives {
			if _, ok := c.Objectives[name]; !ok {
				t.Fatalf("front member missing objective %q: %+v", name, c)
			}
		}
	}
	// At least the first feasible member carries a realized layout.
	if !strings.Contains(res.Front[0].Design, " AT ") {
		t.Fatalf("front[0] has no placed design:\n%s", res.Front[0].Design)
	}

	// Oversize requests are rejected before queueing.
	resp2, body2 := postJSON(t, base+"/v1/explore?wait=1",
		`{"project":{"builtin":"buck"},"population":1000}`)
	if resp2.StatusCode != http.StatusInternalServerError ||
		!strings.Contains(string(body2), "population") {
		t.Fatalf("oversize population: %d %s", resp2.StatusCode, body2)
	}
}

// TestHTTPYieldEndToEnd submits a small Monte-Carlo run against the
// builtin buck project with autoplacement.
func TestHTTPYieldEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("EMI solves in -short mode")
	}
	_, base := httpFixture(t, Config{Workers: 2})
	req := `{"project":{"builtin":"buck"},"samples":6,"batch":3,"seed":17,` +
		`"max_freq":2e6,"autoplace":true}`
	resp, body := postJSON(t, base+"/v1/yield?wait=1", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("yield status %d body %s", resp.StatusCode, body)
	}
	var v View
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	var res YieldResponse
	if err := json.Unmarshal(v.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Samples != 6 || res.Batches != 2 {
		t.Fatalf("samples/batches = %d/%d, want 6/2", res.Samples, res.Batches)
	}
	if res.Yield < 0 || res.Yield > 1 || res.CILo > res.Yield || res.CIHi < res.Yield {
		t.Fatalf("yield %v CI [%v, %v]", res.Yield, res.CILo, res.CIHi)
	}
	if res.Perturbed == 0 {
		t.Fatal("no perturbed elements")
	}
	if len(res.FreqsHz) == 0 || len(res.BinPass) != len(res.FreqsHz) {
		t.Fatalf("%d freqs, %d bin passes", len(res.FreqsHz), len(res.BinPass))
	}
	if res.MarginP05DB > res.MarginP50DB || res.MarginP50DB > res.MarginP95DB {
		t.Fatalf("margin percentiles out of order: %v %v %v",
			res.MarginP05DB, res.MarginP50DB, res.MarginP95DB)
	}
}
