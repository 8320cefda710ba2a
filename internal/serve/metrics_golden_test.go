package serve

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

// The golden /metrics tests pin the replica exposition family by family:
// HELP text, TYPE, label sets and sample values, after a fixed sequence
// of jobs, sessions, streams and (with a Store) a takeover. Family order
// is not pinned; the text format leaves it free.

// canonicalProm rewrites a Prometheus text exposition into an
// order-independent form: families sorted by name, each with its HELP
// and TYPE lines and its samples sorted. Values of the series volatile
// reports true for are replaced by "*"; their names and labels still
// count.
func canonicalProm(text string, volatile func(family, series string) bool) string {
	type family struct{ lines []string }
	fams := map[string]*family{}
	add := func(name, line string) {
		if fams[name] == nil {
			fams[name] = &family{}
		}
		fams[name].lines = append(fams[name].lines, line)
	}
	types := map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) == 4 && fields[1] == "TYPE" {
				types[fields[2]] = fields[3]
			}
			add(fields[2], line) // "# HELP" and "# TYPE" sort first
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		series, value := line[:sp], line[sp+1:]
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if t := strings.TrimSuffix(name, suf); t != name && types[t] == "histogram" {
				base = t
			}
		}
		if volatile(base, name) {
			value = "*"
		}
		add(base, series+" "+value)
	}
	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		sort.Strings(fams[n].lines)
		for _, l := range fams[n].lines {
			b.WriteString(l + "\n")
		}
	}
	return b.String()
}

// replicaVolatile masks what depends on wall time or on other tests: the
// process-global engine counters and the phase histogram's buckets and
// sum (its per-phase counts stay pinned).
func replicaVolatile(family, series string) bool {
	if strings.HasPrefix(family, "engine_") {
		return true
	}
	return family == "emiserve_phase_seconds" && series != "emiserve_phase_seconds_count"
}

// compareGolden checks a canonical exposition against testdata/name.
func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s: first difference at line %d:\n got: %q\nwant: %q\nfull exposition:\n%s", name, i+1, g, w, got)
		}
	}
}

// openStream opens an SSE stream and reads frames until one named until
// arrives. The caller closes the returned response.
func openStream(t *testing.T, url, until string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("stream %s: status %d", url, resp.StatusCode)
	}
	readSSE(t, bufio.NewReader(resp.Body), until, 16)
	return resp
}

// waitFor polls cond until it holds or a few seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// driveReplica runs the fixed golden sequence against one replica and
// returns its /metrics text, scraped while one job and one session
// stream are open and one explore job is still running.
func driveReplica(t *testing.T, st store.Store) string {
	gate := make(chan struct{})
	s, base := httpFixture(t, Config{
		Workers: 1,
		Store:   st,
		Runners: map[Kind]Runner{
			KindPredict: func(ctx context.Context, req []byte) (any, error) {
				return map[string]int{"answer": 42}, nil
			},
			KindPlace: func(ctx context.Context, req []byte) (any, error) {
				return nil, fmt.Errorf("no room")
			},
			KindCouple: func(ctx context.Context, req []byte) (any, error) {
				<-ctx.Done()
				return nil, ctx.Err()
			},
			KindExplore: func(ctx context.Context, req []byte) (any, error) {
				Publish(ctx, "front", map[string]int{"gen": 1})
				select {
				case <-gate:
				case <-ctx.Done():
				}
				return map[string]int{"gens": 1}, nil
			},
		},
	})
	t.Cleanup(func() { close(gate) }) // before the drain registered above
	if st != nil {
		waitFor(t, "requeued job", func() bool { return len(s.Jobs(StateDone, "", 0)) == 1 })
	}

	// Jobs: done, answered from the result store, failed, cancelled while
	// running.
	for _, path := range []string{"/v1/predict?wait=1", "/v1/predict?wait=1", "/v1/place?wait=1"} {
		postJSON(t, base+path, `{"x":1}`)
	}
	_, body := postJSON(t, base+"/v1/couple", `{"x":1}`)
	id := jobID(t, body)
	j, _ := s.Job(id)
	waitFor(t, "couple job running", func() bool { return j.State() == StateRunning })
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	<-j.Done()

	// One explore job held running after its first front, submitted twice
	// (one dedup hit) and followed over its event stream.
	_, body = postJSON(t, base+"/v1/explore", `{"x":1}`)
	id = jobID(t, body)
	postJSON(t, base+"/v1/explore", `{"x":1}`)
	jobStream := openStream(t, base+"/v1/jobs/"+id+"/events", "front")
	defer jobStream.Body.Close()

	// Sessions: two created, three edits applied to one, the other closed.
	st1 := createTestSession(t, base)
	st2 := createTestSession(t, base)
	for _, e := range []struct{ path, body string }{
		{"/edits", `{"op":"param","param":"clearance","value_mm":0.4}`},
		{"/edits", `{"op":"param","param":"clearance","value_mm":0.8}`},
		{"/undo", `{}`},
	} {
		if resp, b := postJSON(t, base+"/v1/sessions/"+st1.ID+e.path, e.body); resp.StatusCode != http.StatusOK {
			t.Fatalf("edit %s: %d %s", e.path, resp.StatusCode, b)
		}
	}
	req, _ = http.NewRequest(http.MethodDelete, base+"/v1/sessions/"+st2.ID, nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	sessStream := openStream(t, base+"/v1/sessions/"+st1.ID+"/events", "hello")
	defer sessStream.Body.Close()

	// With a Store, this replica adopts one session from a peer.
	if st != nil {
		peer := testServer(t, Config{Store: store.NewMemory(), Runners: map[Kind]Runner{}})
		peerTS := httptest.NewServer(peer.Handler())
		t.Cleanup(peerTS.Close)
		ts := peerTS.URL
		const cs = "cs-golden01"
		createClusterSession(t, ts, cs, clusterEdits)
		resp, b := postWithHeader(t, base+"/cluster/sessions/"+cs+"/takeover", fmt.Sprintf(`{"source":%q}`, ts), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("takeover: %d %s", resp.StatusCode, b)
		}
	}

	_, text := getJSON(t, base+"/metrics")
	return string(text)
}

func jobID(t *testing.T, body []byte) string {
	t.Helper()
	i := strings.Index(string(body), `"id":"`)
	if i < 0 {
		t.Fatalf("no job id in %s", body)
	}
	rest := string(body[i+len(`"id":"`):])
	return rest[:strings.IndexByte(rest, '"')]
}

// TestMetricsGoldenEphemeral pins the exposition of a replica without a
// Store: no durability families.
func TestMetricsGoldenEphemeral(t *testing.T) {
	text := driveReplica(t, nil)
	compareGolden(t, "metrics_ephemeral.golden", canonicalProm(text, replicaVolatile))
}

// TestMetricsGoldenDurable pins the exposition of a replica with a Store
// that recovers one queued job and adopts one session.
func TestMetricsGoldenDurable(t *testing.T) {
	st := store.NewMemory()
	if err := st.AppendJob(store.JobRecord{
		ID: "j000001-00000000", Kind: string(KindPredict), State: store.JobQueued,
		Req: []byte(`{"x":0}`), Created: time.Unix(1, 0),
	}); err != nil {
		t.Fatal(err)
	}
	text := driveReplica(t, st)
	compareGolden(t, "metrics_durable.golden", canonicalProm(text, replicaVolatile))
}
