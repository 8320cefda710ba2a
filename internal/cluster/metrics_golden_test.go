package cluster

import (
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// canonicalProm rewrites a Prometheus text exposition into an
// order-independent form: families sorted by name, each with its HELP
// and TYPE lines and its samples sorted. Values of the series volatile
// reports true for are replaced by "*"; their names and labels still
// count. (internal/serve pins the replica exposition the same way.)
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

// TestRouterMetricsGolden pins the router's /metrics family by family —
// its own series and the federated replica series — after a fixed
// sequence of forwards, a session, a completed and an aborted takeover,
// a shed submission and one with no ready replica. Family order is not
// pinned; the text format leaves it free.
func TestRouterMetricsGolden(t *testing.T) {
	a := newStubReplica(t, "r0")
	b := newStubReplica(t, "r1")
	rt := testRouter(t, a, b)
	base := routerServer(t, rt)
	probe := func(aReady, bReady bool, depth int64) {
		a.ready.Store(aReady)
		b.ready.Store(bReady)
		a.queueDepth.Store(depth)
		b.queueDepth.Store(depth)
		rt.Prober().ProbeNow()
	}

	for _, body := range []string{`{"n":1}`, `{"n":2}`, `{"n":3}`} {
		if resp, out := post(t, base+"/v1/predict", body); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("predict: %d %s", resp.StatusCode, out)
		}
	}
	if resp, out := post(t, base+"/v1/sessions", `{}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create session: %d %s", resp.StatusCode, out)
	}

	// A completed takeover, then an aborted one: r0 owns both sessions
	// and stops being ready, so r1 must adopt.
	for _, s := range []struct {
		id   string
		fail bool
		want int
	}{{"s1", false, http.StatusOK}, {"s2", true, http.StatusServiceUnavailable}} {
		a.putSession(s.id, "live")
		rt.mu.Lock()
		rt.sessOwner[s.id] = sessRoute{owner: "r0"}
		rt.mu.Unlock()
		b.failTakeover.Store(s.fail)
		probe(false, true, 0)
		if resp, out := get(t, base+"/v1/sessions/"+s.id); resp.StatusCode != s.want {
			t.Fatalf("session %s after takeover: %d %s, want %d", s.id, resp.StatusCode, out, s.want)
		}
		probe(true, true, 0)
	}

	// Admission: every member saturated, then none ready.
	probe(true, true, 8)
	if resp, _ := post(t, base+"/v1/predict", `{"n":4}`); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated: %d, want 429", resp.StatusCode)
	}
	probe(false, false, 0)
	if resp, _ := post(t, base+"/v1/predict", `{"n":5}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("no ready member: %d, want 503", resp.StatusCode)
	}
	probe(true, false, 0)

	_, text := get(t, base+"/metrics")
	got := canonicalProm(string(text), func(family, series string) bool {
		switch family {
		case "emiserve_cluster_probe_rtt_seconds":
			return true
		case "emiserve_cluster_forward_seconds":
			return series != "emiserve_cluster_forward_seconds_count"
		}
		return false
	})
	want, err := os.ReadFile(filepath.Join("testdata", "router_metrics.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("router exposition differs from testdata/router_metrics.golden:\n got:\n%s\nwant:\n%s", got, want)
	}
}
