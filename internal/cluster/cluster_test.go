package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// ---- ring ----------------------------------------------------------

// TestRingDeterminism: the same member list yields the same ownership
// for every key, regardless of input order — a restarted router must
// route to the owners its predecessor picked.
func TestRingDeterminism(t *testing.T) {
	a, err := NewRing([]string{"r0", "r1", "r2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]string{"r2", "r0", "r1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("session-%d", i)
		oa, _ := a.Owner(key, nil)
		ob, _ := b.Owner(key, nil)
		if oa != ob {
			t.Fatalf("key %q: owner %q vs %q across member orderings", key, oa, ob)
		}
	}
}

// TestRingSpread: keys distribute over all members without any member
// starving (loose bound — vnode balance, not perfection).
func TestRingSpread(t *testing.T) {
	r, err := NewRing([]string{"r0", "r1", "r2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const n = 3000
	for i := 0; i < n; i++ {
		o, ok := r.Owner(fmt.Sprintf("key-%d", i), nil)
		if !ok {
			t.Fatal("no owner with nil alive predicate")
		}
		counts[o]++
	}
	for _, m := range r.Members() {
		if counts[m] < n/10 {
			t.Fatalf("member %s owns only %d of %d keys: %v", m, counts[m], n, counts)
		}
	}
}

// TestRingFailoverStability: keys owned by live members keep their
// owner when another member dies, and keys of the dead member move to
// its ring successor (Sequence[1]).
func TestRingFailoverStability(t *testing.T) {
	r, err := NewRing([]string{"r0", "r1", "r2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	alive := func(dead string) func(string) bool {
		return func(n string) bool { return n != dead }
	}
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%d", i)
		owner, _ := r.Owner(key, nil)
		seq := r.Sequence(key)
		if seq[0] != owner {
			t.Fatalf("key %q: Sequence[0] = %q, Owner = %q", key, seq[0], owner)
		}
		if len(seq) != 3 {
			t.Fatalf("key %q: sequence %v misses members", key, seq)
		}
		// Kill a non-owner: ownership must not move.
		for _, dead := range r.Members() {
			o2, ok := r.Owner(key, alive(dead))
			if !ok {
				t.Fatalf("key %q: no owner with %s dead", key, dead)
			}
			if dead != owner && o2 != owner {
				t.Fatalf("key %q: owner moved %q → %q when unrelated %s died", key, owner, o2, dead)
			}
			if dead == owner && o2 != seq[1] {
				t.Fatalf("key %q: failover owner %q, want ring successor %q", key, o2, seq[1])
			}
		}
	}
}

func TestRingRejectsBadMembers(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Fatal("empty member list accepted")
	}
	if _, err := NewRing([]string{"a", "a"}, 0); err == nil {
		t.Fatal("duplicate member accepted")
	}
	if _, err := NewRing([]string{""}, 0); err == nil {
		t.Fatal("empty member name accepted")
	}
}

// ---- stub replica ---------------------------------------------------

// stubReplica is a controllable fake emiserve: readiness, queue depth
// and submit behavior are all settable, and it records what it served.
type stubReplica struct {
	name string
	ts   *httptest.Server

	ready      atomic.Bool
	queueDepth atomic.Int64
	queueCap   atomic.Int64
	rejectSub  atomic.Bool // submit answers 503 queue-full

	submits atomic.Int64
	gets    atomic.Int64
	nextJob atomic.Int64

	adoptions      atomic.Int64
	takeoverSource atomic.Value // string: last takeover {"source"}
	failTakeover   atomic.Bool  // takeover answers 502 after seal+unseal
	lastSubmitHdr  atomic.Value // http.Header: last /v1/predict request headers

	mu       sync.Mutex
	jobs     map[string]bool
	sessions map[string]string // id → "live" | "sealed"
}

func (s *stubReplica) putSession(id, state string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sessions == nil {
		s.sessions = map[string]string{}
	}
	s.sessions[id] = state
}

func (s *stubReplica) sessionState(id string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id]
}

func (s *stubReplica) putJob(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jobs == nil {
		s.jobs = map[string]bool{}
	}
	s.jobs[id] = true
}

func (s *stubReplica) hasJob(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func newStubReplica(t *testing.T, name string) *stubReplica {
	t.Helper()
	sr := &stubReplica{name: name}
	sr.ready.Store(true)
	sr.queueCap.Store(8)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if !sr.ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]any{"status": "draining"})
			return
		}
		json.NewEncoder(w).Encode(map[string]any{
			"status":      "ready",
			"queue_depth": sr.queueDepth.Load(),
			"queue_cap":   sr.queueCap.Load(),
		})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("POST /v1/predict", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		sr.lastSubmitHdr.Store(r.Header.Clone())
		sr.submits.Add(1)
		if sr.rejectSub.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"error":"queue full"}`)
			return
		}
		id := fmt.Sprintf("j%06d-%s", sr.nextJob.Add(1), sr.name)
		sr.putJob(id)
		w.Header().Set("X-Job-ID", id)
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"id": id, "state": "queued"})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		sr.gets.Add(1)
		id := r.PathValue("id")
		if !sr.hasJob(id) {
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprintln(w, `{"error":"no such job"}`)
			return
		}
		json.NewEncoder(w).Encode(map[string]string{"id": id, "state": "done"})
	})
	// Session surface, mirroring the replica contract: a sealed copy
	// flags every response with X-Session-Sealed and refuses mutations
	// with 409; takeover installs a live copy and records the source.
	mux.HandleFunc("GET /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		switch sr.sessionState(id) {
		case "live":
			json.NewEncoder(w).Encode(map[string]string{"id": id})
		case "sealed":
			w.Header().Set("X-Session-Sealed", "true")
			json.NewEncoder(w).Encode(map[string]string{"id": id})
		default:
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprintln(w, `{"error":"no such session"}`)
		}
	})
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		id := r.Header.Get(ClusterSessionHeader)
		sr.putSession(id, "live")
		w.WriteHeader(http.StatusCreated)
		json.NewEncoder(w).Encode(map[string]string{"id": id})
	})
	mux.HandleFunc("POST /v1/sessions/{id}/edits", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		id := r.PathValue("id")
		switch sr.sessionState(id) {
		case "live":
			json.NewEncoder(w).Encode(map[string]any{"id": id, "seq": 1})
		case "sealed":
			w.Header().Set("X-Session-Sealed", "true")
			w.WriteHeader(http.StatusConflict)
			fmt.Fprintln(w, `{"error":"sealed for migration"}`)
		default:
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprintln(w, `{"error":"no such session"}`)
		}
	})
	mux.HandleFunc("POST /cluster/sessions/{id}/takeover", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Source string `json:"source"`
		}
		json.NewDecoder(r.Body).Decode(&req)
		sr.takeoverSource.Store(req.Source)
		if sr.failTakeover.Load() {
			// An aborted handshake: the fence was raised and lifted again.
			w.WriteHeader(http.StatusBadGateway)
			json.NewEncoder(w).Encode(map[string]any{
				"error": "source store unreachable",
				"phases": []map[string]any{
					{"phase": "seal", "offset_ms": 0.0, "dur_ms": 1.0},
					{"phase": "unseal", "offset_ms": 2.0, "dur_ms": 0.5},
				},
			})
			return
		}
		sr.adoptions.Add(1)
		sr.putSession(r.PathValue("id"), "live")
		json.NewEncoder(w).Encode(map[string]any{
			"status": "adopted",
			"phases": []map[string]any{
				{"phase": "seal", "offset_ms": 0.0, "dur_ms": 1.0},
				{"phase": "fetch", "offset_ms": 1.0, "dur_ms": 2.0},
				{"phase": "replay", "offset_ms": 3.0, "dur_ms": 4.0},
				{"phase": "release", "offset_ms": 7.0, "dur_ms": 0.5},
			},
		})
	})
	// Observability surface: a minimal Prometheus exposition and a
	// canned per-job Chrome trace fragment that adopts the trace ID the
	// router injected on the submit forward.
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintf(w, "# HELP emiserve_jobs_total Jobs accepted.\n# TYPE emiserve_jobs_total counter\nemiserve_jobs_total %d\n", sr.submits.Load())
		fmt.Fprintf(w, "# HELP emiserve_queue_wait_depth Queue depth by queue.\n# TYPE emiserve_queue_wait_depth gauge\nemiserve_queue_wait_depth{queue=\"jobs\"} %d\n", sr.queueDepth.Load())
	})
	mux.HandleFunc("GET /debug/trace/{id}", func(w http.ResponseWriter, r *http.Request) {
		if !sr.hasJob(r.PathValue("id")) {
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprintln(w, `{"error":"no trace"}`)
			return
		}
		traceID := ""
		if hdr, ok := sr.lastSubmitHdr.Load().(http.Header); ok {
			if tid, ok := obs.ParseTraceparent(hdr.Get(obs.TraceparentHeader)); ok {
				traceID = tid.String()
			}
		}
		doc := obs.ChromeDoc{
			TraceEvents: []obs.ChromeEvent{
				{Name: "queue.wait", Ph: "X", Ts: 0, Dur: 500, Pid: 1, Tid: 1},
				{Name: "job.run", Ph: "X", Ts: 500, Dur: 1500, Pid: 1, Tid: 1},
			},
			DisplayTimeUnit: "ms",
			OtherData: map[string]string{
				"traceId":     traceID,
				"startUnixUs": strconv.FormatInt(time.Now().UnixMicro(), 10),
			},
		}
		json.NewEncoder(w).Encode(doc)
	})
	sr.ts = httptest.NewServer(mux)
	t.Cleanup(sr.ts.Close)
	return sr
}

func (s *stubReplica) member() Member { return Member{Name: s.name, URL: s.ts.URL} }

// testRouter builds an unstarted router over the stubs (tests drive
// probes explicitly with ProbeNow — no background goroutine, no timing
// dependence).
func testRouter(t *testing.T, stubs ...*stubReplica) *Router {
	t.Helper()
	members := make([]Member, len(stubs))
	for i, s := range stubs {
		members[i] = s.member()
	}
	rt, err := New(Config{
		Members:       members,
		ProbeInterval: 50 * time.Millisecond,
		RetryDelay:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rt.Prober().ProbeNow()
	return rt
}

func routerServer(t *testing.T, rt *Router) string {
	t.Helper()
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// ---- admission control ----------------------------------------------

// TestSaturationShedAndRecover is the admission-control acceptance
// test: a cluster whose every replica reports a full queue sheds new
// submissions with 429 + Retry-After (never a queue-timeout failure),
// and accepts again within one probe round after headroom returns.
func TestSaturationShedAndRecover(t *testing.T) {
	a := newStubReplica(t, "r0")
	b := newStubReplica(t, "r1")
	for _, s := range []*stubReplica{a, b} {
		s.queueDepth.Store(8) // depth == cap: saturated
		s.rejectSub.Store(true)
	}
	rt := testRouter(t, a, b)
	base := routerServer(t, rt)

	resp, body := post(t, base+"/v1/predict", `{"n":1}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated cluster: status %d body %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// Load drops: one replica reports headroom again. One probe round
	// later the cluster must accept.
	b.queueDepth.Store(0)
	b.rejectSub.Store(false)
	rt.Prober().ProbeNow()

	resp, body = post(t, base+"/v1/predict", `{"n":2}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("recovered cluster: status %d body %s, want 202", resp.StatusCode, body)
	}
	var view struct {
		ID string `json:"id"`
	}
	if json.Unmarshal(body, &view); view.ID == "" || !strings.Contains(view.ID, "r1") {
		t.Fatalf("job %q not served by the replica with headroom", view.ID)
	}
}

// TestSubmitRetriesAcrossMembers: a dead primary must not fail the
// submission — the forward falls through to the next ring member.
func TestSubmitRetriesAcrossMembers(t *testing.T) {
	a := newStubReplica(t, "r0")
	b := newStubReplica(t, "r1")
	// Kill a AFTER the probe round saw it ready, so the router discovers
	// the death on the forward itself.
	rt := testRouter(t, a, b)
	base := routerServer(t, rt)
	a.ts.Close()

	// Pick a body whose ring primary is the dead member, so the forward
	// must actually fail over (the router keys submissions by content
	// hash over the request path).
	reqBody := ""
	for i := 0; i < 10000; i++ {
		c := fmt.Sprintf(`{"n":%d}`, i)
		key := fmt.Sprintf("/v1/predict:%016x", hashBytes([]byte(c)))
		if rt.ring.Sequence(key)[0] == "r0" {
			reqBody = c
			break
		}
	}
	if reqBody == "" {
		t.Fatal("no test body hashes to r0")
	}

	resp, body := post(t, base+"/v1/predict", reqBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d body %s, want 202 via surviving member", resp.StatusCode, body)
	}
	var view struct {
		ID string `json:"id"`
	}
	if json.Unmarshal(body, &view); !strings.Contains(view.ID, "r1") {
		t.Fatalf("job %q not acked by the survivor", view.ID)
	}
	// The failed forward marked r0 down without waiting for a probe.
	if rt.Prober().Ready("r0") {
		t.Fatal("dead member still marked ready after a failed forward")
	}
}

// TestNoReadyReplicas503: with every member down the router answers 503
// + Retry-After — "come back", not "gone".
func TestNoReadyReplicas503(t *testing.T) {
	a := newStubReplica(t, "r0")
	a.ready.Store(false)
	rt := testRouter(t, a)
	base := routerServer(t, rt)

	resp, body := post(t, base+"/v1/predict", `{"n":1}`)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("status %d body %s Retry-After %q, want 503 with Retry-After",
			resp.StatusCode, body, resp.Header.Get("Retry-After"))
	}
	// Router readiness mirrors the members: no ready replica → 503.
	rresp, _ := get(t, base+"/readyz")
	if rresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("router readyz %d with no ready members, want 503", rresp.StatusCode)
	}
	// Liveness is the router's own: always 200.
	hresp, _ := get(t, base+"/healthz")
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("router healthz %d, want 200", hresp.StatusCode)
	}
}

// ---- job affinity ---------------------------------------------------

// TestJobReadsFollowOwner: reads for a job go to the replica that acked
// it, and a router with a cold routing table locates the owner by
// scanning ready members.
func TestJobReadsFollowOwner(t *testing.T) {
	a := newStubReplica(t, "r0")
	b := newStubReplica(t, "r1")
	rt := testRouter(t, a, b)
	base := routerServer(t, rt)

	resp, body := post(t, base+"/v1/predict", `{"n":7}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var view struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &view); err != nil || view.ID == "" {
		t.Fatalf("submit body %s", body)
	}

	resp, body = get(t, base+"/v1/jobs/"+view.ID)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), view.ID) {
		t.Fatalf("job read status %d body %s", resp.StatusCode, body)
	}

	// A second router (cold tables, same members) finds the job too.
	rt2 := testRouter(t, a, b)
	base2 := routerServer(t, rt2)
	resp, _ = get(t, base2+"/v1/jobs/"+view.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold-table job read status %d, want 200 via locate scan", resp.StatusCode)
	}

	resp, body = get(t, base+"/v1/jobs/j999999-nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status %d body %s", resp.StatusCode, body)
	}
}

// ---- health attribution ---------------------------------------------

// TestMarkDownIgnoresClientCancel: a forward error caused by the
// client's own disconnect (canceled context) must not mark a healthy
// replica Down — that would trigger spurious session takeovers. A
// genuine transport failure still does.
func TestMarkDownIgnoresClientCancel(t *testing.T) {
	a := newStubReplica(t, "r0")
	rt := testRouter(t, a)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	gone := httptest.NewRequest(http.MethodGet, "/v1/jobs/x", nil).WithContext(ctx)
	rt.markDown("r0", gone, fmt.Errorf("forward: %w", context.Canceled))
	if !rt.prober.Ready("r0") {
		t.Fatal("client disconnect marked a healthy replica down")
	}

	// Same verdict when only the error says canceled (the inbound
	// request may already be torn down when the forward returns).
	live := httptest.NewRequest(http.MethodGet, "/v1/jobs/x", nil)
	rt.markDown("r0", live, context.Canceled)
	if !rt.prober.Ready("r0") {
		t.Fatal("canceled forward marked a healthy replica down")
	}

	rt.markDown("r0", live, errors.New("connection refused"))
	if rt.prober.Ready("r0") {
		t.Fatal("genuine transport failure did not mark the replica down")
	}
}

// ---- locate completeness --------------------------------------------

// TestSessionLocate404Vs503: "no such session" is only provable when
// every member answered the locate scan. With a member unreachable the
// same request must answer 503 + Retry-After, not 404 — the silent
// member may hold the session.
func TestSessionLocate404Vs503(t *testing.T) {
	a := newStubReplica(t, "r0")
	b := newStubReplica(t, "r1")
	rt := testRouter(t, a, b)
	base := routerServer(t, rt)

	resp, body := get(t, base+"/v1/sessions/cs-nowhere01")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("all members answered: status %d body %s, want 404", resp.StatusCode, body)
	}

	b.ready.Store(false)
	rt.Prober().ProbeNow()
	resp, body = get(t, base+"/v1/sessions/cs-nowhere01")
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("member silent: status %d body %s Retry-After %q, want 503 with Retry-After",
			resp.StatusCode, body, resp.Header.Get("Retry-After"))
	}
}

// TestJobLocate503WhenMemberSilent: same contract for jobs — an owner
// that is down holds its jobs in its WAL, so an unlocatable job is
// "come back", never "gone", until every member has answered.
func TestJobLocate503WhenMemberSilent(t *testing.T) {
	a := newStubReplica(t, "r0")
	b := newStubReplica(t, "r1")
	rt := testRouter(t, a, b)
	base := routerServer(t, rt)

	b.ready.Store(false)
	rt.Prober().ProbeNow()
	resp, body := get(t, base+"/v1/jobs/j000042-r1")
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("member silent: status %d body %s Retry-After %q, want 503 with Retry-After",
			resp.StatusCode, body, resp.Header.Get("Retry-After"))
	}
}

// ---- sealed-copy recovery -------------------------------------------

// TestSealedOwnerRecovery: when the recorded owner answers with a
// sealed copy (the fossil of an interrupted takeover), the router must
// complete the handover to a fresh owner and retry there — the client
// sees one normal answer, not the fossil's 409.
func TestSealedOwnerRecovery(t *testing.T) {
	a := newStubReplica(t, "r0")
	b := newStubReplica(t, "r1")
	rt := testRouter(t, a, b)
	base := routerServer(t, rt)
	const id = "cs-sealed01"
	a.putSession(id, "sealed")
	rt.mu.Lock()
	rt.sessOwner[id] = sessRoute{owner: "r0"}
	rt.mu.Unlock()

	resp, body := post(t, base+"/v1/sessions/"+id+"/edits", `{"op":"param"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("edit against sealed owner: status %d body %s, want 200 after recovery", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Session-Sealed") != "" {
		t.Fatal("recovered response still carries the sealed flag")
	}
	if n := b.adoptions.Load(); n != 1 {
		t.Fatalf("successor ran %d takeovers, want 1", n)
	}
	if src, _ := b.takeoverSource.Load().(string); src != a.ts.URL {
		t.Fatalf("takeover source %q, want the sealed owner %q", src, a.ts.URL)
	}
	rt.mu.Lock()
	owner := rt.sessOwner[id].owner
	rt.mu.Unlock()
	if owner != "r1" {
		t.Fatalf("routing table owner %q after recovery, want r1", owner)
	}
}

// TestColdLocateRecoversSealedFossil: a router with a cold routing
// table (restart) whose locate scan finds only a sealed copy must
// finish the interrupted handover instead of 503ing forever.
func TestColdLocateRecoversSealedFossil(t *testing.T) {
	a := newStubReplica(t, "r0")
	b := newStubReplica(t, "r1")
	rt := testRouter(t, a, b)
	base := routerServer(t, rt)
	const id = "cs-fossil02"
	a.putSession(id, "sealed")

	resp, body := get(t, base+"/v1/sessions/"+id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold locate of sealed fossil: status %d body %s, want 200 via handover", resp.StatusCode, body)
	}
	if n := b.adoptions.Load(); n != 1 {
		t.Fatalf("successor ran %d takeovers, want 1", n)
	}
}

// ---- metrics --------------------------------------------------------

// TestRouterMetricsExposition: the emiserve_cluster_* series are
// present, counted, and documented with # HELP and # TYPE.
func TestRouterMetricsExposition(t *testing.T) {
	a := newStubReplica(t, "r0")
	b := newStubReplica(t, "r1")
	b.ready.Store(false)
	rt := testRouter(t, a, b)
	base := routerServer(t, rt)

	post(t, base+"/v1/predict", `{"n":1}`) // one forward

	resp, body := get(t, base+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		`emiserve_cluster_members{state="ready"} 1`,
		`emiserve_cluster_members{state="notready"} 1`,
		`emiserve_cluster_members{state="down"} 0`,
		"emiserve_cluster_queue_depth",
		"emiserve_cluster_queue_cap",
		"emiserve_cluster_forwards_total 1",
		"emiserve_cluster_retries_total",
		"emiserve_cluster_shed_total",
		"emiserve_cluster_unavailable_total",
		"emiserve_cluster_bad_gateway_total",
		"emiserve_cluster_takeovers_total",
		"emiserve_cluster_sessions_total",
		`emiserve_cluster_probe_rtt_seconds{member="r0"}`,
		`emiserve_cluster_probe_rtt_seconds{member="r1"}`,
		`emiserve_cluster_takeover_outcomes_total{result="adopted"} 0`,
		`emiserve_cluster_takeover_outcomes_total{result="failed"} 0`,
		`emiserve_cluster_admission_rejected_total{reason="saturated"} 0`,
		`emiserve_cluster_admission_rejected_total{reason="no_ready"} 0`,
		`emiserve_cluster_forward_seconds_bucket{route="predict",outcome="ok",le="+Inf"} 1`,
		"emiserve_cluster_takeover_phase_seconds",
		`emiserve_cluster_scrape_ok{replica="r0"}`,
		`emiserve_cluster_scrape_ok{replica="r1"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Every exposed family carries HELP and TYPE (histogram series
	// belong to the family named without the _bucket/_sum/_count
	// suffix).
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fam := line[:strings.IndexAny(line, "{ ")]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			fam = strings.TrimSuffix(fam, suffix)
		}
		if !strings.Contains(text, "# HELP "+fam+" ") {
			t.Errorf("family %s has no HELP line", fam)
		}
		if !strings.Contains(text, "# TYPE "+fam+" ") {
			t.Errorf("family %s has no TYPE line", fam)
		}
	}
}

// ---- plumbing -------------------------------------------------------

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp, b
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp, b
}
