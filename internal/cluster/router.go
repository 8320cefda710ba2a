package cluster

import (
	"bytes"
	"context"
	cryptorand "crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// maxBodyBytes mirrors the replicas' request-body bound.
const maxBodyBytes = 8 << 20

// Config parameterizes a Router.
type Config struct {
	// Members is the static replica list. At least one is required.
	Members []Member
	// Vnodes per member on the hash ring; 0 = DefaultVnodes.
	Vnodes int
	// ProbeInterval between health rounds; 0 = 500ms. It doubles as the
	// Retry-After the router advertises on 429/503, since that is when
	// its routing view refreshes.
	ProbeInterval time.Duration
	// Retries bounds forward attempts per job submission (the first
	// attempt included); 0 = 3. Session mutations are never retried —
	// a session lives on exactly one member.
	Retries int
	// RetryDelay is the backoff base between submit attempts, jittered
	// to ±50% and doubled per attempt; 0 = 25ms.
	RetryDelay time.Duration
	// JobRouteCap bounds the job → owner table; 0 = 65536. Overflow
	// evicts the oldest route; a request for an evicted job falls back
	// to asking every ready member.
	JobRouteCap int
	// Client issues the forwards. nil builds one without a global
	// timeout (forwards carry SSE streams and ?wait=1 blocks; the
	// request context is the deadline).
	Client *http.Client
	// Logger receives request and takeover logs; nil discards.
	Logger *slog.Logger
	// RunTrace, when set, receives one summary span per handled request
	// (the emirouter -trace flag wires it) — a Chrome trace of the
	// router's whole run.
	RunTrace *obs.Trace
}

type sessRoute struct {
	owner string
}

// Router is the cluster entry point: one HTTP handler that owns the
// ring, the prober and the routing tables.
type Router struct {
	cfg    Config
	ring   *Ring
	prober *Prober
	client *http.Client
	log    *slog.Logger

	mu        sync.Mutex
	jobOwner  map[string]string
	jobFIFO   []string
	sessOwner map[string]sessRoute
	sessLocks map[string]*sync.Mutex
	jobTrace  map[string]*obs.Trace // request traces by acknowledged job ID
	traceFIFO []string

	events  *obs.Log[Event]
	fwd     *obs.HistogramVec // forward latency by route and outcome
	tkPhase *obs.HistogramVec // takeover phase durations, from adopter responses

	m   metrics
	reg *obs.Registry // the router's own /metrics families
}

// New builds a router; Start launches its prober.
func New(cfg Config) (*Router, error) {
	names := make([]string, 0, len(cfg.Members))
	for _, m := range cfg.Members {
		if m.URL == "" {
			return nil, fmt.Errorf("cluster: member %q has no URL", m.Name)
		}
		names = append(names, m.Name)
	}
	ring, err := NewRing(names, cfg.Vnodes)
	if err != nil {
		return nil, err
	}
	if cfg.Retries <= 0 {
		cfg.Retries = 3
	}
	if cfg.RetryDelay <= 0 {
		cfg.RetryDelay = 25 * time.Millisecond
	}
	if cfg.JobRouteCap <= 0 {
		cfg.JobRouteCap = 65536
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	rt := &Router{
		cfg:       cfg,
		ring:      ring,
		prober:    NewProber(cfg.Members, cfg.ProbeInterval, nil),
		client:    client,
		log:       cfg.Logger,
		jobOwner:  map[string]string{},
		sessOwner: map[string]sessRoute{},
		sessLocks: map[string]*sync.Mutex{},
		jobTrace:  map[string]*obs.Trace{},
		events:    obs.NewLog(eventRingCap, eventChanSlack, stampEvent),
		fwd: obs.NewHistogramVec("emiserve_cluster_forward_seconds",
			"Forward latency by route and outcome.",
			[]string{"route", "outcome"}, obs.LatencySeconds),
		tkPhase: obs.NewHistogramVec("emiserve_cluster_takeover_phase_seconds",
			"Session takeover phase durations, as reported by the adopter.",
			[]string{"phase"}, obs.LatencySeconds),
	}
	rt.reg = rt.newRegistry()
	// Health transitions feed the cluster event timeline — probe rounds
	// and forward-failure feedback alike.
	rt.prober.SetObserver(rt.onHealthChange)
	return rt, nil
}

// onHealthChange turns a member-health update into timeline events:
// one per state transition, plus a drain marker the first time a
// replica reports itself draining.
func (rt *Router) onHealthChange(prev, cur MemberHealth) {
	if prev.State != cur.State {
		detail := fmt.Sprintf("%s→%s", prev.State, cur.State)
		if cur.State != StateReady && cur.Err != "" {
			detail += ": " + cur.Err
		}
		rt.events.Publish(Event{Type: "member.state", Member: cur.Name, Detail: detail})
	}
	if cur.Status == "draining" && prev.Status != "draining" {
		rt.events.Publish(Event{Type: "member.drain", Member: cur.Name,
			Detail: "replica reports draining"})
	}
}

// Start launches the health prober (one synchronous round first, so the
// router can route immediately).
func (rt *Router) Start() { rt.prober.ProbeNow(); rt.prober.Start() }

// Close stops the prober and ends live event subscriptions.
func (rt *Router) Close() {
	rt.prober.Stop()
	rt.events.Close()
}

// Prober exposes the health view (tests, status pages).
func (rt *Router) Prober() *Prober { return rt.prober }

// Handler returns the router's HTTP surface — the same API the replicas
// serve, plus the router's own /healthz, /readyz and /metrics.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, kind := range []string{"predict", "place", "couple", "explore", "yield"} {
		mux.HandleFunc("POST /v1/"+kind, rt.submitHandler)
	}
	mux.HandleFunc("GET /v1/jobs", rt.fanoutListHandler)
	mux.HandleFunc("GET /v1/jobs/{id}", rt.jobHandler(false))
	mux.HandleFunc("GET /v1/jobs/{id}/events", rt.jobHandler(false))
	mux.HandleFunc("DELETE /v1/jobs/{id}", rt.jobHandler(true))
	mux.HandleFunc("GET /debug/trace/{id}", rt.jobHandler(false))
	mux.HandleFunc("POST /v1/sessions", rt.createSessionHandler)
	mux.HandleFunc("GET /v1/sessions", rt.fanoutListHandler)
	mux.HandleFunc("GET /v1/sessions/{id}", rt.sessionHandler(false))
	mux.HandleFunc("DELETE /v1/sessions/{id}", rt.sessionHandler(true))
	mux.HandleFunc("POST /v1/sessions/{id}/edits", rt.sessionHandler(true))
	mux.HandleFunc("POST /v1/sessions/{id}/undo", rt.sessionHandler(true))
	mux.HandleFunc("POST /v1/sessions/{id}/redo", rt.sessionHandler(true))
	mux.HandleFunc("GET /v1/sessions/{id}/events", rt.sessionHandler(false))
	mux.HandleFunc("GET /v1/sessions/{id}/snapshot", rt.sessionHandler(false))
	mux.HandleFunc("GET /cluster/trace/{id}", rt.clusterTraceHandler)
	mux.HandleFunc("GET /cluster/events", rt.eventsHandler)
	mux.HandleFunc("GET /healthz", rt.healthHandler)
	mux.HandleFunc("GET /readyz", rt.readyHandler)
	mux.HandleFunc("GET /metrics", rt.metricsHandler)
	return rt.withRequest(mux)
}

// requestIDHeader carries the per-request correlation ID (kept in sync
// with internal/serve's RequestIDHeader — the packages are deliberately
// import-independent).
const requestIDHeader = "X-Request-ID"

// mintRequestID returns a fresh correlation ID for a request that
// arrived without one.
func mintRequestID() string {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("cluster: crypto/rand: %v", err))
	}
	return fmt.Sprintf("%x", b[:])
}

// statusRecorder captures the status a handler wrote; Flush passes
// through so relayed SSE streams stay live.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Flush() {
	if fl, ok := sr.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// withRequest is the router's outermost middleware: it mints (or
// adopts) the X-Request-ID, echoes it on the response, stamps it onto
// the inbound headers so every forward carries it — replica request
// logs echo the same ID, correlating router and replica log lines —
// and emits one request log line (plus a -trace run-trace span) when
// the handler finishes.
func (rt *Router) withRequest(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get(requestIDHeader)
		if rid == "" {
			rid = mintRequestID()
			r.Header.Set(requestIDHeader, rid)
		}
		w.Header().Set(requestIDHeader, rid)
		sr := &statusRecorder{ResponseWriter: w}
		t0 := time.Now()
		next.ServeHTTP(sr, r)
		status := sr.status
		if status == 0 {
			status = http.StatusOK
		}
		dur := time.Since(t0)
		rt.log.Info("request",
			"method", r.Method, "path", r.URL.Path,
			"status", status, "dur_ms", float64(dur)/1e6,
			"request_id", rid)
		if run := rt.cfg.RunTrace; run != nil {
			run.RecordSpan("http "+r.Method, t0.Sub(run.Start()), dur,
				obs.Attr{Key: "path", Val: r.URL.Path},
				obs.Attr{Key: "status", Val: int64(status)},
				obs.Attr{Key: "request_id", Val: rid})
		}
	})
}

// startRequestTrace mints the per-request root trace, adopting the
// caller's traceparent when one arrived, and attaches it to the
// request context so every forward (roundTrip) injects the header and
// the replica's job/session trace joins the same trace ID.
func (rt *Router) startRequestTrace(r *http.Request) (*obs.Trace, *http.Request) {
	tr := obs.NewTrace("router")
	if tid, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader)); ok {
		tr.SetID(tid)
	}
	tr.Root().Str("path", r.URL.Path).Str("request_id", r.Header.Get(requestIDHeader))
	return tr, r.WithContext(obs.WithTrace(r.Context(), tr))
}

// markDown feeds a forward failure into the prober — unless the error
// is the client's own doing. A client that disconnects (or times out)
// mid-forward cancels the outbound request and surfaces as a transport
// error here; marking a healthy replica Down for that would trigger
// spurious session takeovers for up to a probe interval. Cluster health
// only changes on failures the replica actually caused.
func (rt *Router) markDown(name string, r *http.Request, err error) {
	if errors.Is(err, context.Canceled) || r.Context().Err() != nil {
		return
	}
	rt.prober.MarkDown(name, err)
}

// retryAfter is the seconds the router tells shed clients to wait: one
// probe interval, when its view of the cluster refreshes.
func (rt *Router) retryAfter() string {
	s := int(math.Ceil(rt.prober.Interval().Seconds()))
	if s < 1 {
		s = 1
	}
	return fmt.Sprintf("%d", s)
}

func (rt *Router) healthHandler(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"members": len(rt.cfg.Members),
	})
}

func (rt *Router) readyHandler(w http.ResponseWriter, _ *http.Request) {
	snap := rt.prober.Snapshot()
	states := make(map[string]string, len(snap))
	ready, depth, qcap := 0, 0, 0
	for name, h := range snap {
		states[name] = h.State.String()
		if h.State == StateReady {
			ready++
			depth += h.QueueDepth
			qcap += h.QueueCap
		}
	}
	body := map[string]any{
		"status":      "ready",
		"ready":       ready,
		"members":     states,
		"queue_depth": depth,
		"queue_cap":   qcap,
	}
	if ready == 0 {
		body["status"] = "no ready members"
		w.Header().Set("Retry-After", rt.retryAfter())
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// metricsHandler is the cluster federation endpoint: the router's own
// series first, then every reachable member's series re-emitted with a
// replica="name" label (see federate.go).
func (rt *Router) metricsHandler(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = rt.WriteMetrics(w)
	rt.federate(r.Context(), w)
}

// ---- job submission -------------------------------------------------

// submitHandler routes one job submission by content hash: the same
// body always walks the ring from the same point, so repeated
// identical requests land on the same replica and hit its result-store
// dedup. Transport failures and queue rejections fall through to the
// next ring member with jittered backoff — duplicated compute is
// harmless for jobs (they are idempotent pure functions), unlike for
// session mutations, which are never retried across members.
func (rt *Router) submitHandler(w http.ResponseWriter, r *http.Request) {
	tr, r := rt.startRequestTrace(r)
	defer tr.Finish()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		tr.Root().Str("verdict", "body_too_large")
		writeError(w, http.StatusRequestEntityTooLarge, "request body too large")
		return
	}
	key := fmt.Sprintf("%s:%016x", r.URL.Path, hashBytes(body))
	rctx, rsp := obs.Start(r.Context(), "route")
	rsp.Str("key", key)
	attempts := 0
	sawReady := false
	for _, name := range rt.ring.Sequence(key) {
		if !rt.prober.Ready(name) {
			continue
		}
		sawReady = true
		if !rt.prober.Accepting(name) {
			continue
		}
		if attempts >= rt.cfg.Retries {
			break
		}
		if attempts > 0 {
			rt.m.retries.Add(1)
			_, bsp := obs.Start(rctx, "retry.backoff")
			ok := sleepJitter(r, rt.cfg.RetryDelay, attempts)
			bsp.Int("attempt", int64(attempts)).End()
			if !ok {
				rsp.Str("verdict", "client_gone").End()
				return // client gone
			}
		}
		attempts++
		_, fsp := obs.Start(rctx, "forward")
		fsp.Str("member", name).Int("attempt", int64(attempts))
		resp, err := rt.roundTrip(r, name, body)
		if err != nil {
			fsp.Str("outcome", "error").End()
			rt.markDown(name, r, err)
			rt.log.Warn("submit forward failed", "member", name, "err", err)
			continue
		}
		fsp.Int("status", int64(resp.StatusCode)).End()
		if resp.StatusCode == http.StatusServiceUnavailable {
			// The replica's own admission control rejected the job
			// (queue full or draining): not an error, just no headroom
			// here right now.
			drainClose(resp)
			rt.prober.MarkSaturated(name)
			continue
		}
		if id := resp.Header.Get("X-Job-ID"); id != "" {
			rt.recordJobOwner(id, name)
			rt.recordJobTrace(id, tr)
			tr.Root().Str("job", id)
		}
		rsp.Str("verdict", "forwarded").Str("member", name).End()
		rt.m.forwards.Add(1)
		relay(w, resp)
		return
	}
	w.Header().Set("Retry-After", rt.retryAfter())
	if sawReady {
		rsp.Str("verdict", "saturated").End()
		rt.m.shed.Add(1)
		rt.m.admSaturated.Add(1)
		rt.events.Publish(Event{Type: "admission.reject",
			Detail: r.URL.Path + ": all replicas saturated"})
		writeError(w, http.StatusTooManyRequests, "cluster: all replicas saturated")
		return
	}
	rsp.Str("verdict", "no_ready").End()
	rt.m.unavailable.Add(1)
	rt.m.admNoReady.Add(1)
	rt.events.Publish(Event{Type: "admission.reject",
		Detail: r.URL.Path + ": no ready replicas"})
	writeError(w, http.StatusServiceUnavailable, "cluster: no ready replicas")
}

// sleepJitter waits RetryDelay·2^(attempt-1), jittered to ±50%. False
// means the client disconnected while we waited.
func sleepJitter(r *http.Request, base time.Duration, attempt int) bool {
	d := base << (attempt - 1)
	d = d/2 + time.Duration(rand.Int63n(int64(d))) // [d/2, 3d/2)
	select {
	case <-time.After(d):
		return true
	case <-r.Context().Done():
		return false
	}
}

// ---- job reads ------------------------------------------------------

// jobHandler forwards job reads (status, events, trace) and cancels to
// the replica that acknowledged the submission. mutation selects the
// 502-on-unknown-fate error contract.
func (rt *Router) jobHandler(mutation bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		owner := rt.jobOwnerOf(id)
		if owner == "" {
			var complete bool
			owner, complete = rt.locateJob(r, id)
			if owner == "" {
				if !complete {
					// A member the scan could not ask (down, draining,
					// recovering) may hold the job; "not found" is only
					// provable when every member answered.
					rt.m.unavailable.Add(1)
					w.Header().Set("Retry-After", rt.retryAfter())
					writeError(w, http.StatusServiceUnavailable,
						"cluster: job "+id+" not located; not every replica answered")
					return
				}
				writeError(w, http.StatusNotFound, "cluster: no replica knows job "+id)
				return
			}
			rt.recordJobOwner(id, owner)
		}
		if !rt.prober.Ready(owner) {
			// The owner recovers requeued jobs from its WAL when it
			// returns; tell the client to come back rather than 404ing
			// a job that still exists.
			rt.m.unavailable.Add(1)
			w.Header().Set("Retry-After", rt.retryAfter())
			writeError(w, http.StatusServiceUnavailable,
				fmt.Sprintf("cluster: job owner %s is %s", owner, rt.stateOf(owner)))
			return
		}
		resp, err := rt.roundTrip(r, owner, nil)
		if err != nil {
			rt.markDown(owner, r, err)
			rt.forwardFailure(w, mutation, owner, err)
			return
		}
		rt.m.forwards.Add(1)
		relay(w, resp)
	}
}

// locateJob asks every ready member for the job when the routing table
// has no entry (router restart, evicted route). First non-404 wins.
// complete reports whether every member was asked and answered — only
// then is an empty result proof the job does not exist.
func (rt *Router) locateJob(r *http.Request, id string) (owner string, complete bool) {
	complete = true
	for _, name := range rt.ring.Sequence("job:" + id) {
		if !rt.prober.Ready(name) {
			complete = false
			continue
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet,
			rt.prober.URL(name)+"/v1/jobs/"+id, nil)
		if err != nil {
			complete = false
			continue
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			rt.markDown(name, r, err)
			complete = false
			continue
		}
		code := resp.StatusCode
		drainClose(resp)
		if code != http.StatusNotFound {
			return name, true
		}
	}
	return "", complete
}

func (rt *Router) jobOwnerOf(id string) string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.jobOwner[id]
}

func (rt *Router) recordJobOwner(id, owner string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, ok := rt.jobOwner[id]; !ok {
		rt.jobFIFO = append(rt.jobFIFO, id)
		for len(rt.jobFIFO) > rt.cfg.JobRouteCap {
			delete(rt.jobOwner, rt.jobFIFO[0])
			rt.jobFIFO = rt.jobFIFO[1:]
		}
	}
	rt.jobOwner[id] = owner
}

// ---- sessions -------------------------------------------------------

// ClusterSessionHeader carries the router-minted session ID on create
// forwards; replicas create the session under this ID so that every
// later routing decision hashes to the same ring owner.
const ClusterSessionHeader = "X-Cluster-Session-ID"

// sessionSealedHeader marks a replica response served by a session copy
// that is sealed for migration (kept in sync with internal/serve's
// constant of the same name). A sealed copy is the fossil of an
// interrupted takeover: it refuses mutations and may be stale, so the
// router completes the handover to a fresh owner instead of relaying
// the refusal to the client.
const sessionSealedHeader = "X-Session-Sealed"

// mintSessionID returns a fresh router-scoped session ID. The "cs-"
// prefix keeps it out of the replicas' local "s%06d" namespace.
func mintSessionID() string {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("cluster: crypto/rand: %v", err))
	}
	return fmt.Sprintf("cs-%x", b[:])
}

func (rt *Router) createSessionHandler(w http.ResponseWriter, r *http.Request) {
	tr, r := rt.startRequestTrace(r)
	defer tr.Finish()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, "request body too large")
		return
	}
	id := mintSessionID()
	tr.Root().Str("session", id)
	owner, ok := rt.ring.Owner(id, rt.prober.Ready)
	if !ok {
		rt.m.unavailable.Add(1)
		w.Header().Set("Retry-After", rt.retryAfter())
		writeError(w, http.StatusServiceUnavailable, "cluster: no ready replicas")
		return
	}
	r.Header.Set(ClusterSessionHeader, id)
	resp, err := rt.roundTrip(r, owner, body)
	if err != nil {
		rt.markDown(owner, r, err)
		rt.forwardFailure(w, true, owner, err)
		return
	}
	if resp.StatusCode == http.StatusCreated {
		rt.mu.Lock()
		rt.sessOwner[id] = sessRoute{owner: owner}
		rt.mu.Unlock()
		rt.m.sessions.Add(1)
	}
	rt.m.forwards.Add(1)
	relay(w, resp)
}

// sessionHandler pins every session request to the session's owner,
// running the takeover handshake first when the owner is gone. The
// takeover-before-forward ordering covers reads too: a GET hitting a
// reassigned-but-not-yet-adopted session must wait for the replay, not
// 404 against a replica that never heard of it.
func (rt *Router) sessionHandler(mutation bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		tr, r := rt.startRequestTrace(r)
		defer tr.Finish()
		tr.Root().Str("session", id)
		var body []byte
		if r.Method != http.MethodGet {
			var err error
			body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
			if err != nil {
				writeError(w, http.StatusRequestEntityTooLarge, "request body too large")
				return
			}
		}
		owner, status, msg := rt.ensureSessionOwner(r, id)
		if status != 0 {
			rt.writeRoutingError(w, status, msg)
			return
		}
		resp, err := rt.roundTrip(r, owner, body)
		if err != nil {
			rt.markDown(owner, r, err)
			rt.forwardFailure(w, mutation, owner, err)
			return
		}
		if resp.Header.Get(sessionSealedHeader) != "" {
			// The owner's copy is sealed — an earlier takeover fenced it
			// and was interrupted before the handover finished. Complete
			// the migration to a fresh owner and retry there once.
			drainClose(resp)
			owner, status, msg = rt.recoverSealed(r, id, owner)
			if status != 0 {
				rt.writeRoutingError(w, status, msg)
				return
			}
			resp, err = rt.roundTrip(r, owner, body)
			if err != nil {
				rt.markDown(owner, r, err)
				rt.forwardFailure(w, mutation, owner, err)
				return
			}
		}
		if r.Method == http.MethodDelete && resp.StatusCode == http.StatusOK {
			rt.mu.Lock()
			delete(rt.sessOwner, id)
			rt.mu.Unlock()
		}
		rt.m.forwards.Add(1)
		relay(w, resp)
	}
}

// writeRoutingError answers a request the router could not place,
// counting 503s and attaching Retry-After so clients retry instead of
// giving up on a session that still exists.
func (rt *Router) writeRoutingError(w http.ResponseWriter, status int, msg string) {
	if status == http.StatusServiceUnavailable {
		rt.m.unavailable.Add(1)
		w.Header().Set("Retry-After", rt.retryAfter())
	}
	writeError(w, status, msg)
}

// ensureSessionOwner resolves the member that must serve a session
// request, completing a takeover when the recorded owner is not ready.
// A session only ever moves when the handshake fully succeeds — until
// then requests answer 503 + Retry-After and the session stays put, so
// an owner that merely flapped keeps its sessions with no replay.
func (rt *Router) ensureSessionOwner(r *http.Request, id string) (owner string, status int, msg string) {
	rt.mu.Lock()
	route, known := rt.sessOwner[id]
	rt.mu.Unlock()
	if !known {
		// Router restart or foreign session: find who holds it. "No such
		// session" is only provable when every member answered — a
		// session whose owner is down still exists, it just cannot be
		// served until the owner's journal is reachable again.
		name, sealedAt, complete := rt.locateSession(r, id)
		if name == "" {
			if sealedAt != "" {
				// The only copy located is sealed — the fossil of an
				// interrupted takeover. Finish the handover now and
				// serve from the adopter.
				return rt.recoverSealed(r, id, sealedAt)
			}
			if !complete {
				return "", http.StatusServiceUnavailable,
					"cluster: session " + id + " not located; not every replica answered"
			}
			return "", http.StatusNotFound, "no such session"
		}
		rt.mu.Lock()
		rt.sessOwner[id] = sessRoute{owner: name}
		rt.mu.Unlock()
		route = sessRoute{owner: name}
	}
	if rt.prober.Ready(route.owner) {
		return route.owner, 0, ""
	}

	// Owner gone: serialize the handshake per session so concurrent
	// requests don't race duplicate adoptions.
	lk := rt.sessionLock(id)
	lk.Lock()
	defer lk.Unlock()
	rt.mu.Lock()
	route = rt.sessOwner[id]
	rt.mu.Unlock()
	if rt.prober.Ready(route.owner) {
		return route.owner, 0, ""
	}
	return rt.adoptFrom(r, id, route.owner)
}

// adoptFrom runs the takeover handshake moving a session off oldOwner
// to its ring successor and updates the routing table on success. The
// caller holds the session lock.
func (rt *Router) adoptFrom(r *http.Request, id, oldOwner string) (owner string, status int, msg string) {
	newOwner, ok := rt.ring.Owner(id, func(n string) bool {
		return n != oldOwner && rt.prober.Ready(n)
	})
	if !ok {
		return "", http.StatusServiceUnavailable, "cluster: no ready replica can adopt session " + id
	}
	if err := rt.takeover(r, id, newOwner, oldOwner); err != nil {
		return "", http.StatusServiceUnavailable,
			fmt.Sprintf("cluster: takeover of %s pending: %v", id, err)
	}
	rt.mu.Lock()
	rt.sessOwner[id] = sessRoute{owner: newOwner}
	rt.mu.Unlock()
	rt.m.takeovers.Add(1)
	rt.log.Info("session takeover", "session", id, "from", oldOwner, "to", newOwner)
	return newOwner, 0, ""
}

// recoverSealed finishes the migration of a session whose recorded
// owner answered with a sealed copy (an interrupted earlier takeover).
// The sealed copy keeps refusing mutations, so until a fresh owner
// adopts the journal the session is safe but not live.
func (rt *Router) recoverSealed(r *http.Request, id, sealedOwner string) (owner string, status int, msg string) {
	lk := rt.sessionLock(id)
	lk.Lock()
	defer lk.Unlock()
	rt.mu.Lock()
	route := rt.sessOwner[id]
	rt.mu.Unlock()
	if route.owner != "" && route.owner != sealedOwner && rt.prober.Ready(route.owner) {
		// A concurrent request already completed the handover.
		return route.owner, 0, ""
	}
	return rt.adoptFrom(r, id, sealedOwner)
}

// takeoverPhase mirrors internal/serve's TakeoverPhase: one phase of
// the adoption handshake as timed by the adopter, returned in both
// success and error bodies.
type takeoverPhase struct {
	Phase    string  `json:"phase"`
	OffsetMS float64 `json:"offset_ms"`
	DurMS    float64 `json:"dur_ms"`
}

// recordTakeoverPhases folds the adopter-reported phase timings into
// the router's observability surfaces: the phase-duration histogram,
// the cluster event timeline (takeover.seal, .fetch, .replay, .release
// — and .unseal on an abort), and — when the triggering request carries
// a trace — spans grafted at the adopter's reported offsets, so an
// adoption appears inside the request trace that triggered it.
func (rt *Router) recordTakeoverPhases(tr *obs.Trace, t0 time.Time, member, id string, phases []takeoverPhase) {
	for _, ph := range phases {
		rt.tkPhase.Observe(ph.DurMS/1e3, ph.Phase)
		rt.events.Publish(Event{Type: "takeover." + ph.Phase, Member: member, Session: id,
			Detail: fmt.Sprintf("%.1fms", ph.DurMS)})
		if tr != nil {
			tr.RecordSpan("takeover."+ph.Phase,
				t0.Sub(tr.Start())+time.Duration(ph.OffsetMS*float64(time.Millisecond)),
				time.Duration(ph.DurMS*float64(time.Millisecond)),
				obs.Attr{Key: "member", Val: member})
		}
	}
}

// takeover asks newOwner to adopt the session by fetching and replaying
// its journal from oldOwner's store. It succeeds only when the adopter
// has the full acknowledged log — the source must be reachable (a
// draining or recovering replica serves its store; a killed one does
// not until it restarts). The adopter's phase timings are folded into
// the event timeline, the phase histogram and the request trace.
func (rt *Router) takeover(r *http.Request, id, newOwner, oldOwner string) error {
	tr := obs.TraceOf(r.Context())
	t0 := time.Now()
	rt.events.Publish(Event{Type: "takeover.begin", Member: newOwner, Session: id,
		Detail: "from " + oldOwner})
	reqBody, _ := json.Marshal(map[string]string{"source": rt.prober.URL(oldOwner)})
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
		rt.prober.URL(newOwner)+"/cluster/sessions/"+id+"/takeover",
		bytes.NewReader(reqBody))
	if err != nil {
		rt.m.takeoverFail.Add(1)
		rt.events.Publish(Event{Type: "takeover.abort", Member: newOwner, Session: id,
			Detail: err.Error()})
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if tr != nil {
		req.Header.Set(obs.TraceparentHeader, tr.Traceparent())
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		rt.markDown(newOwner, r, err)
		rt.m.takeoverFail.Add(1)
		rt.events.Publish(Event{Type: "takeover.abort", Member: newOwner, Session: id,
			Detail: err.Error()})
		return err
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var tk struct {
		Error  string          `json:"error"`
		Phases []takeoverPhase `json:"phases"`
	}
	_ = json.Unmarshal(b, &tk)
	rt.recordTakeoverPhases(tr, t0, newOwner, id, tk.Phases)
	if resp.StatusCode != http.StatusOK {
		rt.m.takeoverFail.Add(1)
		msg := tk.Error
		if msg == "" {
			msg = strings.TrimSpace(string(b))
		}
		rt.events.Publish(Event{Type: "takeover.abort", Member: newOwner, Session: id,
			Detail: msg})
		return fmt.Errorf("%s: HTTP %d: %s", newOwner, resp.StatusCode, msg)
	}
	rt.events.Publish(Event{Type: "takeover.adopted", Member: newOwner, Session: id,
		Detail: "from " + oldOwner})
	return nil
}

// locateSession asks ready members whether they hold the session (used
// when the routing table has no entry, e.g. after a router restart).
// Sealed copies are migration fossils, not owners — they are reported
// via sealedAt so the caller can finish the interrupted handover, and a
// live copy always wins over a fossil. complete reports whether every
// member was asked and answered; only then does an empty result prove
// the session does not exist.
func (rt *Router) locateSession(r *http.Request, id string) (owner, sealedAt string, complete bool) {
	complete = true
	for _, name := range rt.ring.Sequence(id) {
		if !rt.prober.Ready(name) {
			complete = false
			continue
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet,
			rt.prober.URL(name)+"/v1/sessions/"+id, nil)
		if err != nil {
			complete = false
			continue
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			rt.markDown(name, r, err)
			complete = false
			continue
		}
		code := resp.StatusCode
		sealed := resp.Header.Get(sessionSealedHeader) != ""
		drainClose(resp)
		if sealed {
			if sealedAt == "" {
				sealedAt = name
			}
			continue
		}
		if code == http.StatusOK {
			return name, "", true
		}
	}
	return "", sealedAt, complete
}

func (rt *Router) sessionLock(id string) *sync.Mutex {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	lk, ok := rt.sessLocks[id]
	if !ok {
		lk = &sync.Mutex{}
		rt.sessLocks[id] = lk
	}
	return lk
}

// ---- fan-out lists --------------------------------------------------

// fanoutListHandler merges a list endpoint (/v1/jobs, /v1/sessions)
// across every ready member. A member that fails mid-round is skipped —
// a partial list beats a failed one for these observability endpoints.
func (rt *Router) fanoutListHandler(w http.ResponseWriter, r *http.Request) {
	merged := []json.RawMessage{}
	for _, h := range rt.sortedMembers() {
		if h.State != StateReady {
			continue
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet,
			h.URL+r.URL.RequestURI(), nil)
		if err != nil {
			continue
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			rt.markDown(h.Name, r, err)
			continue
		}
		if resp.StatusCode == http.StatusOK {
			var part []json.RawMessage
			if derr := json.NewDecoder(resp.Body).Decode(&part); derr == nil {
				merged = append(merged, part...)
			}
		} else if resp.StatusCode == http.StatusBadRequest {
			// Bad query parameters fail identically everywhere; relay
			// the first verdict instead of hiding it in an empty list.
			relay(w, resp)
			return
		}
		drainClose(resp)
	}
	writeJSON(w, http.StatusOK, merged)
}

func (rt *Router) sortedMembers() []MemberHealth {
	snap := rt.prober.Snapshot()
	out := make([]MemberHealth, 0, len(snap))
	for _, name := range rt.ring.Members() {
		out = append(out, snap[name])
	}
	return out
}

func (rt *Router) stateOf(name string) string {
	snap := rt.prober.Snapshot()
	return snap[name].State.String()
}

// ---- forwarding plumbing --------------------------------------------

// roundTrip forwards the inbound request to one member, replaying the
// pre-read body. The caller owns the returned response.
func (rt *Router) roundTrip(r *http.Request, member string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	out, err := http.NewRequestWithContext(r.Context(), r.Method,
		rt.prober.URL(member)+r.URL.RequestURI(), rd)
	if err != nil {
		return nil, err
	}
	copyHeaders(out.Header, r.Header)
	if tr := obs.TraceOf(r.Context()); tr != nil {
		out.Header.Set(obs.TraceparentHeader, tr.Traceparent())
	}
	t0 := time.Now()
	resp, err := rt.client.Do(out)
	rt.fwd.Observe(time.Since(t0).Seconds(), routeOf(r.URL.Path), forwardOutcome(resp, err))
	return resp, err
}

// routeOf buckets a request path into a low-cardinality route label
// for the forward-latency histogram.
func routeOf(path string) string {
	if strings.HasPrefix(path, "/debug/trace/") {
		return "trace"
	}
	rest := strings.TrimPrefix(path, "/v1/")
	if rest == path {
		return "other"
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	switch rest {
	case "predict", "place", "couple", "explore", "yield", "jobs", "sessions":
		return rest
	}
	return "other"
}

// forwardOutcome labels one forward attempt for the latency histogram.
func forwardOutcome(resp *http.Response, err error) string {
	switch {
	case err != nil:
		return "error"
	case resp.StatusCode == http.StatusServiceUnavailable ||
		resp.StatusCode == http.StatusTooManyRequests:
		return "rejected"
	case resp.StatusCode >= 500:
		return "server_error"
	case resp.StatusCode >= 400:
		return "client_error"
	default:
		return "ok"
	}
}

// forwardFailure answers a forward whose transport died. For mutations
// the fate is unknown — the replica may have applied and journaled the
// op before the connection broke — so the answer is 502, which clients
// treat as "resolve my op's fate before retrying" (see internal/soak).
// Reads are side-effect free: 503 + Retry-After invites a plain retry.
func (rt *Router) forwardFailure(w http.ResponseWriter, mutation bool, member string, err error) {
	if mutation {
		rt.m.badGateway.Add(1)
		writeError(w, http.StatusBadGateway,
			fmt.Sprintf("cluster: forward to %s died mid-request: %v", member, err))
		return
	}
	rt.m.unavailable.Add(1)
	w.Header().Set("Retry-After", rt.retryAfter())
	writeError(w, http.StatusServiceUnavailable,
		fmt.Sprintf("cluster: %s unreachable: %v", member, err))
}

// relay streams a member's response to the client, flushing per chunk
// so forwarded SSE streams stay live.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	h := w.Header()
	for k, vv := range resp.Header {
		if hopByHop(k) {
			continue
		}
		for _, v := range vv {
			h.Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	copyFlush(w, resp.Body)
}

func copyFlush(w http.ResponseWriter, src io.Reader) {
	fl, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

func copyHeaders(dst, src http.Header) {
	for k, vv := range src {
		if hopByHop(k) {
			continue
		}
		for _, v := range vv {
			dst.Add(k, v)
		}
	}
}

func hopByHop(k string) bool {
	switch http.CanonicalHeaderKey(k) {
	case "Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
		"Proxy-Connection", "Te", "Trailer", "Transfer-Encoding", "Upgrade":
		return true
	}
	return false
}

func drainClose(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
	resp.Body.Close()
}

func hashBytes(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
