package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// maxBodyBytes bounds request bodies: netlists and designs are text files
// of at most a few hundred kB; anything larger is abuse.
const maxBodyBytes = 8 << 20

// Handler returns the HTTP surface of the server:
//
//	POST   /v1/predict          submit an interference prediction
//	POST   /v1/place            submit an automatic placement
//	POST   /v1/couple           submit a coupling-vs-distance extraction
//	POST   /v1/explore          submit a design-space exploration (streams fronts)
//	POST   /v1/yield            submit a Monte Carlo EMI yield analysis
//	GET    /v1/jobs             list retained jobs (?state=&type=&limit=)
//	GET    /v1/jobs/{id}        job status and result (?wait=1 blocks)
//	GET    /v1/jobs/{id}/events job progress stream, server-sent events
//	DELETE /v1/jobs/{id}        cancel a job
//	GET    /healthz             liveness (always 200 while the process serves)
//	GET    /readyz              readiness (503 while draining or recovering)
//	GET    /metrics             Prometheus text exposition
//	GET    /debug/trace/{job}   job trace, Chrome trace_event JSON
//
// plus the replica half of the cluster session-takeover protocol under
// /cluster (see cluster.go in this package),
//
// plus the interactive design-session surface under /v1/sessions (see
// session.go in this package). Every request passes a structured-logging
// middleware (method, path, status, duration and — when a handler tagged
// one — the job or session ID via the X-Job-ID / X-Session-ID response
// headers).
//
// Submissions return 202 with the job view; ?wait=1 blocks until the job
// finishes and returns 200 with the result inline. A waiting client that
// disconnects releases its interest — when it was the only one, the job
// is cancelled (the client-abort path).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict", s.submitHandler(KindPredict))
	mux.HandleFunc("POST /v1/place", s.submitHandler(KindPlace))
	mux.HandleFunc("POST /v1/couple", s.submitHandler(KindCouple))
	mux.HandleFunc("POST /v1/explore", s.submitHandler(KindExplore))
	mux.HandleFunc("POST /v1/yield", s.submitHandler(KindYield))
	mux.HandleFunc("GET /v1/jobs", s.listJobsHandler)
	mux.HandleFunc("GET /v1/jobs/{id}", s.jobHandler)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.jobEventsHandler)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.cancelHandler)
	mux.HandleFunc("POST /v1/sessions", s.createSessionHandler)
	mux.HandleFunc("GET /v1/sessions", s.listSessionsHandler)
	mux.HandleFunc("GET /v1/sessions/{id}", s.getSessionHandler)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.deleteSessionHandler)
	mux.HandleFunc("POST /v1/sessions/{id}/edits", s.editSessionHandler)
	mux.HandleFunc("POST /v1/sessions/{id}/undo", s.undoSessionHandler)
	mux.HandleFunc("POST /v1/sessions/{id}/redo", s.redoSessionHandler)
	mux.HandleFunc("GET /v1/sessions/{id}/events", s.sessionEventsHandler)
	mux.HandleFunc("GET /v1/sessions/{id}/snapshot", s.snapshotSessionHandler)
	mux.HandleFunc("GET /cluster/sessions/{id}/log", s.sessionLogHandler)
	mux.HandleFunc("POST /cluster/sessions/{id}/seal", s.sealHandler)
	mux.HandleFunc("POST /cluster/sessions/{id}/unseal", s.unsealHandler)
	mux.HandleFunc("POST /cluster/sessions/{id}/takeover", s.takeoverHandler)
	mux.HandleFunc("POST /cluster/sessions/{id}/release", s.releaseHandler)
	mux.HandleFunc("GET /healthz", s.healthHandler)
	mux.HandleFunc("GET /readyz", s.readyHandler)
	mux.HandleFunc("GET /metrics", s.metricsHandler)
	mux.HandleFunc("GET /debug/trace/{job}", s.traceHandler)
	return s.withLogging(mux)
}

// statusWriter captures the response status for the logging middleware.
// It forwards Flush so the SSE stream keeps working behind it.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// RequestIDHeader correlates log lines across processes: the cluster
// router mints one ID per inbound request and forwards it; the replica
// echoes it on the response and tags its request log line with it, so
// `grep <id>` finds both halves of a routed request.
const RequestIDHeader = "X-Request-ID"

// withLogging is the request-logging middleware: one structured line per
// request with method, path, status, duration, the job or session ID
// when the handler tagged the response with one, and the router-minted
// request ID when the request carried one.
func (s *Server) withLogging(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get(RequestIDHeader)
		if rid != "" {
			// Echo before the handler commits the header block.
			w.Header().Set(RequestIDHeader, rid)
		}
		sw := &statusWriter{ResponseWriter: w}
		t0 := time.Now()
		next.ServeHTTP(sw, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		attrs := []any{
			"method", r.Method,
			"path", r.URL.Path,
			"status", status,
			"dur_ms", float64(time.Since(t0)) / 1e6,
		}
		if rid != "" {
			attrs = append(attrs, "request_id", rid)
		}
		if id := sw.Header().Get("X-Job-ID"); id != "" {
			attrs = append(attrs, "job", id)
		}
		if id := sw.Header().Get("X-Session-ID"); id != "" {
			attrs = append(attrs, "session", id)
		}
		s.cfg.Logger.Info("request", attrs...)
	})
}

// traceHandler serves a job's span collection as Chrome trace_event JSON
// (load it in chrome://tracing or Perfetto). Jobs answered straight from
// the result store never ran and have no trace.
func (s *Server) traceHandler(w http.ResponseWriter, r *http.Request) {
	j, err := s.Job(r.PathValue("job"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	w.Header().Set("X-Job-ID", j.ID)
	j.mu.Lock()
	tr := j.trace
	j.mu.Unlock()
	if tr == nil {
		writeError(w, http.StatusNotFound, "serve: job has no trace (answered from the result store)")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = tr.WriteChrome(w)
}

func (s *Server) submitHandler(kind Kind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		if err != nil {
			writeError(w, http.StatusRequestEntityTooLarge, "request body too large")
			return
		}
		wait := boolParam(r, "wait")
		// A router in front of this replica propagates its request trace
		// via traceparent; the job's trace adopts the ID so the two
		// processes' spans merge under one identity (see /cluster/trace).
		tid, _ := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
		j, err := s.submit(kind, body, !wait, tid)
		switch {
		case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, err.Error())
			return
		case err != nil:
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		w.Header().Set("X-Job-ID", j.ID)
		if !wait {
			writeJSON(w, http.StatusAccepted, j.View())
			return
		}
		defer s.Detach(j)
		if err := j.Wait(r.Context()); err != nil {
			// Client gone; Detach may cancel the job. No response possible.
			return
		}
		writeJSON(w, statusOf(j), j.View())
	}
}

func (s *Server) jobHandler(w http.ResponseWriter, r *http.Request) {
	j, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	w.Header().Set("X-Job-ID", j.ID)
	if boolParam(r, "wait") {
		if err := j.Wait(r.Context()); err != nil {
			return // client gone
		}
	}
	writeJSON(w, statusOf(j), j.View())
}

// jobEventsHandler streams a job's intermediate results (per-generation
// Pareto fronts, running yield estimates) as server-sent events. Each
// progress event uses its stage as the SSE event name ("front", "yield")
// and its per-job sequence number as the id; a client reconnecting with
// its last id (see obs.NewSSE) replays what the bounded ring still holds.
// The stream opens with a "hello" event carrying the job view and — when
// the job reaches a terminal state — closes with a "done" event carrying
// the final view (including the result).
func (s *Server) jobEventsHandler(w http.ResponseWriter, r *http.Request) {
	j, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	sse, after, ok := obs.NewSSE(w, r)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	ch, cancel := j.progress.Subscribe(after)
	defer cancel()
	s.m.jobStreams.Add(1)
	defer s.m.jobStreams.Add(-1)

	w.Header().Set("X-Job-ID", j.ID)
	sse.Start()
	last := after
	sse.Event("hello", last, j.View())
	closed := obs.Follow(r.Context(), ch, func(ev ProgressEvent) {
		last = ev.Seq
		sse.Event(ev.Stage, ev.Seq, ev)
	})
	// A closed stream means the job is terminal, or this client fell too
	// far behind (it reconnects with ?after= to resume).
	if closed && j.State().terminal() {
		sse.Event("done", last, j.View())
	}
}

func (s *Server) cancelHandler(w http.ResponseWriter, r *http.Request) {
	acted, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	if !acted {
		writeError(w, http.StatusConflict, "job already finished")
		return
	}
	j, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, j.View())
}

// healthHandler is pure liveness: 200 for as long as the process can
// answer HTTP at all, draining included. Routing decisions belong to
// /readyz — a load balancer that keys on /healthz would take a
// draining replica out of rotation before its in-flight work finished,
// which is exactly what drain is for.
func (s *Server) healthHandler(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if s.Draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      status,
		"workers":     s.cfg.Workers,
		"queue_depth": s.QueueDepth(),
	})
}

// readyHandler is readiness: 200 with the queue headroom while the
// replica accepts new work, 503 + Retry-After while draining. The
// queue_depth/queue_cap pair feeds the cluster router's admission
// control.
func (s *Server) readyHandler(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ready",
		"workers":     s.cfg.Workers,
		"queue_depth": s.QueueDepth(),
		"queue_cap":   s.QueueCap(),
		"sessions":    s.sessions.Len(),
	})
}

func (s *Server) metricsHandler(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.WriteMetrics(w)
}

// statusOf maps a job's state to the HTTP status of its view: pending and
// successful jobs are 200, failures 500, cancellations 499 (the de-facto
// client-closed-request code).
func statusOf(j *Job) int {
	switch j.State() {
	case StateFailed:
		return http.StatusInternalServerError
	case StateCancelled:
		return 499
	default:
		return http.StatusOK
	}
}

func boolParam(r *http.Request, name string) bool {
	v := r.URL.Query().Get(name)
	if v == "" {
		return false
	}
	b, err := strconv.ParseBool(v)
	return err == nil && b
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
