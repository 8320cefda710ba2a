package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/place"
	"repro/internal/session"
	"repro/internal/workload"
)

// The session surface: long-lived interactive design sessions with
// incremental DRC, undo/redo and an SSE delta stream.
//
//	POST   /v1/sessions               create (from a design or a synthetic workload)
//	GET    /v1/sessions               list live sessions
//	GET    /v1/sessions/{id}          state (?report=1 adds the violations)
//	DELETE /v1/sessions/{id}          close
//	POST   /v1/sessions/{id}/edits    apply one edit, returns the delta
//	POST   /v1/sessions/{id}/undo     revert the latest edit
//	POST   /v1/sessions/{id}/redo     re-apply the latest undone edit
//	GET    /v1/sessions/{id}/events   SSE delta stream (resumable by seq)
//	GET    /v1/sessions/{id}/snapshot current design, ASCII layout format

// SyntheticSpec describes a workload.Synthetic design.
type SyntheticSpec struct {
	N      int     `json:"n"`
	Rules  int     `json:"rules,omitempty"`  // 0: n²/8
	Groups int     `json:"groups,omitempty"` // 0: 3
	WMM    float64 `json:"w_mm,omitempty"`   // board width; 0: 160
	HMM    float64 `json:"h_mm,omitempty"`   // board height; 0: 120
}

func (sp *SyntheticSpec) build() (*layout.Design, error) {
	if sp.N < 2 {
		return nil, fmt.Errorf("sessions: synthetic needs n >= 2")
	}
	if sp.N > 512 {
		return nil, fmt.Errorf("sessions: synthetic n %d too large (max 512)", sp.N)
	}
	rules := sp.Rules
	if rules <= 0 {
		rules = sp.N * sp.N / 8
	}
	groups := sp.Groups
	if groups <= 0 {
		groups = 3
	}
	w, h := sp.WMM, sp.HMM
	if w <= 0 {
		w = 160
	}
	if h <= 0 {
		h = 120
	}
	return workload.Synthetic(sp.N, rules, groups, w*1e-3, h*1e-3), nil
}

// SessionCreateRequest creates a session from an ASCII design or a
// synthetic workload (exactly one must be given). AutoPlace runs the
// automatic placer first, so the session starts from a legal layout.
type SessionCreateRequest struct {
	Design    string         `json:"design,omitempty"`
	Synthetic *SyntheticSpec `json:"synthetic,omitempty"`
	AutoPlace bool           `json:"autoplace,omitempty"`
}

// SessionEditRequest is one edit in board units (millimeters / degrees).
type SessionEditRequest struct {
	Op      string   `json:"op"`                 // move|rotate|swap_board|add_rule|param
	Ref     string   `json:"ref,omitempty"`      // edit target; add_rule first ref
	RefB    string   `json:"ref_b,omitempty"`    // add_rule second ref
	XMM     *float64 `json:"x_mm,omitempty"`     // move
	YMM     *float64 `json:"y_mm,omitempty"`     // move
	RotDeg  *float64 `json:"rot_deg,omitempty"`  // move (optional) / rotate
	Board   *int     `json:"board,omitempty"`    // swap_board
	PEMDMM  *float64 `json:"pemd_mm,omitempty"`  // add_rule
	Param   string   `json:"param,omitempty"`    // param: clearance|edge_clearance
	ValueMM *float64 `json:"value_mm,omitempty"` // param
}

// SessionStateView is the state response, optionally with the violations.
type SessionStateView struct {
	session.State
	Violations []session.Violation `json:"violation_list,omitempty"`
}

func (s *Server) createSessionHandler(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, ErrDraining.Error())
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, "request body too large")
		return
	}
	var req SessionCreateRequest
	if err := strictUnmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	var d *layout.Design
	switch {
	case req.Design != "" && req.Synthetic != nil:
		writeError(w, http.StatusBadRequest, "sessions: give either design or synthetic, not both")
		return
	case req.Design != "":
		d, err = layout.ReadString(req.Design)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	case req.Synthetic != nil:
		d, err = req.Synthetic.build()
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	default:
		writeError(w, http.StatusBadRequest, "sessions: design or synthetic is required")
		return
	}
	if req.AutoPlace {
		if _, err := place.AutoPlaceCtx(r.Context(), d, place.Options{}); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("sessions: autoplace: %v", err))
			return
		}
	}
	var sess *session.Session
	if cid := r.Header.Get(ClusterSessionHeader); cid != "" {
		// A cluster router minted the ID so the session hashes to a
		// stable ring owner; the prefix keeps it out of the local
		// "s%06d" namespace.
		if !strings.HasPrefix(cid, "cs-") {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("sessions: cluster session ID %q must start with cs-", cid))
			return
		}
		sess, err = s.sessions.CreateWithID(cid, d, nil)
	} else {
		sess, err = s.sessions.Create(d, nil)
	}
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	if s.cfg.Store != nil {
		// Open the durable log with the base snapshot before acknowledging
		// the session: a session whose creation was acknowledged survives a
		// restart. If the log cannot be opened the session is not created.
		snap, seq, err := sess.Checkpoint()
		if err == nil {
			err = s.cfg.Store.CreateSession(sess.ID, seq, snap)
		}
		if err != nil {
			s.sessions.Delete(sess.ID)
			writeError(w, http.StatusInternalServerError,
				fmt.Sprintf("sessions: durable log: %v", err))
			return
		}
		s.attachSessionJournal(sess, 0)
	}
	w.Header().Set("X-Session-ID", sess.ID)
	writeJSON(w, http.StatusCreated, sess.State())
}

func (s *Server) listSessionsHandler(w http.ResponseWriter, _ *http.Request) {
	var out []session.State
	for _, sess := range s.sessions.List() {
		out = append(out, sess.State())
	}
	if out == nil {
		out = []session.State{}
	}
	writeJSON(w, http.StatusOK, out)
}

// lookupSession resolves a session for a request, distinguishing "gone"
// from "draining": once Drain closed the sessions, a 404 would tell
// clients their session is dead when it is actually a restart (or a
// cluster takeover) away from living on. 503 + Retry-After invites the
// retry instead. Writes the error response itself when ok is false.
func (s *Server) lookupSession(w http.ResponseWriter, id string) (*session.Session, bool) {
	sess, ok := s.sessions.Get(id)
	if ok {
		// Flag responses served by a migration-sealed copy so the
		// cluster router (and its cold-table locate scan) treats this
		// replica as a handover source, not the live owner.
		if sess.Sealed() {
			w.Header().Set(SessionSealedHeader, "true")
		}
		return sess, true
	}
	if s.Draining() {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, ErrDraining.Error())
		return nil, false
	}
	writeError(w, http.StatusNotFound, "no such session")
	return nil, false
}

func (s *Server) getSessionHandler(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(w, r.PathValue("id"))
	if !ok {
		return
	}
	view := SessionStateView{State: sess.State()}
	if boolParam(r, "report") {
		rep := sess.Report()
		for _, v := range rep.Violations {
			view.Violations = append(view.Violations, session.Violation{
				Kind: string(v.Kind), Refs: v.Refs, Detail: v.Detail, AmountMM: v.Amount * 1e3,
			})
		}
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) deleteSessionHandler(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// A sealed copy is possibly stale — deleting it here would not close
	// the session (the live copy is elsewhere); route the delete there.
	if sess, ok := s.sessions.Get(id); ok && sess.Sealed() {
		w.Header().Set(SessionSealedHeader, "true")
		writeError(w, http.StatusConflict, "session sealed for migration")
		return
	}
	if !s.sessions.Delete(id) {
		if s.Draining() {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, ErrDraining.Error())
			return
		}
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	if s.cfg.Store != nil {
		if err := s.cfg.Store.DeleteSession(id); err != nil {
			s.cfg.Logger.Warn("session log delete", "session", id, "err", err)
		}
		s.dropDurable(id)
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "closed"})
}

func (s *Server) editSessionHandler(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(w, r.PathValue("id"))
	if !ok {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, "request body too large")
		return
	}
	var req SessionEditRequest
	if err := strictUnmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	edit, err := req.toEdit(sess)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	w.Header().Set("X-Session-ID", sess.ID)
	t0 := time.Now()
	delta, err := sess.ApplyCtx(r.Context(), edit)
	if err != nil {
		if errors.Is(err, session.ErrSealed) {
			w.Header().Set(SessionSealedHeader, "true")
			writeError(w, http.StatusConflict, err.Error())
			return
		}
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.observeEdit(time.Since(t0), delta)
	s.maybeCompact(sess)
	writeJSON(w, http.StatusOK, delta)
}

// observeEdit feeds one applied edit (or undo/redo) into the edit counter
// and the phase histograms: the whole edit plus the incremental DRC
// recheck the session timed for us.
func (s *Server) observeEdit(dur time.Duration, delta *session.Delta) {
	s.m.sessionEdits.Add(1)
	s.phases.Observe(dur.Seconds(), "session.edit")
	s.phases.Observe(delta.RecheckDur.Seconds(), "drc.recheck")
}

// toEdit converts the millimeter/degree wire form into the SI edit.
func (req *SessionEditRequest) toEdit(sess *session.Session) (session.Edit, error) {
	e := session.Edit{Op: req.Op, Ref: req.Ref, RefB: req.RefB, Param: req.Param}
	switch req.Op {
	case session.OpMove:
		if req.XMM == nil || req.YMM == nil {
			return e, fmt.Errorf("sessions: move needs x_mm and y_mm")
		}
		e.Center = geom.V2(*req.XMM*1e-3, *req.YMM*1e-3)
		if req.RotDeg != nil {
			e.Rot = geom.Rad(*req.RotDeg)
		} else if c, ok := sess.Component(req.Ref); ok {
			e.Rot = c.Rot
		}
	case session.OpRotate:
		if req.RotDeg == nil {
			return e, fmt.Errorf("sessions: rotate needs rot_deg")
		}
		e.Rot = geom.Rad(*req.RotDeg)
	case session.OpSwapBoard:
		if req.Board == nil {
			return e, fmt.Errorf("sessions: swap_board needs board")
		}
		e.Board = *req.Board
	case session.OpAddRule:
		if req.PEMDMM == nil {
			return e, fmt.Errorf("sessions: add_rule needs pemd_mm")
		}
		e.PEMD = *req.PEMDMM * 1e-3
	case session.OpParam:
		if req.ValueMM == nil {
			return e, fmt.Errorf("sessions: param needs value_mm")
		}
		e.Value = *req.ValueMM * 1e-3
	default:
		return e, fmt.Errorf("sessions: unknown op %q", req.Op)
	}
	return e, nil
}

func (s *Server) undoSessionHandler(w http.ResponseWriter, r *http.Request) {
	s.undoRedo(w, r, true)
}

func (s *Server) redoSessionHandler(w http.ResponseWriter, r *http.Request) {
	s.undoRedo(w, r, false)
}

func (s *Server) undoRedo(w http.ResponseWriter, r *http.Request, undo bool) {
	sess, ok := s.lookupSession(w, r.PathValue("id"))
	if !ok {
		return
	}
	w.Header().Set("X-Session-ID", sess.ID)
	var (
		delta *session.Delta
		err   error
	)
	t0 := time.Now()
	if undo {
		delta, err = sess.UndoCtx(r.Context())
	} else {
		delta, err = sess.RedoCtx(r.Context())
	}
	if err != nil {
		if errors.Is(err, session.ErrSealed) {
			w.Header().Set(SessionSealedHeader, "true")
		}
		writeError(w, http.StatusConflict, err.Error())
		return
	}
	s.observeEdit(time.Since(t0), delta)
	s.maybeCompact(sess)
	writeJSON(w, http.StatusOK, delta)
}

func (s *Server) snapshotSessionHandler(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(w, r.PathValue("id"))
	if !ok {
		return
	}
	snap, err := sess.Snapshot()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(snap)
}

// sessionEventsHandler streams deltas as server-sent events. Each delta is
// one "delta" event whose id is the session sequence number; a client
// reconnecting with its last id (see obs.NewSSE) replays what the bounded
// ring still holds. The stream opens with a "hello" event carrying the
// current state. The channel closes — ending the stream — when the
// session is deleted, the server drains, or the client falls too far
// behind.
func (s *Server) sessionEventsHandler(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(w, r.PathValue("id"))
	if !ok {
		return
	}
	sse, after, ok := obs.NewSSE(w, r)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	ch, cancel := sess.Subscribe(after)
	defer cancel()
	s.m.sseClients.Add(1)
	defer s.m.sseClients.Add(-1)

	sse.Start()
	st := sess.State()
	sse.Event("hello", st.Seq, st)
	obs.Follow(r.Context(), ch, func(d session.Delta) { sse.Event("delta", d.Seq, d) })
}

// Jobs returns views of the retained jobs, sorted by ID (submission
// order), optionally filtered by state and kind and truncated to limit.
func (s *Server) Jobs(filter State, kind Kind, limit int) []View {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].ID < jobs[j].ID })
	out := make([]View, 0, len(jobs))
	for _, j := range jobs {
		v := j.View()
		if filter != "" && v.State != filter {
			continue
		}
		if kind != "" && v.Kind != kind {
			continue
		}
		out = append(out, v)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// listJobsHandler serves GET /v1/jobs?state=queued&type=explore&limit=10
// — the queue visibility operators previously lacked.
func (s *Server) listJobsHandler(w http.ResponseWriter, r *http.Request) {
	filter := State(r.URL.Query().Get("state"))
	switch filter {
	case "", StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown state %q", filter))
		return
	}
	kind := Kind(r.URL.Query().Get("type"))
	if kind != "" {
		if _, ok := s.cfg.Runners[kind]; !ok {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown type %q", kind))
			return
		}
	}
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad limit")
			return
		}
		limit = n
	}
	writeJSON(w, http.StatusOK, s.Jobs(filter, kind, limit))
}
