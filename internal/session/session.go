// Package session implements stateful, concurrency-safe EMI design
// sessions: each session owns a private copy of a layout.Design, applies
// edits (move / rotate / swap-board / add-rule / parameter tweak) through
// an undo/redo journal, and after every edit recomputes only the rule
// units the edit invalidated — the dependency-indexed incremental DRC of
// internal/drc plus, when the session was created from a core.Project, a
// delta-aware PEEC coupling tracker that re-extracts only the pairs
// touching the edited component. This is the paper's interactive adviser
// loop ("relevant constraints are controlled simultaneously" while the
// designer drags parts) made a long-lived server-side object.
package session

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/drc"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/rules"
)

// Edit operations.
const (
	OpMove      = "move"
	OpRotate    = "rotate"
	OpSwapBoard = "swap_board"
	OpAddRule   = "add_rule"
	OpParam     = "param"
)

// Parameter names for OpParam.
const (
	ParamClearance     = "clearance"
	ParamEdgeClearance = "edge_clearance"
)

// Edit is one design change. All geometry is SI (meters, radians); the
// HTTP and CLI layers convert from millimeters/degrees.
type Edit struct {
	Op     string
	Ref    string    // move/rotate/swap_board target; add_rule first ref
	RefB   string    // add_rule second ref
	Center geom.Vec2 // move
	Rot    float64   // move/rotate
	Board  int       // swap_board target board
	PEMD   float64   // add_rule distance, meters
	Param  string    // param name
	Value  float64   // param value, meters
}

// Violation is the wire form of a drc.Violation (millimeters).
type Violation struct {
	Kind     string   `json:"kind"`
	Refs     []string `json:"refs"`
	Detail   string   `json:"detail"`
	AmountMM float64  `json:"amount_mm,omitempty"`
}

// CouplingChange reports one re-extracted PEEC coupling factor.
type CouplingChange struct {
	RefA  string  `json:"ref_a"`
	RefB  string  `json:"ref_b"`
	K     float64 `json:"k"`
	PrevK float64 `json:"prev_k"`
}

// Delta is the observable result of one edit (or undo/redo): the
// violation diff, the resulting design status, the incremental work done
// versus what a from-scratch check would have cost, and any re-extracted
// couplings. Deltas are what the SSE stream pushes.
type Delta struct {
	Seq              uint64           `json:"seq"`
	Op               string           `json:"op"`
	Ref              string           `json:"ref,omitempty"`
	Added            []Violation      `json:"added,omitempty"`
	Resolved         []Violation      `json:"resolved,omitempty"`
	Updated          []Violation      `json:"updated,omitempty"`
	Violations       int              `json:"violations"`
	Green            bool             `json:"green"`
	WorstEMDMarginMM *float64         `json:"worst_emd_margin_mm,omitempty"`
	ChecksEvaluated  int              `json:"checks_evaluated"`
	ChecksFull       int              `json:"checks_full"`
	Couplings        []CouplingChange `json:"couplings,omitempty"`

	// RecheckDur is the wall time of the incremental DRC recheck; it is
	// measured on every edit (traced or not) so the serving layer can feed
	// its phase histograms, but it is not part of the wire format.
	RecheckDur time.Duration `json:"-"`
}

// State is a snapshot of the session's status.
type State struct {
	ID               string   `json:"id"`
	Seq              uint64   `json:"seq"`
	Green            bool     `json:"green"`
	Violations       int      `json:"violations"`
	Checks           int      `json:"checks"`
	CanUndo          bool     `json:"can_undo"`
	CanRedo          bool     `json:"can_redo"`
	WorstEMDMarginMM *float64 `json:"worst_emd_margin_mm,omitempty"`
	Couplings        int      `json:"couplings"`
}

// Journal record ops: the three mutations a durable log must replay.
const (
	JournalApply = "apply"
	JournalUndo  = "undo"
	JournalRedo  = "redo"
)

// JournalRecord is the durable form of one acknowledged mutation: the
// operation, the sequence number of the resulting delta, and (for
// applies) the edit itself. Undo and redo need no payload — the journal
// has exact inverses, so replaying the ops in order reconstructs the
// session byte-for-byte.
type JournalRecord struct {
	Op   string
	Seq  uint64
	Edit Edit // JournalApply only
}

// JournalFunc persists one record. It is called with the session lock
// held, before the mutation is acknowledged: a non-nil error aborts the
// mutation (the design is rolled back) and is returned to the caller, so
// an acknowledged edit is always durable.
type JournalFunc func(JournalRecord) error

// ErrSealed rejects mutations on a session fenced for migration: a
// cluster takeover seals the source before fetching its journal, so no
// edit can be acknowledged after the fetch and then lost to the release.
// Detect with errors.Is.
var ErrSealed = errors.New("sealed for migration")

// applied is one journal entry: the forward edit plus everything needed
// to invert it.
type applied struct {
	edit      Edit
	prevComp  layout.Component // move/rotate/swap_board
	hadRule   bool             // add_rule: a rule for the pair existed
	prevRule  rules.Rule       // add_rule: the replaced rule
	prevParam float64          // param: the previous value
}

// Session owns one design under interactive editing. All methods are safe
// for concurrent use; edits serialize behind the session lock.
type Session struct {
	ID string

	mu      sync.Mutex
	d       *layout.Design
	idx     *drc.Index
	inc     *drc.Incremental
	coup    *couplingTracker
	seq     uint64
	journal []applied
	redo    []applied
	persist JournalFunc // nil: no durability

	// events is the delta stream: every applied delta, replayable by its
	// seq. Closing it closes the session.
	events *obs.Log[Delta]
	sealed bool
}

// ringCap bounds the delta replay ring; reconnecting clients can resume
// from at most this many deltas back.
const ringCap = 256

// subChanCap is each subscriber's live buffer; a consumer this far
// behind a burst of edits is dropped and must reconnect.
const subChanCap = 64

// New creates a session owning a deep copy of the design.
func New(id string, d *layout.Design) *Session {
	own := d.Clone()
	idx := drc.NewIndex(own)
	return &Session{
		ID:     id,
		d:      own,
		idx:    idx,
		inc:    drc.NewIncremental(idx),
		events: obs.NewLog[Delta](ringCap, subChanCap, nil),
	}
}

// NewWithProject creates a session from a core.Project: the design is
// deep-copied and a coupling tracker maintains the PEEC coupling factors
// of the project's mapped pairs across edits.
func NewWithProject(id string, p *core.Project) (*Session, error) {
	s := New(id, p.Design)
	coup, err := newCouplingTracker(p, s.d)
	if err != nil {
		return nil, err
	}
	s.coup = coup
	return s, nil
}

// Seq returns the sequence number of the last applied delta.
func (s *Session) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// State returns the current session status.
func (s *Session) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := State{
		ID:         s.ID,
		Seq:        s.seq,
		Violations: s.inc.ViolationCount(),
		Checks:     s.inc.FullChecks(),
		CanUndo:    len(s.journal) > 0,
		CanRedo:    len(s.redo) > 0,
	}
	st.Green = st.Violations == 0
	if m, ok := s.inc.WorstEMDMargin(); ok {
		mm := m * 1e3
		st.WorstEMDMarginMM = &mm
	}
	if s.coup != nil {
		st.Couplings = len(s.coup.k)
	}
	return st
}

// Report assembles the full DRC report of the current design state from
// the incremental caches (byte-identical to drc.Check on the design).
func (s *Session) Report() *drc.Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inc.Report()
}

// Component returns a copy of a component's current state.
func (s *Session) Component(ref string) (layout.Component, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.d.Find(ref)
	if c == nil {
		return layout.Component{}, false
	}
	return *c, true
}

// DesignSnapshot returns a deep copy of the current design.
func (s *Session) DesignSnapshot() *layout.Design {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.d.Clone()
}

// Couplings returns a copy of the tracked coupling factors (nil when the
// session has no project).
func (s *Session) Couplings() map[[2]string]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.coup == nil {
		return nil
	}
	out := make(map[[2]string]float64, len(s.coup.k))
	for k, v := range s.coup.k {
		out[k] = v
	}
	return out
}

// Snapshot serialises the current design to the ASCII layout format. The
// journal is not part of a snapshot: a restored session starts with an
// empty history.
func (s *Session) Snapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var buf bytes.Buffer
	if err := layout.Write(&buf, s.d); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// SetJournal installs the durability hook called before every mutation
// is acknowledged (see JournalFunc). A nil fn disables journaling; the
// recovery path replays first and installs the hook after, so replayed
// records are not re-appended.
func (s *Session) SetJournal(fn JournalFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.persist = fn
}

// Seal fences the session for migration: every later Apply/Undo/Redo
// fails with ErrSealed. Seal acquires the session lock — the same lock
// every mutation journals under — so by the time it returns, any
// in-flight mutation has either fully journaled and been acknowledged
// (it is in the WAL an adopter fetches next) or has not started (it
// will be rejected). Reads keep working. Idempotent.
func (s *Session) Seal() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sealed = true
}

// Unseal lifts the migration fence — the abort path of a takeover that
// sealed the source and then failed before adopting.
func (s *Session) Unseal() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sealed = false
}

// Sealed reports whether the session is fenced for migration.
func (s *Session) Sealed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sealed
}

// RestoreSeq fast-forwards the delta sequence counter to seq — the base
// sequence of the snapshot a recovered session was rebuilt from, so
// sequence numbers (and SSE event IDs) keep growing across a restart.
// The counter only moves forward.
func (s *Session) RestoreSeq(seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq > s.seq {
		s.seq = seq
	}
}

// Checkpoint atomically serialises the current design, returns it with
// the current sequence number, and drops the undo/redo history. It is
// the WAL compaction barrier: the durable log is about to replace the
// journal prefix with this snapshot, and a snapshot restores with an
// empty history, so the live session must agree that edits before the
// barrier can no longer be undone.
func (s *Session) Checkpoint() ([]byte, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var buf bytes.Buffer
	if err := layout.Write(&buf, s.d); err != nil {
		return nil, 0, err
	}
	s.journal = nil
	s.redo = nil
	return buf.Bytes(), s.seq, nil
}

// Apply validates and applies one edit, recomputes the invalidated rule
// units and couplings, journals the inverse, and broadcasts the delta.
func (s *Session) Apply(e Edit) (*Delta, error) {
	return s.ApplyCtx(context.Background(), e)
}

// ApplyCtx is Apply with tracing: on a traced context a "session.edit"
// span wraps the whole edit and child spans cover the DRC recheck and any
// coupling re-extraction.
func (s *Session) ApplyCtx(ctx context.Context, e Edit) (*Delta, error) {
	ctx, sp := obs.Start(ctx, "session.edit")
	sp.Str("op", e.Op)
	sp.Str("ref", e.Ref)
	defer sp.End()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.events.Closed() {
		return nil, fmt.Errorf("session: %s is closed", s.ID)
	}
	if s.sealed {
		return nil, fmt.Errorf("session: %s: %w", s.ID, ErrSealed)
	}
	rec, err := s.forward(e)
	if err != nil {
		return nil, err
	}
	if s.persist != nil {
		if err := s.persist(JournalRecord{Op: JournalApply, Seq: s.seq + 1, Edit: rec.edit}); err != nil {
			// The edit cannot be made durable: roll it back so the
			// in-memory state never runs ahead of the log.
			s.invert(rec)
			return nil, fmt.Errorf("session: journal: %w", err)
		}
	}
	s.journal = append(s.journal, rec)
	s.redo = nil
	return s.settle(ctx, e.Op, rec.edit)
}

// Undo reverts the most recent edit.
func (s *Session) Undo() (*Delta, error) {
	return s.UndoCtx(context.Background())
}

// UndoCtx is Undo with tracing (see ApplyCtx).
func (s *Session) UndoCtx(ctx context.Context) (*Delta, error) {
	ctx, sp := obs.Start(ctx, "session.edit")
	sp.Str("op", "undo")
	defer sp.End()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.events.Closed() {
		return nil, fmt.Errorf("session: %s is closed", s.ID)
	}
	if s.sealed {
		return nil, fmt.Errorf("session: %s: %w", s.ID, ErrSealed)
	}
	if len(s.journal) == 0 {
		return nil, fmt.Errorf("session: nothing to undo")
	}
	if s.persist != nil {
		// Nothing is mutated yet, so a journal failure simply rejects.
		if err := s.persist(JournalRecord{Op: JournalUndo, Seq: s.seq + 1}); err != nil {
			return nil, fmt.Errorf("session: journal: %w", err)
		}
	}
	rec := s.journal[len(s.journal)-1]
	s.journal = s.journal[:len(s.journal)-1]
	s.invert(rec)
	s.redo = append(s.redo, rec)
	return s.settle(ctx, "undo", rec.edit)
}

// Redo re-applies the most recently undone edit.
func (s *Session) Redo() (*Delta, error) {
	return s.RedoCtx(context.Background())
}

// RedoCtx is Redo with tracing (see ApplyCtx).
func (s *Session) RedoCtx(ctx context.Context) (*Delta, error) {
	ctx, sp := obs.Start(ctx, "session.edit")
	sp.Str("op", "redo")
	defer sp.End()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.events.Closed() {
		return nil, fmt.Errorf("session: %s is closed", s.ID)
	}
	if s.sealed {
		return nil, fmt.Errorf("session: %s: %w", s.ID, ErrSealed)
	}
	if len(s.redo) == 0 {
		return nil, fmt.Errorf("session: nothing to redo")
	}
	if s.persist != nil {
		if err := s.persist(JournalRecord{Op: JournalRedo, Seq: s.seq + 1}); err != nil {
			return nil, fmt.Errorf("session: journal: %w", err)
		}
	}
	rec := s.redo[len(s.redo)-1]
	s.redo = s.redo[:len(s.redo)-1]
	// Re-applying the stored edit cannot fail: it was valid before.
	rec2, err := s.forward(rec.edit)
	if err != nil {
		return nil, err
	}
	s.journal = append(s.journal, rec2)
	return s.settle(ctx, "redo", rec.edit)
}

// forward validates an edit, captures its inverse and mutates the design.
// The caller holds the lock.
func (s *Session) forward(e Edit) (applied, error) {
	rec := applied{edit: e}
	switch e.Op {
	case OpMove, OpRotate, OpSwapBoard:
		c := s.d.Find(e.Ref)
		if c == nil {
			return rec, fmt.Errorf("session: unknown component %q", e.Ref)
		}
		if c.Preplaced {
			return rec, fmt.Errorf("session: %q is preplaced and cannot move", e.Ref)
		}
		rec.prevComp = *c
		switch e.Op {
		case OpMove:
			c.Center, c.Rot, c.Placed = e.Center, e.Rot, true
		case OpRotate:
			if !c.Placed {
				return rec, fmt.Errorf("session: cannot rotate unplaced %q", e.Ref)
			}
			c.Rot = e.Rot
		case OpSwapBoard:
			if !c.Placed {
				return rec, fmt.Errorf("session: cannot swap unplaced %q", e.Ref)
			}
			if e.Board < 0 || e.Board >= s.d.Boards {
				return rec, fmt.Errorf("session: board %d out of range (design has %d)", e.Board, s.d.Boards)
			}
			c.Board = e.Board
		}
	case OpAddRule:
		if s.d.Find(e.Ref) == nil || s.d.Find(e.RefB) == nil {
			return rec, fmt.Errorf("session: rule references unknown component (%q, %q)", e.Ref, e.RefB)
		}
		if e.Ref == e.RefB {
			return rec, fmt.Errorf("session: rule needs two distinct components")
		}
		if e.PEMD < 0 {
			return rec, fmt.Errorf("session: negative PEMD")
		}
		if s.d.Rules == nil {
			s.d.Rules = rules.NewSet(nil)
		}
		if pemd, ok := s.d.Rules.Lookup(e.Ref, e.RefB); ok {
			rec.hadRule = true
			rec.prevRule = rules.Rule{RefA: e.Ref, RefB: e.RefB, PEMD: pemd}
		}
		s.d.Rules.Add(rules.Rule{RefA: e.Ref, RefB: e.RefB, PEMD: e.PEMD})
	case OpParam:
		switch e.Param {
		case ParamClearance:
			rec.prevParam = s.d.Clearance
			s.d.Clearance = e.Value
		case ParamEdgeClearance:
			rec.prevParam = s.d.EdgeClearance
			s.d.EdgeClearance = e.Value
		default:
			return rec, fmt.Errorf("session: unknown parameter %q", e.Param)
		}
		if e.Value < 0 {
			// Restore before failing so validation errors are side-effect free.
			if e.Param == ParamClearance {
				s.d.Clearance = rec.prevParam
			} else {
				s.d.EdgeClearance = rec.prevParam
			}
			return rec, fmt.Errorf("session: negative %s", e.Param)
		}
	default:
		return rec, fmt.Errorf("session: unknown op %q", e.Op)
	}
	return rec, nil
}

// invert restores the state captured in a journal entry. The caller holds
// the lock.
func (s *Session) invert(rec applied) {
	switch rec.edit.Op {
	case OpMove, OpRotate, OpSwapBoard:
		if c := s.d.Find(rec.edit.Ref); c != nil {
			*c = rec.prevComp
		}
	case OpAddRule:
		if rec.hadRule {
			s.d.Rules.Add(rec.prevRule)
		} else {
			s.d.Rules.Remove(rec.edit.Ref, rec.edit.RefB)
		}
	case OpParam:
		if rec.edit.Param == ParamClearance {
			s.d.Clearance = rec.prevParam
		} else {
			s.d.EdgeClearance = rec.prevParam
		}
	}
}

// scopeOf translates an edit into the DRC invalidation scope.
func scopeOf(e Edit) drc.Scope {
	switch e.Op {
	case OpMove, OpRotate, OpSwapBoard:
		return drc.Scope{Refs: []string{e.Ref}}
	case OpAddRule:
		return drc.Scope{RulesChanged: true}
	case OpParam:
		if e.Param == ParamClearance {
			return drc.Scope{AllClearance: true}
		}
		return drc.Scope{AllContainment: true}
	}
	return drc.Scope{}
}

// settle runs the incremental recheck and coupling update for an edit
// whose design mutation already happened, assembles the delta, journals
// it in the replay ring and fans it out. The caller holds the lock.
func (s *Session) settle(ctx context.Context, op string, e Edit) (*Delta, error) {
	_, rsp := obs.Start(ctx, "drc.recheck")
	t0 := time.Now()
	dd := s.inc.Recheck(scopeOf(e))
	recheckDur := time.Since(t0)
	rsp.Int("evals", int64(dd.Evals))
	rsp.End()
	s.seq++
	out := &Delta{
		Seq:             s.seq,
		Op:              op,
		Ref:             e.Ref,
		Added:           toWire(dd.Added),
		Resolved:        toWire(dd.Resolved),
		Updated:         toWire(dd.Updated),
		Violations:      s.inc.ViolationCount(),
		ChecksEvaluated: dd.Evals,
		ChecksFull:      s.inc.FullChecks(),
		RecheckDur:      recheckDur,
	}
	out.Green = out.Violations == 0
	if m, ok := s.inc.WorstEMDMargin(); ok {
		mm := m * 1e3
		out.WorstEMDMarginMM = &mm
	}
	if s.coup != nil {
		switch e.Op {
		case OpMove, OpRotate, OpSwapBoard:
			_, csp := obs.Start(ctx, "peec.recouple")
			changes, err := s.coup.recompute([]string{e.Ref})
			csp.Int("pairs", int64(len(changes)))
			csp.End()
			if err != nil {
				return nil, fmt.Errorf("session: coupling update: %w", err)
			}
			out.Couplings = changes
		}
	}
	s.events.PublishSeq(out.Seq, *out)
	return out, nil
}

// Subscribe registers for deltas with Seq > afterSeq. Deltas still in the
// replay ring are delivered first. The returned cancel function must be
// called when done; the channel is closed on cancel, session close, or
// when the subscriber falls too far behind (it reconnects with its last
// seq to resume).
func (s *Session) Subscribe(afterSeq uint64) (<-chan Delta, func()) {
	return s.events.Subscribe(afterSeq)
}

// Close terminates the session: all subscriber channels are closed and
// further edits are rejected. An edit in flight finishes and publishes
// its delta first.
func (s *Session) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events.Close()
}

func toWire(vs []drc.Violation) []Violation {
	if len(vs) == 0 {
		return nil
	}
	out := make([]Violation, len(vs))
	for i, v := range vs {
		out[i] = Violation{
			Kind:     string(v.Kind),
			Refs:     append([]string(nil), v.Refs...),
			Detail:   v.Detail,
			AmountMM: v.Amount * 1e3,
		}
	}
	return out
}
