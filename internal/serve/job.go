package serve

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// Kind names one of the analysis workloads the service runs.
type Kind string

// The endpoints of the paper's flow exposed as job kinds: the three
// one-shot analyses plus the two streaming batch explorations.
const (
	KindPredict Kind = "predict" // netlist → conducted-emission spectrum
	KindPlace   Kind = "place"   // design → placed layout + DRC verdict
	KindCouple  Kind = "couple"  // component pair → coupling-vs-distance curve
	KindExplore Kind = "explore" // project → Pareto front over placements and sweeps
	KindYield   Kind = "yield"   // project → Monte Carlo EMI yield curve
)

// State is a job's lifecycle state.
type State string

// Job lifecycle: queued → running → one of the terminal states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// terminal reports whether a state is final.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job is one queued, running or finished analysis. All mutable fields are
// guarded by mu; the done channel closes exactly once when the job reaches
// a terminal state.
type Job struct {
	ID      string
	Kind    Kind
	Key     engine.Key // content hash of (kind, request body)
	Created time.Time

	req []byte // the submitted request body, handed to the runner

	mu       sync.Mutex
	state    State
	result   json.RawMessage
	errMsg   string
	started  time.Time
	finished time.Time
	deduped  int                // submissions beyond the first that share this job
	pinned   bool               // an async submission owns it: never auto-cancel
	waiters  int                // attached waiting submissions
	canceled bool               // explicit cancellation was requested
	requeue  bool               // drain cancelled it; durable state stays queued
	cancel   context.CancelFunc // live while running
	done     chan struct{}

	trace   *obs.Trace        // per-job span collection; nil for store-answered jobs
	timings []obs.PhaseTiming // aggregated on completion from trace

	// progress is the job's intermediate-result stream (see progress.go).
	// Created with the job and closed with it, so subscribers of jobs
	// that never publish (or never run) still terminate cleanly.
	progress *obs.Log[ProgressEvent]
}

func newJob(id string, kind Kind, key engine.Key, req []byte, now time.Time) *Job {
	return &Job{
		ID: id, Kind: kind, Key: key, Created: now,
		req:      req,
		state:    StateQueued,
		done:     make(chan struct{}),
		progress: obs.NewLog(progressRingCap, progressChanSlack, stampProgress),
	}
}

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job is terminal or ctx is done, returning the
// context's error in the latter case.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Result returns the JSON result and error message of a terminal job.
func (j *Job) Result() (json.RawMessage, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.errMsg
}

// View is the JSON representation of a job for the status endpoint.
type View struct {
	ID       string          `json:"id"`
	Kind     Kind            `json:"kind"`
	State    State           `json:"state"`
	Created  time.Time       `json:"created"`
	Started  *time.Time      `json:"started,omitempty"`
	Finished *time.Time      `json:"finished,omitempty"`
	Deduped  int             `json:"deduped,omitempty"`
	Error    string          `json:"error,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`

	// Timings is the per-phase breakdown aggregated from the job's trace,
	// present once the job has run (store-answered jobs never ran).
	Timings []obs.PhaseTiming `json:"timings,omitempty"`
}

// View snapshots the job for serialization.
func (j *Job) View() View {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := View{
		ID: j.ID, Kind: j.Kind, State: j.state,
		Created: j.Created,
		Deduped: j.deduped,
		Error:   j.errMsg,
		Result:  j.result,
		Timings: j.timings,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}

// hashRequest derives the content key a submission dedups under: the kind
// plus the raw request bytes. Two byte-identical bodies are one
// computation; semantically equal but differently formatted JSON is
// deliberately not canonicalized — a false negative costs one redundant
// solve, never a wrong result.
func hashRequest(kind Kind, body []byte) engine.Key {
	h := engine.NewHasher()
	h.String(string(kind))
	h.Bytes(body)
	return h.Sum()
}
