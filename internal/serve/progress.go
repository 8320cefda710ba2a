package serve

import (
	"context"
	"encoding/json"
	"time"
)

// Job progress streaming: long-running batch jobs (the design-space
// explorer, the Monte Carlo yield analysis) publish intermediate results
// — per-generation Pareto fronts, running yield estimates — while they
// run. Each job owns a bounded obs.Log ring that numbers its events
// 1, 2, …; subscribers (the GET /v1/jobs/{id}/events SSE handler) replay
// what the ring still holds and then follow live. Runners reach their
// job's log through the context via Publish, so the compute code never
// sees the server.

const (
	// progressRingCap bounds the per-job replay ring. An explorer emits
	// one event per generation and a yield run one per batch — dozens,
	// not thousands — so the ring normally holds the whole history.
	progressRingCap = 512

	// progressChanSlack is the live-event buffer of a subscriber beyond
	// its replay backlog; a client that falls further behind is dropped
	// (its channel closes) and must reconnect with ?after=.
	progressChanSlack = 64
)

// ProgressEvent is one intermediate result of a running job.
type ProgressEvent struct {
	Seq   uint64          `json:"seq"`   // 1-based, per job
	Stage string          `json:"stage"` // e.g. "front", "yield"
	Data  json.RawMessage `json:"data"`  // stage-specific payload
	At    time.Time       `json:"at"`
}

// stampProgress writes the number the job's log assigns into the event.
func stampProgress(ev *ProgressEvent, seq uint64) { ev.Seq = seq }

// publisherKey carries a job's publish function through the runner's
// context.
type publisherKey struct{}

func withPublisher(ctx context.Context, fn func(stage string, v any)) context.Context {
	return context.WithValue(ctx, publisherKey{}, fn)
}

// Publish emits an intermediate result from inside a runner: v is JSON-
// marshalled and streamed to the job's event subscribers. Outside a job
// context (unit tests, CLI reuse of the runners) it is a no-op, so
// compute code can publish unconditionally.
func Publish(ctx context.Context, stage string, v any) {
	if fn, ok := ctx.Value(publisherKey{}).(func(string, any)); ok {
		fn(stage, v)
	}
}
