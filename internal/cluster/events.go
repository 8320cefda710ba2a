package cluster

import (
	"net/http"
	"time"

	"repro/internal/obs"
)

// The cluster event timeline: one bounded, ordered stream of the state
// changes an operator asks "what just happened?" about — member health
// transitions, drains, the phases of every session takeover, and
// admission rejections. It is an obs.Log streamed by obs.SSE, like job
// progress and session deltas: a client reconnecting with its last id
// replays what the ring still holds and then follows live.

const (
	// eventRingCap bounds the replay ring. Cluster events are rare
	// (state flips, takeovers), so the ring normally holds hours of
	// history; sustained admission rejections are the one high-rate
	// producer, and losing old ones to the cap is acceptable.
	eventRingCap = 1024

	// eventChanSlack is a subscriber's live buffer beyond its replay
	// backlog; a slower client is dropped and must reconnect.
	eventChanSlack = 64
)

// Event is one entry of the cluster timeline.
type Event struct {
	Seq     uint64    `json:"seq"`
	At      time.Time `json:"at"`
	Type    string    `json:"type"`              // e.g. "member.state", "takeover.seal", "admission.reject"
	Member  string    `json:"member,omitempty"`  // the replica the event is about
	Session string    `json:"session,omitempty"` // set on takeover events
	Detail  string    `json:"detail,omitempty"`  // human-readable specifics
}

// stampEvent writes the timeline number and time into an event. The log
// calls it under its lock, so events published from many goroutines are
// ordered by both.
func stampEvent(ev *Event, seq uint64) {
	ev.Seq = seq
	ev.At = time.Now()
}

// Events returns the retained timeline events with Seq > after —
// the programmatic view of GET /cluster/events (status pages, tests).
func (rt *Router) Events(after uint64) []Event {
	return rt.events.Since(after)
}

// eventsHandler streams the cluster timeline as server-sent events.
// Each event's type is the SSE event name and its sequence number the
// SSE id, so an EventSource reconnection resumes where the stream broke;
// ?after=N does the same for plain clients.
func (rt *Router) eventsHandler(w http.ResponseWriter, r *http.Request) {
	sse, after, ok := obs.NewSSE(w, r)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	ch, cancel := rt.events.Subscribe(after)
	defer cancel()
	sse.Start()
	// The channel closes when the router closes or this client falls
	// behind.
	obs.Follow(r.Context(), ch, func(ev Event) { sse.Event(ev.Type, ev.Seq, ev) })
}
