package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/geom"
	"repro/internal/place"
	"repro/internal/serve"
	"repro/internal/session"
	"repro/internal/workload"
)

// The edits workload: an open loop of design-session edits and reads on
// one connection to one durable emiserve, with one SSE subscriber.

// editsSession is the session every edits run creates: the Figure 9
// sized synthetic board, autoplaced. The client mirror rebuilds it.
var editsSession = serve.SessionCreateRequest{
	Synthetic: &serve.SyntheticSpec{N: 29, Rules: 100, Groups: 3},
	AutoPlace: true,
}

// compactEvery mirrors emiserve's default session WAL compaction period:
// a compaction drops the undo history, so the mirror must drop it too.
const compactEvery = 256

// editRate is the open loop's rate in ops per second.
const editRate = 200.0

// maxLateMS bounds the generator's p99 lateness. Its lateness is charged
// to the ops it delays, so beyond this — about a third of the edit p99 on
// a 2-vCPU VM — the edit tail would measure the generator; such a run is
// invalid. On that VM the p99 stays near a microsecond, with rare runs
// around 0.2 ms when the host stalls the generator's thread.
const maxLateMS = 0.5

// sleepSlack is how long before an op's due time the generator stops
// sleeping and spins: a sleep that wakes late would charge its lateness to
// the system. The sleep is a raw nanosleep(2), which on a 2-vCPU Linux VM
// wakes 60–80 µs late at the median and rarely over 300 µs late;
// time.Sleep rounds anything under a millisecond up to about one, so
// pacing with it would need a millisecond of spinning per op, taken from
// the server on a small machine.
const sleepSlack = 400 * time.Microsecond

// waitUntil returns at t: it sleeps until sleepSlack before t and spins
// the rest.
func waitUntil(t time.Time) {
	if d := time.Until(t) - sleepSlack; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}
	for time.Now().Before(t) {
	}
}

// slot is one op of an open loop.
type slot struct {
	due, sent, done time.Time
	late            time.Duration // generator lateness: sent − max(due, previous done)
}

// latency is the op's time from when it was due until it completed.
func (s slot) latency() float64 { return msBetween(s.due, s.done) }

// openLoop sends one op per period, due at start + i·period, until an op
// would fall due at or after end. Ops go out one at a time, as on one
// connection: an op that falls due while the previous one is still in
// flight is sent as soon as that one completes, so a stall is charged,
// from due time, to every op queued behind it. next(i) prepares op i
// before its due time and returns the function that sends it.
func openLoop(ctx context.Context, start, end time.Time, period time.Duration, next func(i int) (send func())) []slot {
	var slots []slot
	var prevDone time.Time
	for i := 0; ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(i) * period)
		if !due.Before(end) {
			break
		}
		send := next(i)
		waitUntil(due)
		s := slot{due: due, sent: time.Now()}
		send()
		s.done = time.Now()
		ready := due
		if prevDone.After(ready) {
			ready = prevDone
		}
		s.late = s.sent.Sub(ready)
		slots = append(slots, s)
		prevDone = s.done
	}
	return slots
}

// editOp is one session op: a mutation (move, rotate, param, undo, redo)
// or a read (state, snapshot).
type editOp struct {
	kind   string
	path   string
	body   []byte
	local  session.Edit // the mirror's copy of a move, rotate or param
	call   call
	traced bool
}

func (op *editOp) mutation() bool { return op.kind != "state" && op.kind != "snapshot" }

// editsMirror is the client-side reference: a session with exactly the
// acknowledged mutations applied, and the movable parts edits pick from.
type editsMirror struct {
	s            *session.Session
	refs         []string
	sinceCompact int
}

// newEditsMirror rebuilds editsSession the way the server builds it.
func newEditsMirror(ctx context.Context) (*editsMirror, error) {
	sp := editsSession.Synthetic
	w, h := 160.0, 120.0 // SyntheticSpec's default board, converted as the server does
	d := workload.Synthetic(sp.N, sp.Rules, sp.Groups, w*1e-3, h*1e-3)
	if _, err := place.AutoPlaceCtx(ctx, d, place.Options{}); err != nil {
		return nil, err
	}
	m := &editsMirror{s: session.New("mirror", d)}
	for _, c := range d.Comps {
		if !c.Preplaced {
			m.refs = append(m.refs, c.Ref)
		}
	}
	return m, nil
}

// editsPlan draws the ops. It tracks only what the choice needs, the
// session's undo and redo depths after each acknowledged mutation, so the
// loop does no design work between ops: the mirror checks the answers
// after the window.
type editsPlan struct {
	refs                     []string
	undo, redo, sinceCompact int
}

// next draws an op: 80 % mutations (moves and rotations, 5 % clearance
// changes, undo and redo only when the session can take them) and 20 %
// reads.
func (p *editsPlan) next(rng *rand.Rand, sid string) editOp {
	base := "/v1/sessions/" + sid
	if rng.Float64() >= 0.8 {
		if rng.Intn(2) == 0 {
			return editOp{kind: "state", path: base + "?report=1"}
		}
		return editOp{kind: "snapshot", path: base + "/snapshot"}
	}
	switch r := rng.Float64(); {
	case r < 0.05:
		mm := float64(1+rng.Intn(4)) / 2
		return edit("param", base, map[string]any{"op": "param", "param": session.ParamClearance, "value_mm": mm},
			session.Edit{Op: session.OpParam, Param: session.ParamClearance, Value: mm * 1e-3})
	case r < 0.12 && p.undo > 0:
		return editOp{kind: "undo", path: base + "/undo"}
	case r < 0.17 && p.redo > 0:
		return editOp{kind: "redo", path: base + "/redo"}
	case r < 0.4:
		ref := p.refs[rng.Intn(len(p.refs))]
		deg := float64(90 * rng.Intn(4))
		return edit("rotate", base, map[string]any{"op": "rotate", "ref": ref, "rot_deg": deg},
			session.Edit{Op: session.OpRotate, Ref: ref, Rot: geom.Rad(deg)})
	}
	ref := p.refs[rng.Intn(len(p.refs))]
	x, y := float64(15+rng.Intn(130)), float64(15+rng.Intn(90))
	deg := float64(90 * rng.Intn(4))
	return edit("move", base, map[string]any{"op": "move", "ref": ref, "x_mm": x, "y_mm": y, "rot_deg": deg},
		session.Edit{Op: session.OpMove, Ref: ref, Center: geom.V2(x*1e-3, y*1e-3), Rot: geom.Rad(deg)})
}

// acked records an acknowledged mutation of the given kind. A compaction
// drops the session's undo history.
func (p *editsPlan) acked(kind string) {
	switch kind {
	case "undo":
		p.undo, p.redo = p.undo-1, p.redo+1
	case "redo":
		p.undo, p.redo = p.undo+1, p.redo-1
	default:
		p.undo, p.redo = p.undo+1, 0
	}
	if p.sinceCompact++; p.sinceCompact >= compactEvery {
		p.undo, p.redo, p.sinceCompact = 0, 0, 0
	}
}

func edit(kind, base string, wire map[string]any, local session.Edit) editOp {
	body, _ := json.Marshal(wire) // a map of strings and numbers always marshals
	return editOp{kind: kind, path: base + "/edits", body: body, local: local}
}

// settle checks an answered op against the mirror and, for an
// acknowledged mutation, applies it. It returns the acknowledged
// sequence number (0 for reads).
func (m *editsMirror) settle(op *editOp) (uint64, error) {
	if !op.call.ok() {
		return 0, fmt.Errorf("%s: status %d: %v %s", op.kind, op.call.status, op.call.err, op.call.body)
	}
	switch op.kind {
	case "state":
		var got serve.SessionStateView
		if err := json.Unmarshal(op.call.body, &got); err != nil {
			return 0, err
		}
		want := m.s.State()
		if got.State.Seq != want.Seq || got.State.Violations != want.Violations || len(got.Violations) != want.Violations {
			return 0, fmt.Errorf("state seq %d with %d violations, mirror seq %d with %d",
				got.State.Seq, got.State.Violations, want.Seq, want.Violations)
		}
		return 0, nil
	case "snapshot":
		want, err := m.s.Snapshot()
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(op.call.body, want) {
			return 0, fmt.Errorf("snapshot differs from the mirror")
		}
		return 0, nil
	}
	var got session.Delta
	if err := json.Unmarshal(op.call.body, &got); err != nil {
		return 0, err
	}
	var want *session.Delta
	var err error
	switch op.kind {
	case "undo":
		want, err = m.s.Undo()
	case "redo":
		want, err = m.s.Redo()
	default:
		want, err = m.s.Apply(op.local)
	}
	if err != nil {
		return 0, fmt.Errorf("%s acknowledged but the mirror rejects it: %w", op.kind, err)
	}
	if m.sinceCompact++; m.sinceCompact >= compactEvery {
		if _, _, err := m.s.Checkpoint(); err != nil {
			return 0, err
		}
		m.sinceCompact = 0
	}
	if got.Seq != want.Seq || got.Violations != want.Violations {
		return 0, fmt.Errorf("%s: delta seq %d with %d violations, mirror seq %d with %d",
			op.kind, got.Seq, got.Violations, want.Seq, want.Violations)
	}
	return got.Seq, nil
}

// sseLog records when each delta sequence number arrived on the session's
// event stream, and how often.
type sseLog struct {
	mu     sync.Mutex
	at     map[uint64]time.Time
	seen   map[uint64]int
	latest uint64
}

// follow reads the session's SSE stream until ctx ends.
func (l *sseLog) follow(ctx context.Context, base, sid string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/sessions/"+sid+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("session events: status %d", resp.StatusCode)
	}
	return readSSE(resp.Body, func(ev sseEvent) bool {
		if ev.name != "delta" {
			return true
		}
		seq, err := strconv.ParseUint(ev.id, 10, 64)
		if err != nil {
			return true
		}
		l.mu.Lock()
		if l.seen[seq] == 0 {
			l.at[seq] = ev.at
		}
		l.seen[seq]++
		l.latest = max(l.latest, seq)
		l.mu.Unlock()
		return true
	})
}

// checkStream requires every acknowledged sequence number to have arrived
// on the event stream exactly once, and nothing else to have arrived.
func checkStream(res *result, acked []uint64, seen map[uint64]int) {
	ackedSet := map[uint64]bool{}
	for _, seq := range acked {
		ackedSet[seq] = true
		if n := seen[seq]; n != 1 {
			res.fail("acknowledged seq %d seen %d times on the event stream", seq, n)
		}
	}
	for seq := range seen {
		if !ackedSet[seq] {
			res.fail("event stream carried seq %d that was never acknowledged", seq)
		}
	}
}

// awaitSeq waits up to timeout for seq to arrive.
func (l *sseLog) awaitSeq(seq uint64, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		l.mu.Lock()
		got := l.latest >= seq
		l.mu.Unlock()
		if got {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// runEdits drives the edits workload.
func runEdits(ctx context.Context, c *config) (*result, error) {
	res := newResult("edits")
	mirror, err := newEditsMirror(ctx)
	if err != nil {
		return nil, err
	}
	createBody, err := json.Marshal(editsSession)
	if err != nil {
		return nil, err
	}
	var sid string
	s, setup, err := setUp(ctx, c, sutSpec{replicas: 1, durable: true}, func(s *sut) error {
		cl := newClient(s.url, 1)
		defer cl.close()
		cr := cl.do(ctx, http.MethodPost, "/v1/sessions", createBody, false)
		var st session.State
		if cr.status != http.StatusCreated || json.Unmarshal(cr.body, &st) != nil {
			return fmt.Errorf("create session: status %d: %v %s", cr.status, cr.err, cr.body)
		}
		sid = st.ID
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer s.stop()
	res.Metrics["setup_s"] = setup

	cl := newClient(s.url, 1)
	defer cl.close()
	snap := cl.do(ctx, http.MethodGet, "/v1/sessions/"+sid+"/snapshot", nil, false)
	if !snap.ok() {
		return nil, fmt.Errorf("initial snapshot: status %d: %v", snap.status, snap.err)
	}
	if want, _ := mirror.s.Snapshot(); !bytes.Equal(snap.body, want) {
		res.fail("the created session differs from the client-side rebuild")
	}

	sse := &sseLog{at: map[uint64]time.Time{}, seen: map[uint64]int{}}
	sctx, stopSSE := context.WithCancel(ctx)
	sseDone := make(chan error, 1)
	go func() { sseDone <- sse.follow(sctx, s.url, sid) }()
	defer func() {
		stopSSE()
		<-sseDone
	}()

	warm := c.seconds / 10
	start := time.Now().Add(50 * time.Millisecond)
	win := newWindows(start.Add(seconds(warm)), c.seconds, c.trace)
	res.Run = map[string]float64{"warmup_s": warm, "measured_s": c.seconds, "rate_per_s": editRate}
	scrapeCl := newClient(s.url, 1)
	defer scrapeCl.close()
	var scrapes []prom
	var scrapeErr error
	scraped := make(chan struct{})
	go func() {
		scrapes, scrapeErr = win.scrapeAt(ctx, scrapeCl)
		close(scraped)
	}()

	rng := rand.New(rand.NewSource(c.seed))
	plan := &editsPlan{refs: mirror.refs}
	var ops []*editOp
	period := seconds(1 / editRate)
	slots := openLoop(ctx, start, win.end, period, func(i int) func() {
		if i > 0 && ops[i-1].mutation() && ops[i-1].call.ok() {
			plan.acked(ops[i-1].kind)
		}
		op := plan.next(rng, sid)
		ops = append(ops, &op)
		method := http.MethodPost
		if !op.mutation() {
			method = http.MethodGet
		}
		return func() {
			op.traced = win.traced(time.Now())
			op.call = cl.do(ctx, method, op.path, op.body, op.traced)
		}
	})
	<-scraped
	if scrapeErr != nil {
		return nil, scrapeErr
	}
	res.Metrics["rss_mb"] = metric{Value: s.rssMB(), Unit: "MiB"}

	// Replay every answer, in order, against the mirror.
	res.Attempted = len(ops)
	var acked []uint64
	ackSeq := map[*editOp]uint64{}
	for _, op := range ops {
		seq, err := mirror.settle(op)
		switch {
		case err != nil:
			res.fail("%v", err)
		case seq > 0:
			acked = append(acked, seq)
			ackSeq[op] = seq
		}
	}
	if len(acked) > 0 {
		sse.awaitSeq(acked[len(acked)-1], 2*time.Second)
	}
	final := cl.do(ctx, http.MethodGet, "/v1/sessions/"+sid+"/snapshot", nil, false)
	if want, _ := mirror.s.Snapshot(); !final.ok() || !bytes.Equal(final.body, want) {
		res.fail("final snapshot differs from the client-side mirror (status %d)", final.status)
	}
	sse.mu.Lock()
	checkStream(res, acked, sse.seen)
	sse.mu.Unlock()

	spans := newSpanLog()
	primary := make([]float64, win.count())
	for w := 0; w < win.count(); w++ {
		var edit, read, deltaLat, late, hol []float64
		var n, delivered, mutations int
		var holSum, latSum float64
		for i, sl := range slots {
			if win.index(sl.due) != w {
				continue
			}
			op := ops[i]
			n++
			late = append(late, float64(sl.late)/float64(time.Millisecond))
			hol = append(hol, msBetween(sl.due, sl.sent))
			holSum += msBetween(sl.due, sl.sent)
			latSum += sl.latency()
			if op.traced {
				spans.addCall("client "+op.kind, 1, op.call)
			}
			if !op.mutation() {
				read = append(read, sl.latency())
				continue
			}
			mutations++
			edit = append(edit, sl.latency())
			seq, ok := ackSeq[op]
			if !ok {
				continue
			}
			sse.mu.Lock()
			at, seen := sse.at[seq]
			sse.mu.Unlock()
			if seen {
				delivered++
				deltaLat = append(deltaLat, msBetween(sl.due, at))
			}
		}
		primary[w] = median(edit)
		if w > 0 {
			continue
		}
		res.Metrics["p50_ms"] = p50Metric(edit, "ms")
		res.Metrics["tail_ms"] = tailMetric(edit, "ms")
		res.Metrics["ops_per_s"] = metric{Value: float64(n) / win.length, Unit: "1/s", Samples: n}
		res.Metrics["edit_p50_ms"] = p50Metric(edit, "ms")
		res.named(c, edit, 99, "edit_p99_ms")
		res.named(c, deltaLat, 99, "delta_p99_ms")
		res.Metrics["read_p50_ms"] = p50Metric(read, "ms")

		before, after := scrapes[0], scrapes[1]
		editSum := delta(before, after, "emiserve_phase_seconds_sum", label("phase", "session.edit"))
		editCount := delta(before, after, "emiserve_phase_seconds_count", label("phase", "session.edit"))
		recheckSum := delta(before, after, "emiserve_phase_seconds_sum", label("phase", "drc.recheck"))
		serverMS := 1e3 * ratio(editSum, editCount)
		var sendAck []float64
		for i, sl := range slots {
			if win.index(sl.due) == 0 && ops[i].mutation() {
				sendAck = append(sendAck, msBetween(sl.sent, sl.done))
			}
		}
		res.Layers["unattributed_p50_ms"] = metric{Value: median(sendAck) - serverMS, Unit: "ms", Samples: len(sendAck)}
		res.Layers["run_mean_ms"] = metric{Value: serverMS, Unit: "ms", Samples: int(editCount)}
		res.Layers["queue_wait_share"] = metric{Value: ratio(holSum, latSum), Unit: "1"}
		res.Layers["gen_late_p99_ms"] = tailMetric(late, "ms")
		res.Layers["bench.hol_wait_p99_ms"] = tailMetric(hol, "ms")
		res.Layers["session.edit_mean_us"] = metric{Value: 1e3 * serverMS, Unit: "us", Samples: int(editCount)}
		res.Layers["drc.recheck_mean_us"] = metric{Value: 1e6 * ratio(recheckSum, editCount), Unit: "us", Samples: int(editCount)}
		res.Layers["store.compactions"] = metric{Value: delta(before, after, "emiserve_session_compactions_total"), Unit: "count"}
		res.Layers["sse.delivered_ratio"] = metric{Value: ratio(float64(delivered), float64(mutations)), Unit: "1"}
		serveLayers(res, before, after, float64(n))
		res.Layers["cluster.forwards_per_op"] = metric{Value: 0, Unit: "count"} // no router
		if v := res.Layers["gen_late_p99_ms"].Value; v > maxLateMS {
			res.Notes = append(res.Notes, fmt.Sprintf("generator lateness p99 %.3f ms exceeds %g ms", v, maxLateMS))
		}
	}
	if win.split {
		res.Layers["trace_overhead_pct"] = overheadPct(primary[0], primary[1])
		doc := spans.doc()
		selfLayers(res, doc.TraceEvents)
		if err := res.writeTrace(c, doc); err != nil {
			return nil, err
		}
	}
	res.Metrics["fail_frac"] = metric{Value: res.failFrac(), Unit: "1"}
	return res, nil
}
