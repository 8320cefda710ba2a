package cluster

import (
	"io"
	"sync/atomic"

	"repro/internal/obs"
)

// metrics are the router's monotonic counters, exported on /metrics in
// the same Prometheus text format (with HELP/TYPE headers) as the
// replicas' own series, prefixed emiserve_cluster_.
type metrics struct {
	forwards    atomic.Int64 // requests proxied to a replica
	retries     atomic.Int64 // forward attempts after the first, per request
	shed        atomic.Int64 // 429s: every useful target saturated
	unavailable atomic.Int64 // 503s: no owner / takeover incomplete
	badGateway  atomic.Int64 // 502s: transport died mid-forward, fate unknown
	takeovers   atomic.Int64 // session takeover handshakes completed
	sessions    atomic.Int64 // sessions created through the router

	takeoverFail atomic.Int64 // takeover handshakes that aborted
	admSaturated atomic.Int64 // submits rejected: every useful target saturated
	admNoReady   atomic.Int64 // submits rejected: no ready replica at all
}

// WriteMetrics writes the router metrics plus the per-state member
// gauge derived from the prober snapshot.
func (rt *Router) WriteMetrics(w io.Writer) error {
	return rt.reg.WriteProm(w)
}

// readyQueues sums queue depth and capacity over the ready members.
func (rt *Router) readyQueues() (depth, capSum int) {
	for _, h := range rt.prober.Snapshot() {
		if h.State == StateReady {
			depth += h.QueueDepth
			capSum += h.QueueCap
		}
	}
	return depth, capSum
}

// newRegistry declares the router's own families.
func (rt *Router) newRegistry() *obs.Registry {
	r := &obs.Registry{}
	obs.GaugeVec(r, "emiserve_cluster_members", "Members by probed state.", "state", func(emit func(string, int)) {
		counts := map[MemberState]int{}
		for _, h := range rt.prober.Snapshot() {
			counts[h.State]++
		}
		for _, st := range []MemberState{StateReady, StateNotReady, StateDown} {
			emit(st.String(), counts[st])
		}
	})
	obs.Gauge(r, "emiserve_cluster_queue_depth", "Summed queue depth of ready members.", func() int {
		depth, _ := rt.readyQueues()
		return depth
	})
	obs.Gauge(r, "emiserve_cluster_queue_cap", "Summed queue capacity of ready members.", func() int {
		_, capSum := rt.readyQueues()
		return capSum
	})
	obs.Counter(r, "emiserve_cluster_forwards_total", "Requests proxied to a replica.", rt.m.forwards.Load)
	obs.Counter(r, "emiserve_cluster_retries_total", "Forward attempts beyond the first.", rt.m.retries.Load)
	obs.Counter(r, "emiserve_cluster_shed_total", "Requests shed with 429 (all targets saturated).", rt.m.shed.Load)
	obs.Counter(r, "emiserve_cluster_unavailable_total", "Requests answered 503 (no ready owner).", rt.m.unavailable.Load)
	obs.Counter(r, "emiserve_cluster_bad_gateway_total", "Forwards answered 502 (transport died mid-request).", rt.m.badGateway.Load)
	obs.Counter(r, "emiserve_cluster_takeovers_total", "Session takeover handshakes completed.", rt.m.takeovers.Load)
	obs.Counter(r, "emiserve_cluster_sessions_total", "Sessions created through the router.", rt.m.sessions.Load)
	obs.GaugeVec(r, "emiserve_cluster_probe_rtt_seconds", "Last successful readyz probe round-trip per member.", "member", func(emit func(string, float64)) {
		snap := rt.prober.Snapshot()
		for _, name := range rt.ring.Members() {
			emit(name, snap[name].RTT.Seconds())
		}
	})
	obs.CounterVec(r, "emiserve_cluster_takeover_outcomes_total", "Session takeover handshakes by result.", "result", func(emit func(string, int64)) {
		emit("adopted", rt.m.takeovers.Load())
		emit("failed", rt.m.takeoverFail.Load())
	})
	obs.CounterVec(r, "emiserve_cluster_admission_rejected_total", "Submissions the router rejected, by reason.", "reason", func(emit func(string, int64)) {
		emit("saturated", rt.m.admSaturated.Load())
		emit("no_ready", rt.m.admNoReady.Load())
	})
	r.Histograms(rt.fwd)
	r.Histograms(rt.tkPhase)
	return r
}
