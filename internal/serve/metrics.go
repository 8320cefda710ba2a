package serve

import (
	"io"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/obs"
)

// metrics holds the server's monotonic counters and live gauges. All
// fields are atomics so the hot paths never serialize on a metrics lock.
type metrics struct {
	submitted         atomic.Uint64 // jobs actually enqueued
	dedupHits         atomic.Uint64 // submissions folded into an in-flight job
	storeHits         atomic.Uint64 // submissions answered from the result store
	storeMisses       atomic.Uint64 // submissions that had to compute
	rejectedFull      atomic.Uint64 // submissions rejected: queue full
	rejectedDraining  atomic.Uint64 // submissions rejected: draining
	finishedDone      atomic.Uint64
	finishedFailed    atomic.Uint64
	finishedCancelled atomic.Uint64
	busy              atomic.Int64  // workers currently running a job
	sessionEdits      atomic.Uint64 // session edits applied (incl. undo/redo)
	sseClients        atomic.Int64  // open session event streams
	requeued          atomic.Uint64 // jobs requeued from the store at startup
	compactions       atomic.Uint64 // session WAL snapshot rewrites
	progressEvents    atomic.Uint64 // intermediate results published by runners
	jobStreams        atomic.Int64  // open job progress SSE streams
	takeovers         atomic.Uint64 // sessions adopted from a cluster peer
}

// WriteMetrics writes the Prometheus text exposition (version 0.0.4) of
// the server's state: queue depth, jobs by state (current and total),
// dedup and result-store traffic, plus the engine's shared compute
// counters (cache hits, MNA solves, field integrals).
func (s *Server) WriteMetrics(w io.Writer) error {
	return s.reg.WriteProm(w)
}

// newRegistry declares every family the server exports, read through
// the metrics atomics and the state they summarize.
func (s *Server) newRegistry() *obs.Registry {
	r := &obs.Registry{}
	obs.Gauge(r, "emiserve_queue_depth", "Jobs waiting in the bounded queue.", s.QueueDepth)
	obs.Gauge(r, "emiserve_workers_busy", "Workers currently running a job.", s.m.busy.Load)
	obs.GaugeVec(r, "emiserve_jobs", "Jobs currently retained, by state.", "state", func(emit func(string, int)) {
		byState := map[State]int{}
		s.mu.Lock()
		for _, j := range s.jobs {
			byState[j.State()]++
		}
		s.mu.Unlock()
		for _, st := range []State{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled} {
			emit(string(st), byState[st])
		}
	})
	obs.CounterVec(r, "emiserve_jobs_finished_total", "Jobs finished since start, by terminal state.", "state", func(emit func(string, uint64)) {
		emit("done", s.m.finishedDone.Load())
		emit("failed", s.m.finishedFailed.Load())
		emit("cancelled", s.m.finishedCancelled.Load())
	})
	obs.Counter(r, "emiserve_submitted_total", "Jobs enqueued since start.", s.m.submitted.Load)
	obs.Counter(r, "emiserve_dedup_hits_total", "Submissions folded into an identical in-flight job.", s.m.dedupHits.Load)
	obs.Counter(r, "emiserve_result_store_hits_total", "Submissions answered from the completed-result store.", s.m.storeHits.Load)
	obs.Counter(r, "emiserve_result_store_misses_total", "Submissions that had to compute.", s.m.storeMisses.Load)
	obs.Gauge(r, "emiserve_result_store_entries", "Results currently cached.", func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.store.len()
	})
	obs.CounterVec(r, "emiserve_rejected_total", "Submissions rejected, by reason.", "reason", func(emit func(string, uint64)) {
		emit("queue_full", s.m.rejectedFull.Load())
		emit("draining", s.m.rejectedDraining.Load())
	})

	obs.Gauge(r, "emiserve_sessions_active", "Live design sessions.", func() int { return s.sessions.Stats().Active })
	obs.Counter(r, "emiserve_sessions_created_total", "Design sessions created since start.", func() uint64 { return s.sessions.Stats().Created })
	obs.Counter(r, "emiserve_sessions_evicted_total", "Design sessions evicted by the idle TTL.", func() uint64 { return s.sessions.Stats().Evicted })
	obs.Counter(r, "emiserve_session_edits_total", "Session edits applied, including undo and redo.", s.m.sessionEdits.Load)
	obs.Gauge(r, "emiserve_session_event_streams", "Open session SSE streams.", s.m.sseClients.Load)
	obs.Counter(r, "emiserve_job_progress_events_total", "Intermediate results published by batch jobs.", s.m.progressEvents.Load)
	obs.Gauge(r, "emiserve_job_event_streams", "Open job progress SSE streams.", s.m.jobStreams.Load)
	obs.Counter(r, "emiserve_cluster_adoptions_total", "Sessions adopted from a cluster peer via takeover.", s.m.takeovers.Load)

	// Durability counters: present only when a store is configured, so an
	// ephemeral server's exposition is unchanged.
	if st := s.cfg.Store; st != nil {
		obs.Counter(r, "emiserve_requeued_total", "Jobs requeued from the durable log at startup.", s.m.requeued.Load)
		obs.Counter(r, "emiserve_session_compactions_total", "Session WALs rewritten as fresh snapshots.", s.m.compactions.Load)
		obs.Counter(r, "emiserve_store_appends_total", "WAL records appended (edits, jobs, snapshots).", func() uint64 { return st.Stats().Appends })
		obs.Counter(r, "emiserve_store_syncs_total", "fsync calls issued by the store.", func() uint64 { return st.Stats().Syncs })
		obs.Counter(r, "emiserve_store_compactions_total", "Log rewrites performed by the store.", func() uint64 { return st.Stats().Compactions })
		obs.Counter(r, "emiserve_store_repairs_total", "Damaged WAL tails truncated during recovery.", func() uint64 { return st.Stats().Repairs })
	}

	// The per-phase latency histograms aggregated from the job traces and
	// the session edit path.
	r.Histograms(s.phases)

	// The engine's shared compute substrate (process-global).
	for _, c := range []struct {
		name, help string
		v          func(engine.Stats) uint64
	}{
		{"engine_cache_hits_total", "Field-integral memo cache hits.", func(e engine.Stats) uint64 { return e.CacheHits }},
		{"engine_cache_misses_total", "Field-integral memo cache misses.", func(e engine.Stats) uint64 { return e.CacheMisses }},
		{"engine_mna_solves_total", "Frequency-domain MNA solves.", func(e engine.Stats) uint64 { return e.MNASolves }},
		{"engine_neumann_integrals_total", "Neumann mutual-inductance integrals.", func(e engine.Stats) uint64 { return e.NeumannIntegrals }},
		{"engine_pool_batches_total", "Parallel batches dispatched by the shared pool.", func(e engine.Stats) uint64 { return e.PoolBatches }},
		{"engine_pool_tasks_total", "Work items executed by the shared pool.", func(e engine.Stats) uint64 { return e.PoolTasks }},
		{"engine_lu_assemblies_total", "System-matrix assemblies (stamp-plan executions).", func(e engine.Stats) uint64 { return e.Assemblies }},
		{"engine_lu_factorizations_total", "LU factorizations performed.", func(e engine.Stats) uint64 { return e.Factorizations }},
		{"engine_lu_resolves_total", "Triangular resolves against a retained factorization.", func(e engine.Stats) uint64 { return e.Resolves }},
	} {
		obs.Counter(r, c.name, c.help, func() uint64 { return c.v(engine.Snapshot()) })
	}
	return r
}
