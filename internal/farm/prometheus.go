package farm

import (
	"sort"

	prom "asdsim/internal/metrics"
	"asdsim/internal/workload"
)

// This file adapts the farm's live state into Prometheus metric
// families, the one counter exposition GET /metrics serves. It is
// collect-on-scrape: every request builds a fresh registry from the
// atomic counters, the labeled cell map and the store's stats, so no
// second bookkeeping path can drift from the live state.

// AddTo folds the pool counters, the per-cell labeled run series and
// the wall-clock latency histograms into reg.
func (m *Metrics) AddTo(reg *prom.Registry) {
	s := m.Snapshot()
	gauge := func(name, help string, v float64) {
		reg.Gauge(name, help).With().Set(v)
	}
	counter := func(name, help string, v float64) {
		reg.Counter(name, help).With().Add(v)
	}
	gauge("farm_workers", "Size of the simulation worker pool.", float64(s.Workers))
	gauge("farm_busy_workers", "Workers currently executing a run.", float64(s.BusyWorkers))
	gauge("farm_worker_utilization", "Busy workers as a fraction of the pool.", s.WorkerUtilization)
	gauge("farm_queue_depth", "Runs queued and not yet started.", float64(s.QueueDepth))
	gauge("farm_uptime_seconds", "Seconds since the pool was created.", s.UptimeSec)
	counter("farm_runs_submitted_total", "Runs submitted to the pool.", float64(s.Submitted))
	counter("farm_runs_completed_total", "Runs finished successfully.", float64(s.Completed))
	counter("farm_runs_failed_total", "Runs that exhausted their retries.", float64(s.Failed))
	counter("farm_runs_retried_total", "Individual attempt retries.", float64(s.Retried))
	counter("farm_runs_resumed_total", "Runs served from the results store.", float64(s.Resumed))
	counter("farm_sim_instructions_total", "Simulated instructions aggregated over completed runs.", float64(s.SimInstructions))
	counter("farm_sim_cycles_total", "Simulated CPU cycles aggregated over completed runs.", float64(s.SimCycles))

	m.slo.addTo(reg)

	m.mu.Lock()
	defer m.mu.Unlock()

	keys := make([]cellKey, 0, len(m.cells))
	for k := range m.cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].bench != keys[b].bench {
			return keys[a].bench < keys[b].bench
		}
		if keys[a].mode != keys[b].mode {
			return keys[a].mode < keys[b].mode
		}
		return keys[a].engine < keys[b].engine
	})

	runs := reg.Counter("farm_runs_total",
		"Terminal run outcomes by benchmark, mode, engine and status.",
		"benchmark", "mode", "engine", "status")
	wall := reg.Histogram("farm_run_wall_seconds",
		"Run wall-clock duration by mode and engine.",
		latencyBounds, "mode", "engine")
	simLabels := []string{"benchmark", "mode", "engine"}
	for _, k := range keys {
		c := m.cells[k]
		mode, engine := k.mode.String(), k.engine.String()
		if c.completed > 0 {
			runs.With(k.bench, mode, engine, "ok").Add(float64(c.completed))
		}
		if c.failed > 0 {
			runs.With(k.bench, mode, engine, "failed").Add(float64(c.failed))
		}
		// Replay the cell's pre-bucketed latency counts; the recorded
		// sum preserves _sum exactly even though raw values are gone.
		ws := wall.With(mode, engine)
		total := c.wall.Total()
		for v := 1; v <= c.wall.Buckets(); v++ {
			if n := c.wall.Count(v); n > 0 {
				ws.AddBucket(v-1, n, 0)
			}
		}
		if total > 0 {
			ws.AddBucket(c.wall.Buckets(), 0, c.wallSum) // fold the true sum in
		}
		if c.last != nil {
			prom.AddResult(reg, c.last, simLabels, []string{k.bench, mode, engine})
		}
	}
}

// traceCacheSource is implemented by runners carrying a shared-trace
// cache (the in-process Pool; cluster coordinators don't).
type traceCacheSource interface {
	TraceCacheStats() workload.TraceCacheStats
}

// buildRegistry assembles the full scrape payload: pool counters,
// labeled run series, the result store's shape when the server has one,
// the cluster fleet state when the runner is a coordinator, and — when
// telemetry is attached — the aggregated per-depth prefetch table. Its
// series are bounded by the cells, workers and detectors the server has
// seen, not by the jobs it has run: per-job progress is on GET /jobs.
func (s *Server) buildRegistry() *prom.Registry {
	reg := prom.NewRegistry()
	s.runner.Metrics().AddTo(reg)
	if s.store != nil {
		addStoreTo(reg, s.store.Stats())
	}
	if cs := s.clusterSnapshot(); cs != nil {
		addClusterTo(reg, cs)
	}
	if s.telemetry != nil {
		s.telemetry.addTo(reg)
	}
	if s.provenance != nil {
		s.provenance.addTo(reg)
	}
	if tc, ok := s.runner.(traceCacheSource); ok {
		addTraceCacheTo(reg, tc.TraceCacheStats())
	}
	return reg
}

// addStoreTo folds the result store's cache behaviour and shape into
// reg.
func addStoreTo(reg *prom.Registry, st StoreStats) {
	reg.Counter("farm_store_cache_hits_total",
		"Result-store lookups served from the read-through cache.").With().Add(float64(st.CacheHits))
	reg.Counter("farm_store_cache_misses_total",
		"Result-store lookups that went to the index or found nothing.").With().Add(float64(st.CacheMisses))
	reg.Counter("farm_store_compactions_total",
		"Segment compaction cycles completed.").With().Add(float64(st.Compactions))
	reg.Gauge("farm_store_segments",
		"Segment files in the result store.").With().Set(float64(st.Segments))
	reg.Gauge("farm_store_entries",
		"Live resumable results in the store index.").With().Set(float64(st.Entries))
	reg.Gauge("farm_store_garbage_lines",
		"Droppable store lines awaiting compaction.").With().Set(float64(st.Garbage))
}

// addTraceCacheTo folds the shared-trace cache's effectiveness and
// residency into reg.
func addTraceCacheTo(reg *prom.Registry, st workload.TraceCacheStats) {
	reg.Counter("farm_trace_cache_hits_total",
		"Jobs served a memoized workload trace.").With().Add(float64(st.Hits))
	reg.Counter("farm_trace_cache_misses_total",
		"Jobs that had to materialize a workload trace.").With().Add(float64(st.Misses))
	reg.Counter("farm_trace_cache_evictions_total",
		"Materialized traces dropped by the LRU byte budget or superseded by a newer seed of their stream.").With().Add(float64(st.Evictions))
	reg.Gauge("farm_trace_cache_entries",
		"Materialized traces currently resident.").With().Set(float64(st.Entries))
	reg.Gauge("farm_trace_cache_bytes",
		"Bytes the resident materialized traces keep reachable: records at capacity, histograms and entries.").With().Set(float64(st.Bytes))
}
