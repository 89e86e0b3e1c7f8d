package farm

import (
	prom "asdsim/internal/metrics"
	"asdsim/internal/obs/span"
)

// ClusterSnapshot is a point-in-time view of a distributed farm: the
// coordinator's fleet and lease state. It lives in this package (not
// internal/cluster) so the Server can render it without an import
// cycle — cluster imports farm, and hands the Server a ClusterSource.
type ClusterSnapshot struct {
	Workers          int    `json:"workers"`
	TasksPending     int    `json:"tasks_pending"`
	LeasesActive     int    `json:"leases_active"`
	LeaseExpirations uint64 `json:"lease_expirations_total"`
	Steals           uint64 `json:"steals_total"`
	LateResults      uint64 `json:"late_results_total"`
	Completed        uint64 `json:"completed_total"`
	// Fleet is the per-worker federation view: health plus the metrics
	// snapshot each worker last pushed with a heartbeat. Dead workers
	// are retained (Up=false) so a kill remains visible.
	Fleet []WorkerHealth `json:"fleet,omitempty"`
	// LeaseEvents is the recent lease-transition ring, oldest first.
	LeaseEvents []LeaseEvent `json:"lease_events,omitempty"`
}

// WorkerHealth is one worker node's federated state.
type WorkerHealth struct {
	ID              string        `json:"id"`
	Name            string        `json:"name"`
	Up              bool          `json:"up"`
	HeartbeatAgeSec float64       `json:"heartbeat_age_sec"`
	Leases          int           `json:"leases"`
	Pool            *Snapshot     `json:"pool,omitempty"`
	Wall            *WallSnapshot `json:"wall,omitempty"`
}

// LeaseEvent is one lease transition: grant, steal, renewal batch,
// completion, expiry, late rejection, or lease-budget failure.
type LeaseEvent struct {
	Seq    int64  `json:"seq"`
	Event  string `json:"event"`
	Key    string `json:"key"`
	Worker string `json:"worker"`
	AtUS   int64  `json:"at_us"`
}

// ClusterSource is implemented by Runners that are cluster
// coordinators; the Server uses it to light up the cluster_* metric
// families, the SSE cluster field and the dashboard panel.
type ClusterSource interface {
	ClusterSnapshot() ClusterSnapshot
}

// TraceSource is implemented by Runners that collect distributed
// spans; the Server uses it for GET /jobs/{id}?format=trace.
type TraceSource interface {
	Spans(keys []string) []span.Span
}

// clusterSnapshot returns the runner's fleet state, or nil for a plain
// in-process pool.
func (s *Server) clusterSnapshot() *ClusterSnapshot {
	if cs, ok := s.runner.(ClusterSource); ok {
		snap := cs.ClusterSnapshot()
		return &snap
	}
	return nil
}

// addClusterTo folds the fleet state into the scrape registry.
func addClusterTo(reg *prom.Registry, cs *ClusterSnapshot) {
	gauge := func(name, help string, v float64) {
		reg.Gauge(name, help).With().Set(v)
	}
	counter := func(name, help string, v float64) {
		reg.Counter(name, help).With().Add(v)
	}
	gauge("cluster_workers", "Live registered worker nodes.", float64(cs.Workers))
	gauge("cluster_tasks_pending", "Tasks awaiting a lease.", float64(cs.TasksPending))
	gauge("cluster_leases_active", "Leases currently held by workers.", float64(cs.LeasesActive))
	counter("cluster_lease_expirations_total", "Leases reclaimed after TTL or worker-liveness expiry.", float64(cs.LeaseExpirations))
	counter("cluster_steals_total", "Reclaimed tasks re-leased to a different worker.", float64(cs.Steals))
	counter("cluster_late_results_total", "Results rejected because their lease had already expired.", float64(cs.LateResults))
	counter("cluster_completed_total", "Tasks completed through the coordinator.", float64(cs.Completed))
	addFleetTo(reg, cs.Fleet)
}

// addFleetTo renders the metrics-federation families: per-worker
// health/lease gauges and pushed counters, plus one fleet-merged run
// wall-clock histogram summed over every worker's pushed buckets.
func addFleetTo(reg *prom.Registry, fleet []WorkerHealth) {
	if len(fleet) == 0 {
		return
	}
	up := reg.Gauge("fleet_worker_up", "1 while the worker's registration is live, 0 after liveness expiry.", "worker")
	age := reg.Gauge("fleet_worker_heartbeat_age_seconds", "Seconds since the worker last renewed its liveness.", "worker")
	leases := reg.Gauge("fleet_worker_leases", "Leases the coordinator currently attributes to the worker.", "worker")
	busy := reg.Gauge("fleet_worker_busy_slots", "Busy executor slots the worker last reported.", "worker")
	completed := reg.Counter("fleet_runs_completed_total", "Runs each worker reported finishing locally.", "worker")
	failed := reg.Counter("fleet_runs_failed_total", "Runs each worker reported failing locally.", "worker")
	instr := reg.Counter("fleet_sim_instructions_total", "Simulated instructions each worker reported.", "worker")

	merged := make([]uint64, len(latencyBounds)+1)
	var mergedSum float64
	var anyWall bool
	wall := reg.Histogram("fleet_run_wall_seconds",
		"Run wall-clock duration merged across every worker's pushed histogram.",
		latencyBounds)

	for _, w := range fleet {
		label := w.Name
		if label == "" {
			label = w.ID
		}
		v := 0.0
		if w.Up {
			v = 1
		}
		up.With(label).Set(v)
		age.With(label).Set(w.HeartbeatAgeSec)
		leases.With(label).Set(float64(w.Leases))
		if w.Pool != nil {
			busy.With(label).Set(float64(w.Pool.BusyWorkers))
			completed.With(label).Add(float64(w.Pool.Completed))
			failed.With(label).Add(float64(w.Pool.Failed))
			instr.With(label).Add(float64(w.Pool.SimInstructions))
		}
		if w.Wall != nil && len(w.Wall.Counts) > 0 {
			anyWall = true
			for i, n := range w.Wall.Counts {
				if i < len(merged) {
					merged[i] += n
				}
			}
			mergedSum += w.Wall.Sum
		}
	}
	if anyWall {
		ws := wall.With()
		for i, n := range merged {
			if n > 0 {
				ws.AddBucket(i, n, 0)
			}
		}
		ws.AddBucket(len(merged), 0, mergedSum) // fold the true sum in
	}
}
