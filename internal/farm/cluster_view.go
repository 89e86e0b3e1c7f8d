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
	// Workers counts the live worker nodes: the distinct names of the
	// live registrations.
	Workers          int
	TasksPending     int
	LeasesActive     int
	LeaseExpirations uint64
	Steals           uint64
	LateResults      uint64
	Completed        uint64
	// Fleet is the per-worker view: health plus the outcomes the
	// coordinator accepted from each worker. Dead workers are retained
	// (Up=false) so a kill remains visible.
	Fleet []WorkerHealth
	// LeaseEvents is the recent lease-transition ring, oldest first.
	LeaseEvents []LeaseEvent
}

// WorkerHealth is one worker registration's fleet entry; every slot of
// a multi-slot node registers under the node's name. Completed, Failed
// and SimInstructions count the outcomes the coordinator accepted from
// the registration; a result rejected as late counts for no worker.
type WorkerHealth struct {
	ID              string
	Name            string
	Up              bool
	HeartbeatAgeSec float64
	Leases          int
	Completed       uint64
	Failed          uint64
	SimInstructions uint64
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
// coordinators; the Server uses it to light up the cluster_* and
// fleet_* metric families and the lease-event feeds.
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

// addFleetTo renders the per-worker fleet families: health and lease
// gauges, and the coordinator's counts of the outcomes it accepted from
// each worker. A worker is a label (its name, else its registration
// id), so a node's registrations fold into one series: it is up while
// any of them is live, its heartbeat age is the freshest live one's,
// and its leases and runs are their sums.
func addFleetTo(reg *prom.Registry, fleet []WorkerHealth) {
	if len(fleet) == 0 {
		return
	}
	up := reg.Gauge("fleet_worker_up", "1 while any of the worker's registrations is live, 0 after liveness expiry.", "worker")
	age := reg.Gauge("fleet_worker_heartbeat_age_seconds", "Seconds since the worker's freshest live registration renewed its liveness.", "worker")
	leases := reg.Gauge("fleet_worker_leases", "Leases the coordinator currently attributes to the worker's registrations.", "worker")
	completed := reg.Counter("fleet_runs_completed_total", "Successful outcomes the coordinator accepted from the worker.", "worker")
	failed := reg.Counter("fleet_runs_failed_total", "Failed outcomes the coordinator accepted from the worker.", "worker")
	instr := reg.Counter("fleet_sim_instructions_total", "Simulated instructions in the successful outcomes accepted from the worker.", "worker")
	nodes := make(map[string]*WorkerHealth, len(fleet))
	for _, w := range fleet {
		label := w.Name
		if label == "" {
			label = w.ID
		}
		completed.With(label).Add(float64(w.Completed))
		failed.With(label).Add(float64(w.Failed))
		instr.With(label).Add(float64(w.SimInstructions))
		n := nodes[label]
		if n == nil {
			nodes[label] = &WorkerHealth{Up: w.Up, HeartbeatAgeSec: w.HeartbeatAgeSec, Leases: w.Leases}
			continue
		}
		if w.Up && !n.Up || w.Up == n.Up && w.HeartbeatAgeSec < n.HeartbeatAgeSec {
			n.Up, n.HeartbeatAgeSec = w.Up, w.HeartbeatAgeSec
		}
		n.Leases += w.Leases
	}
	for label, n := range nodes {
		v := 0.0
		if n.Up {
			v = 1
		}
		up.With(label).Set(v)
		age.With(label).Set(n.HeartbeatAgeSec)
		leases.With(label).Set(float64(n.Leases))
	}
}
