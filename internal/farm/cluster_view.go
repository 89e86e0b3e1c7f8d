package farm

import (
	"slices"
	"sort"

	prom "asdsim/internal/metrics"
	"asdsim/internal/obs"
)

// ClusterSnapshot is a point-in-time view of a distributed farm: the
// coordinator's fleet and lease state and its transition tallies. It
// lives in this package (not
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

// LeaseEvent is one entry of a coordinator's transition log: a cell's
// submit, coalesce or cache-hit, a lease's grant, steal, complete,
// expire or late result, or a task's fail or cancel. Worker is the
// lease holder's name and Lease its id, empty where no lease is
// involved.
type LeaseEvent struct {
	Seq    int64  `json:"seq"`
	Event  string `json:"event"`
	Key    string `json:"key"`
	Worker string `json:"worker"`
	Lease  string `json:"lease,omitempty"`
	AtUS   int64  `json:"at_us"`
}

// ClusterSource is implemented by Runners that are cluster
// coordinators; the Server uses it to light up the cluster_* and
// fleet_* metric families.
type ClusterSource interface {
	ClusterSnapshot() ClusterSnapshot
}

// LeaseLog is implemented by Runners that keep a transition log; the
// Server renders a job's lease_events, the SSE feed and
// GET /jobs/{id}?format=trace from it.
type LeaseLog interface {
	// LeaseEvents returns the logged transitions of the given spec keys
	// (of every key when keys is nil), oldest first; when newest > 0,
	// only the newest that many.
	LeaseEvents(keys []string, newest int) []LeaseEvent
}

// coordinatorNode is the trace process of the coordinator's own
// records.
const coordinatorNode = "coordinator"

// BuildLeaseTrace renders a transition log as a Chrome trace: one
// process per node, the coordinator first, and one thread track per
// spec key. The coordinator carries a job slice per cell from submit to
// complete, fail or cancel, and the steal, expire, late, coalesce and
// cache-hit instants; each worker carries a lease slice per lease from
// grant or steal to complete or expire. A slice's status is the event
// that ended it; a job or lease still open at the end of the log is
// left out. Timestamps are rebased so the first transition is at zero.
func BuildLeaseTrace(events []LeaseEvent) *obs.TraceBuilder {
	type item struct {
		node, name, key string
		at, dur         int64 // dur < 0: an instant
		args            map[string]any
	}
	var items []item
	jobs := map[string]LeaseEvent{}   // open job by key: its submit
	leases := map[string]LeaseEvent{} // open lease by id: its grant or steal
	end := func(open map[string]LeaseEvent, id, node, name string, e LeaseEvent) {
		if from, ok := open[id]; ok {
			delete(open, id)
			if node == "" {
				node = from.Worker
			}
			items = append(items, item{node, name, e.Key, from.AtUS, e.AtUS - from.AtUS,
				map[string]any{"status": e.Event, "lease": e.Lease}})
		}
	}
	instant := func(e LeaseEvent) {
		items = append(items, item{coordinatorNode, e.Event, e.Key, e.AtUS, -1,
			map[string]any{"worker": e.Worker, "lease": e.Lease}})
	}
	for _, e := range events {
		switch e.Event {
		case "submit":
			jobs[e.Key] = e
		case "grant":
			leases[e.Lease] = e
		case "steal":
			leases[e.Lease] = e
			instant(e)
		case "complete":
			end(leases, e.Lease, "", "lease", e)
			end(jobs, e.Key, coordinatorNode, "job", e)
		case "expire":
			end(leases, e.Lease, "", "lease", e)
			instant(e)
		case "fail", "cancel":
			end(jobs, e.Key, coordinatorNode, "job", e)
		case "late", "coalesce", "cache-hit":
			instant(e)
		}
	}

	tb := obs.NewTraceBuilder()
	byNode := map[string][]item{}
	var nodes []string
	base := int64(0)
	for i, it := range items {
		if byNode[it.node] == nil {
			nodes = append(nodes, it.node)
		}
		byNode[it.node] = append(byNode[it.node], it)
		if i == 0 || it.at < base {
			base = it.at
		}
	}
	sort.Slice(nodes, func(i, j int) bool {
		if ci, cj := nodes[i] == coordinatorNode, nodes[j] == coordinatorNode; ci != cj {
			return ci
		}
		return nodes[i] < nodes[j]
	})
	for _, node := range nodes {
		tb.StartProcess(node)
		var keys []string
		for _, it := range byNode[node] {
			keys = append(keys, it.key)
		}
		slices.Sort(keys)
		keys = slices.Compact(keys)
		for i, k := range keys {
			tb.NameThread(i, "trace "+k[:min(len(k), 12)])
		}
		for _, it := range byNode[node] {
			tid, _ := slices.BinarySearch(keys, it.key)
			for k, v := range it.args {
				if v == "" {
					delete(it.args, k)
				}
			}
			it.args["key"], it.args["trace_id"] = it.key, TraceID(it.key)
			if ts := float64(it.at - base); it.dur >= 0 {
				tb.AddSlice(it.name, "lease", ts, float64(it.dur), tid, it.args)
			} else {
				tb.AddInstant(it.name, "lease", ts, tid, it.args)
			}
		}
	}
	return tb
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
