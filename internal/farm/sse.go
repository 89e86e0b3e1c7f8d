package farm

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"asdsim/internal/workload"
)

// eventsPayload is one SSE frame's body: the pool snapshot plus every
// job's live progress, gains, sparkline, anomalies, per-run decision
// timelines, the result store's shape and the shared-trace cache
// state.
type eventsPayload struct {
	Snapshot   Snapshot                  `json:"snapshot"`
	Jobs       []eventsJob               `json:"jobs"`
	Sparks     []Spark                   `json:"sparks,omitempty"`
	Anomalies  []Anomaly                 `json:"anomalies,omitempty"`
	Latency    *latencyView              `json:"latency,omitempty"`
	Store      *StoreStats               `json:"store,omitempty"`
	Cluster    *ClusterSnapshot          `json:"cluster,omitempty"`
	Timelines  []Timeline                `json:"timelines,omitempty"`
	TraceCache *workload.TraceCacheStats `json:"trace_cache,omitempty"`
}

// traceCacheSource is implemented by runners carrying a shared-trace
// cache (the in-process Pool; cluster coordinators don't).
type traceCacheSource interface {
	TraceCacheStats() workload.TraceCacheStats
}

type eventsJob struct {
	jobSummary
	Gains []benchGains `json:"gains,omitempty"`
}

// latencyView carries the run wall-clock percentiles (seconds).
type latencyView struct {
	P50 float64 `json:"p50_sec"`
	P95 float64 `json:"p95_sec"`
	Max float64 `json:"max_sec"`
	N   uint64  `json:"runs"`
}

// eventsFrame assembles the current payload.
func (s *Server) eventsFrame() eventsPayload {
	s.mu.Lock()
	ids := s.sortedJobIDs()
	jobs := make([]*serverJob, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()

	p := eventsPayload{Snapshot: s.runner.Metrics().Snapshot(), Jobs: make([]eventsJob, 0, len(jobs))}
	for _, j := range jobs {
		j.mu.Lock()
		outcomes := append([]Outcome(nil), j.outcomes...)
		j.mu.Unlock()
		_, gains := runsAndGains(outcomes)
		p.Jobs = append(p.Jobs, eventsJob{jobSummary: j.summary(), Gains: gains})
	}
	if p50, p95, max, n := s.runner.Metrics().LatencySummary(); n > 0 {
		p.Latency = &latencyView{P50: p50, P95: p95, Max: max, N: n}
	}
	if s.telemetry != nil {
		p.Sparks = s.telemetry.Sparks()
		p.Anomalies = s.telemetry.Anomalies()
	}
	if s.provenance != nil {
		p.Timelines = s.provenance.Timelines()
	}
	if s.store != nil {
		st := s.store.Stats()
		p.Store = &st
	}
	if tc, ok := s.runner.(traceCacheSource); ok {
		st := tc.TraceCacheStats()
		p.TraceCache = &st
	}
	p.Cluster = s.clusterSnapshot()
	return p
}

// handleEvents streams farm state as server-sent events: one "state"
// event immediately, then one per sseInterval until the client goes
// away or the server shuts down.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	send := func() bool {
		b, err := json.Marshal(s.eventsFrame())
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: state\ndata: %s\n\n", b); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	if !send() {
		return
	}
	tick := time.NewTicker(s.sseInterval)
	defer tick.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.shutdown:
			return
		case <-tick.C:
			if !send() {
				return
			}
		}
	}
}
