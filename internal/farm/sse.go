package farm

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// eventsPayload is one SSE frame's body: what GET /metrics does not
// carry. That is every job's live progress and gains, the sparklines,
// the anomaly feed and the per-run decision timelines, plus a
// coordinator's recent lease transitions. Counters are read from
// GET /metrics alone.
type eventsPayload struct {
	Jobs        []eventsJob  `json:"jobs"`
	Sparks      []Spark      `json:"sparks"`
	Anomalies   []Anomaly    `json:"anomalies"`
	Timelines   []Timeline   `json:"timelines"`
	LeaseEvents []LeaseEvent `json:"lease_events,omitempty"`
}

type eventsJob struct {
	jobSummary
	Gains []benchGains `json:"gains,omitempty"`
}

// eventsFrame assembles the current payload.
func (s *Server) eventsFrame() eventsPayload {
	jobs := s.jobList()
	p := eventsPayload{Jobs: make([]eventsJob, 0, len(jobs))}
	for _, j := range jobs {
		sum, gains := j.progress()
		p.Jobs = append(p.Jobs, eventsJob{jobSummary: sum, Gains: gains})
	}
	if s.telemetry != nil {
		p.Sparks = s.telemetry.Sparks()
		p.Anomalies = s.telemetry.Anomalies()
	}
	if s.provenance != nil {
		p.Timelines = s.provenance.Timelines()
	}
	if cs := s.clusterSnapshot(); cs != nil {
		p.LeaseEvents = cs.LeaseEvents
	}
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
