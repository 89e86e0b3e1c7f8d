package farm

import (
	_ "embed"
	"net/http"
)

// dashboardHTML is the single-file live dashboard: it subscribes to
// /events with EventSource for the per-job gain table, CAQ-occupancy
// sparklines, the anomaly feed and lease transitions, and on each frame
// reads every counter panel from GET /metrics. Embedded so `asdfarm
// serve` stays a single static binary.
//
//go:embed dashboard.html
var dashboardHTML []byte

func (s *Server) handleDashboard(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write(dashboardHTML)
}
