package farm

import (
	"sync"
	"time"

	prom "asdsim/internal/metrics"
)

// This file is the farm's SLO layer: availability ("runs succeed") and
// latency ("runs finish fast enough") objectives tracked as error
// budgets with multi-window burn rates, the standard fast/slow-burn
// alerting shape. A burn rate of 1.0 means the budget is being spent
// exactly at the rate that exhausts it at the objective horizon;
// sustained rates far above it on the short windows mean pages, on the
// long windows mean tickets.

// The objectives every farm tracks.
const (
	// sloAvailability is the fraction of runs that must succeed.
	sloAvailability = 0.999
	// sloLatency is the fraction of runs that must finish within
	// sloLatencySec seconds.
	sloLatency    = 0.95
	sloLatencySec = 30
)

// sloWindows are the burn-rate evaluation windows, label value and
// width in minutes.
var sloWindows = []struct {
	label string
	mins  int64
}{
	{"5m", 5}, {"30m", 30}, {"1h", 60}, {"6h", 360},
}

// sloRingMinutes covers the longest window plus the in-progress
// minute.
const sloRingMinutes = 361

// sloBucket is one minute of run traffic.
type sloBucket struct {
	minute int64 // unix minute stamp; 0 = never used
	total  uint64
	bad    uint64 // failed runs
	slow   uint64 // runs over the latency threshold
}

// sloTracker accumulates run outcomes into a minute-bucket ring and
// computes windowed burn rates on scrape. Every Metrics owns one; it is
// safe for concurrent use.
type sloTracker struct {
	// availability, latency and latencySec are the objectives; they
	// start at the package constants, and in-package tests set their
	// own. now is the clock, which tests replace.
	availability, latency, latencySec float64
	now                               func() time.Time

	mu    sync.Mutex
	ring  [sloRingMinutes]sloBucket
	total uint64
	bad   uint64
	slow  uint64
}

// newSLOTracker builds a tracker for the package objectives on the
// system clock.
func newSLOTracker() *sloTracker {
	return &sloTracker{availability: sloAvailability, latency: sloLatency,
		latencySec: sloLatencySec, now: time.Now}
}

// recordRun feeds one terminal run into the tracker.
func (t *sloTracker) recordRun(ok bool, wallSec float64) {
	minute := t.now().Unix() / 60
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &t.ring[minute%sloRingMinutes]
	if b.minute != minute {
		*b = sloBucket{minute: minute}
	}
	b.total++
	t.total++
	if !ok {
		b.bad++
		t.bad++
	}
	if wallSec > t.latencySec {
		b.slow++
		t.slow++
	}
}

// windowLocked sums the ring over the trailing mins minutes.
func (t *sloTracker) windowLocked(nowMinute, mins int64) (total, bad, slow uint64) {
	for i := range t.ring {
		b := &t.ring[i]
		if b.minute == 0 || b.minute <= nowMinute-mins || b.minute > nowMinute {
			continue
		}
		total += b.total
		bad += b.bad
		slow += b.slow
	}
	return total, bad, slow
}

// burn converts a bad fraction into a burn rate against an objective:
// badFraction / (1 - objective).
func burn(bad, total uint64, objective float64) float64 {
	if total == 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / (1 - objective)
}

// addTo renders the SLO families into reg.
func (t *sloTracker) addTo(reg *prom.Registry) {
	nowMinute := t.now().Unix() / 60
	t.mu.Lock()
	defer t.mu.Unlock()

	obj := reg.Gauge("farm_slo_objective", "Configured objective per SLO.", "slo")
	obj.With("availability").Set(t.availability)
	obj.With("latency").Set(t.latency)
	reg.Gauge("farm_slo_latency_threshold_seconds",
		"Run wall-clock bound the latency SLO counts against.").With().Set(t.latencySec)

	avail := reg.Gauge("farm_slo_availability_burn_rate",
		"Failed-run budget burn rate over the trailing window (1.0 = spending exactly the budget).",
		"window")
	lat := reg.Gauge("farm_slo_latency_burn_rate",
		"Slow-run budget burn rate over the trailing window (1.0 = spending exactly the budget).",
		"window")
	for _, w := range sloWindows {
		total, bad, slow := t.windowLocked(nowMinute, w.mins)
		avail.With(w.label).Set(burn(bad, total, t.availability))
		lat.With(w.label).Set(burn(slow, total, t.latency))
	}

	rem := reg.Gauge("farm_slo_error_budget_remaining",
		"Fraction of the lifetime error budget left per SLO (negative = overspent).", "slo")
	rem.With("availability").Set(1 - burn(t.bad, t.total, t.availability))
	rem.With("latency").Set(1 - burn(t.slow, t.total, t.latency))
}
