package farm

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"asdsim/internal/sim"
	"asdsim/internal/stats"
)

// latencyBounds are the per-run wall-clock histogram's bucket upper
// bounds in seconds (roughly log-spaced 1ms..5m); runs slower than the
// last bound land in the open +Inf bucket. The same bounds back both
// the Prometheus exposition and the CLI's percentile summary.
var latencyBounds = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60, 120, 300,
}

// latencyBucket maps a duration in seconds to its stats.Histogram
// value: 1..len(latencyBounds) for the bounded buckets, +1 for +Inf.
func latencyBucket(sec float64) int {
	for i, b := range latencyBounds {
		if sec <= b {
			return i + 1
		}
	}
	return len(latencyBounds) + 1
}

// cellKey identifies one (benchmark, mode, engine) slice of the farm's
// run traffic — the label tuple of the Prometheus per-run series.
type cellKey struct {
	bench  string
	mode   sim.Mode
	engine sim.EngineKind
}

// cellStats aggregates one cell's outcomes.
type cellStats struct {
	completed uint64
	failed    uint64
	wall      *stats.Histogram // latencyBucket values
	wallSum   float64
	// last is the most recent successful result, the source for the
	// sim_* gauge families.
	last *sim.Result
}

// Metrics holds the farm's live counters. The flat fields are updated
// atomically; the labeled per-cell map and the latency histogram are
// guarded by mu. A Metrics may be shared between a Pool and an HTTP
// /metrics endpoint.
type Metrics struct {
	workers atomic.Int64
	start   atomic.Int64 // UnixNano of pool creation

	submitted atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	retried   atomic.Uint64
	resumed   atomic.Uint64

	busy   atomic.Int64
	queued atomic.Int64

	// Aggregate simulated work, for cycles/sec-style throughput.
	simInstructions atomic.Uint64
	simCycles       atomic.Uint64

	mu      sync.Mutex
	cells   map[cellKey]*cellStats
	wall    *stats.Histogram // all runs
	wallMax float64
}

// NewMetrics returns a zeroed metrics block stamped with the current
// time.
func NewMetrics() *Metrics {
	m := &Metrics{
		cells: make(map[cellKey]*cellStats),
		wall:  stats.NewHistogram(len(latencyBounds) + 1),
	}
	m.start.Store(time.Now().UnixNano())
	return m
}

func (m *Metrics) setWorkers(n int) { m.workers.Store(int64(n)) }

// The exported recorders below let an out-of-package Runner — the
// cluster coordinator — feed the same counters the in-process Pool
// feeds, so /metrics and the dashboard read identically whichever
// engine executes a batch.

// SetWorkers records the fleet's current executor count.
func (m *Metrics) SetWorkers(n int) { m.setWorkers(n) }

// SetQueued records the current depth of not-yet-leased work.
func (m *Metrics) SetQueued(n int) { m.queued.Store(int64(n)) }

// SetBusy records how many jobs are currently leased out.
func (m *Metrics) SetBusy(n int) { m.busy.Store(int64(n)) }

// RecordSubmitted counts n newly accepted jobs.
func (m *Metrics) RecordSubmitted(n int) { m.submitted.Add(uint64(n)) }

// RecordResumed counts n jobs served from a Store instead of run.
func (m *Metrics) RecordResumed(n int) { m.resumed.Add(uint64(n)) }

// RecordOutcome records one terminal outcome under its spec's cell.
func (m *Metrics) RecordOutcome(spec *Spec, o *Outcome) { m.finish(spec, o) }

// finish records one terminal outcome under its spec's label cell.
func (m *Metrics) finish(spec *Spec, o *Outcome) {
	if o.OK() {
		m.completed.Add(1)
		m.simInstructions.Add(o.Result.Instructions)
		m.simCycles.Add(o.Result.Cycles)
	} else {
		m.failed.Add(1)
	}
	sec := o.WallMS / 1e3
	key := cellKey{bench: spec.Benchmark, mode: spec.Mode, engine: spec.Config.Engine}

	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.cells[key]
	if c == nil {
		c = &cellStats{wall: stats.NewHistogram(len(latencyBounds) + 1)}
		m.cells[key] = c
	}
	if o.OK() {
		c.completed++
		c.last = o.Result
	} else {
		c.failed++
	}
	c.wall.Observe(latencyBucket(sec))
	c.wallSum += sec
	m.wall.Observe(latencyBucket(sec))
	if sec > m.wallMax {
		m.wallMax = sec
	}
}

// LatencySummary returns the run wall-clock distribution so far: the
// conservative p50 and p95 upper bounds (seconds; +Inf when the
// quantile falls in the open bucket), the exact maximum, and the run
// count.
func (m *Metrics) LatencySummary() (p50, p95, max float64, n uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n = m.wall.Total()
	if n == 0 {
		return 0, 0, 0, 0
	}
	bound := func(q float64) float64 {
		v := m.wall.Quantile(q)
		if v >= 1 && v <= len(latencyBounds) {
			return latencyBounds[v-1]
		}
		return math.Inf(1)
	}
	return bound(0.5), bound(0.95), m.wallMax, n
}

// Snapshot is a point-in-time view of the farm's counters, the source
// of the farm_* pool families and of the asdfarm run summary.
type Snapshot struct {
	Workers           int
	BusyWorkers       int
	WorkerUtilization float64
	QueueDepth        int
	Submitted         uint64
	Completed         uint64
	Failed            uint64
	Retried           uint64
	Resumed           uint64
	UptimeSec         float64
	SimInstructions   uint64
	SimCycles         uint64
	SimInstrPerSec    float64
}

// Snapshot captures the current counters.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Workers:         int(m.workers.Load()),
		BusyWorkers:     int(m.busy.Load()),
		QueueDepth:      int(m.queued.Load()),
		Submitted:       m.submitted.Load(),
		Completed:       m.completed.Load(),
		Failed:          m.failed.Load(),
		Retried:         m.retried.Load(),
		Resumed:         m.resumed.Load(),
		SimInstructions: m.simInstructions.Load(),
		SimCycles:       m.simCycles.Load(),
	}
	if s.Workers > 0 {
		s.WorkerUtilization = float64(s.BusyWorkers) / float64(s.Workers)
	}
	elapsed := time.Since(time.Unix(0, m.start.Load())).Seconds()
	if elapsed > 0 {
		s.UptimeSec = elapsed
		s.SimInstrPerSec = float64(s.SimInstructions) / elapsed
	}
	return s
}
