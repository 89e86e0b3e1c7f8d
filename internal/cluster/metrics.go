package cluster

import "sync/atomic"

// counters is the coordinator's cluster-specific telemetry: lease
// churn, steals, late completions. The recording helpers are annotated
// //asd:hotpath so the noperturb pass certifies them lock-free — they
// run inside the coordinator's request path and must never add
// blocking beyond the mutex the state machine already holds.
type counters struct {
	expirations atomic.Uint64
	steals      atomic.Uint64
	late        atomic.Uint64
	completed   atomic.Uint64
}

// noteExpiration counts one lease reclaimed by TTL or worker death.
//
//asd:hotpath
func (c *counters) noteExpiration() { c.expirations.Add(1) }

// noteSteal counts one reclaimed task re-leased to a different worker.
//
//asd:hotpath
func (c *counters) noteSteal() { c.steals.Add(1) }

// noteLate counts one completion rejected for an expired lease.
//
//asd:hotpath
func (c *counters) noteLate() { c.late.Add(1) }

// noteCompleted counts one task retired through the coordinator.
//
//asd:hotpath
func (c *counters) noteCompleted() { c.completed.Add(1) }

// WorkerStats is a worker node's own lease traffic, exported on the
// worker side for logs and tests. Updated from the work loop next to
// the running simulation, so the recorders carry the same hotpath
// contract as the coordinator's.
type WorkerStats struct {
	acquired  atomic.Uint64
	completed atomic.Uint64
	expired   atomic.Uint64
}

// Acquired returns how many leases the worker has been granted.
func (s *WorkerStats) Acquired() uint64 { return s.acquired.Load() }

// Completed returns how many results the coordinator accepted.
func (s *WorkerStats) Completed() uint64 { return s.completed.Load() }

// Expired returns how many results were rejected as late.
func (s *WorkerStats) Expired() uint64 { return s.expired.Load() }

//asd:hotpath
func (s *WorkerStats) noteAcquired() { s.acquired.Add(1) }

//asd:hotpath
func (s *WorkerStats) noteCompleted() { s.completed.Add(1) }

//asd:hotpath
func (s *WorkerStats) noteExpired() { s.expired.Add(1) }
