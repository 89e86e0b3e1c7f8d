package cluster

import "sync/atomic"

// WorkerStats is a worker node's own lease traffic, exported on the
// worker side for logs and tests. Updated from the work loop next to
// the running simulation, so the recorders are certified lock-free.
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
