// Package obsish is the noperturb fixture: a probe-bus stand-in whose
// hot-path telemetry must not lock, touch channels, select, spawn
// goroutines or read the wall clock, and whose exported hot Bus
// methods must keep the nil-receiver fast path.
package obsish

import (
	"sync"
	"time"
)

// Bus mimics obs.Bus: nil means disabled.
type Bus struct {
	mu    sync.Mutex
	ch    chan int
	state sync.Map
	total uint64
	mask  uint32
}

// Emit has the accepted if-form nil guard.
//
//asd:hotpath
func (b *Bus) Emit(v int) {
	if b == nil {
		return
	}
	b.record(v)
}

// On has the accepted return-form fast path.
//
//asd:hotpath
func (b *Bus) On(kind uint) bool {
	return b != nil && b.mask&(1<<kind) != 0
}

// Unguarded is a hot exported Bus method without a nil guard.
//
//asd:hotpath
func (b *Bus) Unguarded(v int) { // want `must begin with .if b == nil`
	b.total += uint64(v)
}

func (b *Bus) record(v int) {
	b.mu.Lock() // want `blocking synchronization`
	b.total += uint64(v)
	b.mu.Unlock()             // want `blocking synchronization`
	b.ch <- v                 // want `channel send can block`
	<-b.ch                    // want `channel receive can block`
	_ = time.Now()            // want `time\.Now in telemetry`
	b.state.Store(v, v)       // want `sync\.Map\.Store locks and boxes`
	go func() { b.total++ }() // want `goroutine spawn in telemetry`
	select {                  // want `select in telemetry`
	default:
	}
	for v := range b.ch { // want `ranging over a channel blocks`
		_ = v
	}
}

// Sampler is a sink hanging off a non-nil bus: no nil-guard
// requirement applies to non-Bus receivers.
type Sampler struct {
	n uint64
}

// Emit is hot but needs no nil guard: Sampler is not the bus.
//
//asd:hotpath
func (s *Sampler) Emit(v int) {
	s.n += uint64(v)
}
