// Package cpu provides the trace-driven processor timing model: an
// in-order front end with a bounded run-ahead window and a bounded number
// of outstanding memory-system requests, approximating the Power5+'s
// ability to overlap several L2 misses. The sim package drives Threads
// against the cache hierarchy and memory controller.
package cpu

import (
	"fmt"

	"asdsim/internal/mem"
	"asdsim/internal/obs"
	"asdsim/internal/trace"
)

// Config holds the per-thread timing parameters.
type Config struct {
	// Window is the run-ahead window in instructions: a missing load
	// blocks retirement once the thread has moved this many
	// instructions past it (reorder-buffer depth).
	Window uint64
	// MaxOutstanding bounds concurrent memory-system requests per
	// thread (the Power5+ sustains about eight outstanding L2 misses).
	MaxOutstanding int
	// BudgetInstructions ends the thread after this many instructions.
	BudgetInstructions uint64
}

// DefaultConfig returns Power5+-flavoured parameters.
func DefaultConfig(budget uint64) Config {
	return Config{Window: 128, MaxOutstanding: 8, BudgetInstructions: budget}
}

// Pending is one outstanding memory request of a thread.
type Pending struct {
	ID       uint64
	Line     mem.Line
	InstrIdx uint64
	// IsLoad distinguishes loads (which block retirement via the
	// window) from store misses (which only occupy an outstanding slot).
	IsLoad bool
}

// Thread is one hardware thread's timing state.
type Thread struct {
	// ID is the hardware thread index.
	ID  int
	cfg Config
	src *trace.Cursor

	// Now is the thread-local CPU cycle.
	Now uint64
	// Instructions retired (compute gaps included).
	Instructions uint64
	// StallCycles accumulates cycles spent blocked on memory.
	StallCycles uint64

	pend     []Pending
	nextID   uint64
	finished bool
	bus      *obs.Bus // nil when no observer is attached
}

// NewThread returns a thread executing the trace src reads under cfg.
func NewThread(id int, src *trace.Cursor, cfg Config) *Thread {
	if cfg.Window == 0 || cfg.MaxOutstanding <= 0 || cfg.BudgetInstructions == 0 {
		panic(fmt.Sprintf("cpu: invalid config %+v", cfg))
	}
	return &Thread{ID: id, cfg: cfg, src: src}
}

// Finished reports whether the thread has retired its budget (or ran out
// of trace).
//
//asd:hotpath
func (t *Thread) Finished() bool { return t.finished }

// SetObserver attaches a probe bus (nil detaches).
func (t *Thread) SetObserver(b *obs.Bus) { t.bus = b }

// NextRecord fetches the thread's next trace record and accounts its
// compute gap (1 instruction per cycle) plus the memory operation itself.
// It returns ok=false when the thread is done.
func (t *Thread) NextRecord() (trace.Record, bool) {
	if t.finished {
		return trace.Record{}, false
	}
	if t.Instructions >= t.cfg.BudgetInstructions {
		t.finished = true
		return trace.Record{}, false
	}
	rec, ok := t.src.Next()
	if !ok {
		t.finished = true
		return trace.Record{}, false
	}
	t.Now += uint64(rec.Gap) + 1
	t.Instructions += uint64(rec.Gap) + 1
	return rec, true
}

// SkipRetired bulk-retires delta instructions whose trace records the
// caller consumed directly from the thread's cursor (the sampled
// fast-forward's reuse-bounded skip): the clock and retirement count
// advance exactly as per-record NextRecord calls would have. The
// caller must keep delta within the thread's remaining budget.
func (t *Thread) SkipRetired(delta uint64) {
	t.Now += delta
	t.Instructions += delta
}

// ChargeHit adds a cache-hit latency to the thread clock (loads only; the
// store buffer hides store hit latency).
//
//asd:hotpath
func (t *Thread) ChargeHit(lat uint64) { t.Now += lat }

// AddPending registers an outstanding memory request for line and
// returns its handle.
//
//asd:hotpath
func (t *Thread) AddPending(line mem.Line, isLoad bool) uint64 {
	t.nextID++
	t.pend = append(t.pend, Pending{ID: t.nextID, Line: line, InstrIdx: t.Instructions, IsLoad: isLoad})
	return t.nextID
}

// Complete resolves the outstanding request with the given handle.
//
//asd:hotpath
func (t *Thread) Complete(id uint64) {
	for i := range t.pend {
		if t.pend[i].ID == id {
			t.pend = append(t.pend[:i], t.pend[i+1:]...)
			return
		}
	}
}

// BlockedOn returns the pending request the thread must wait for before
// executing another instruction, or nil if it can proceed: the oldest
// request when all outstanding slots are full, or the oldest load that
// has fallen out of the run-ahead window.
//
//asd:hotpath
func (t *Thread) BlockedOn() *Pending {
	if len(t.pend) == 0 {
		return nil
	}
	if len(t.pend) >= t.cfg.MaxOutstanding {
		return &t.pend[0]
	}
	for i := range t.pend {
		p := &t.pend[i]
		if p.IsLoad && t.Instructions-p.InstrIdx >= t.cfg.Window {
			return p
		}
	}
	return nil
}

// Resume unblocks the thread at cycle at (no-op if the thread clock is
// already past it), accounting the difference as stall time.
func (t *Thread) Resume(at uint64) {
	if at > t.Now {
		t.StallCycles += at - t.Now
		if t.bus.On(obs.KindCPUStall) {
			t.bus.Emit(obs.Event{Kind: obs.KindCPUStall, Cycle: at,
				Thread: int32(t.ID), V1: int64(at - t.Now)})
		}
		t.Now = at
	}
}

// DrainTo advances a finished thread's notion of completion: the thread's
// execution time includes waiting for its last loads.
//
//asd:hotpath
func (t *Thread) DrainTo(at uint64) {
	if at > t.Now {
		t.Now = at
	}
}
