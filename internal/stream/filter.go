// Package stream implements the Stream Filter of the paper's §3.3: a
// small table of slots, one per Read stream observed at the memory
// controller, tracking each stream's last address, length, direction, and
// lifetime. Stream terminations feed the Stream Length Histogram. The
// slot table itself (Table) also serves the baseline stream prefetchers
// in package prefetch.
package stream

import (
	"fmt"

	"asdsim/internal/mem"
)

// EndFunc is called whenever a stream leaves the filter (lifetime expiry,
// capacity overflow, or epoch flush) with its observed length and
// direction. The SLH machinery subscribes here.
type EndFunc func(length int, dir mem.Direction)

// SlotOp enumerates the slot-lifecycle stages reported through SlotFunc.
type SlotOp uint8

const (
	// SlotBirth: a vacant slot was allocated for a fresh stream head.
	SlotBirth SlotOp = iota
	// SlotExtend: a Read confirmed the stream (length grew, including the
	// length-1 direction flip).
	SlotExtend
	// SlotEnd: the slot was retired (lifetime expiry or epoch flush) and
	// its stream fed the SLH.
	SlotEnd
)

// SlotFunc observes slot lifecycle stages for the provenance layer: op,
// the CPU cycle, the slot's head line, its length and direction after
// the stage. Hooks run on the filter's hot path and must not perturb it
// (no allocation, no locking); nil means no observation.
type SlotFunc func(op SlotOp, now uint64, line mem.Line, length int, dir mem.Direction)

// Config holds filter parameters.
type Config struct {
	// Slots is the number of streams tracked concurrently (8 per thread
	// in the paper's evaluated configuration).
	Slots int
	// Lifetime is the slot lifetime in CPU cycles. §3.3 says a matching
	// Read increments the lifetime by a predetermined value; a hardware
	// lifetime counter saturates at its width, so the model equivalent
	// is that each hit resets the countdown: a slot expires Lifetime
	// cycles after its last matching Read.
	Lifetime uint64
}

// DefaultConfig returns the paper's configuration: 8 slots. The lifetime
// value is not given in the paper; 1280 CPU cycles rides out several DRAM
// round-trips between consecutive stream reads while still letting dead
// streams vacate their slots before the filter thrashes.
func DefaultConfig() Config { return Config{Slots: 8, Lifetime: 1280} }

// Filter is the Stream Filter, the paper's policy over a Table: a Read
// that repeats or continues a tracked stream refreshes or extends it, a
// new stream takes the first vacant slot, and with none vacant the Read
// counts as a length-1 stream that prefetches nothing.
type Filter struct {
	t      Table
	onEnd  EndFunc
	onSlot SlotFunc

	// lastNow is the most recent cycle presented to Observe or Tick; it
	// stamps slot-end hooks, which FlushEpoch fires without a cycle of
	// its own.
	lastNow uint64

	// Observations counts Reads presented to the filter.
	Observations uint64
	// Overflows counts Reads that could not allocate a slot.
	Overflows uint64
	// Repeats counts Reads that re-touched a stream's head line
	// (lifetime refresh without a length change).
	Repeats uint64
}

// NewFilter returns a filter with cfg; onEnd may be nil.
func NewFilter(cfg Config, onEnd EndFunc) *Filter {
	if cfg.Slots <= 0 {
		panic(fmt.Sprintf("stream: Slots must be positive, got %d", cfg.Slots))
	}
	if cfg.Lifetime == 0 {
		panic("stream: Lifetime must be positive")
	}
	return &Filter{t: NewTable(cfg.Slots, cfg.Lifetime), onEnd: onEnd}
}

// SetSlotHook installs (or clears, with nil) the slot-lifecycle hook.
// Install everything before the run starts; the hook must not call back
// into the filter.
func (f *Filter) SetSlotHook(h SlotFunc) { f.onSlot = h }

// Observation is the filter's verdict on one Read.
type Observation struct {
	// Length is the detected current stream length including this Read.
	Length int
	// Dir is the stream's direction.
	Dir mem.Direction
	// Tracked is false when the Read could not be associated with any
	// slot (filter full); the paper generates no prefetch in that case
	// but still updates the SLH as if a length-1 stream were seen.
	Tracked bool
}

// Observe presents a Read for line at CPU cycle now and returns the
// stream observation. Expired slots are retired first.
//
//asd:hotpath
func (f *Filter) Observe(line mem.Line, now uint64) Observation {
	f.Observations++
	f.lastNow = now
	f.t.Expire(now, f.retire)

	// A Read one line past a tracked stream's last element extends it;
	// per §3.3 a Fresh slot commits to a direction here, so a Read one
	// line below makes it Negative. Re-reading the last element only
	// refreshes the slot's lifetime.
	if i, step := f.t.Match(line); i >= 0 {
		if step == 0 {
			f.Repeats++
			f.t.Refresh(i, now)
		} else {
			f.t.Extend(i, step, now)
		}
		s := f.t.Slots[i]
		if step != 0 && f.onSlot != nil {
			f.onSlot(SlotExtend, now, line, s.Length, s.Dir()) //asd:allow hotpath-noalloc provenance hook wired once before the run; the recorder's handler is itself checked
		}
		return Observation{Length: s.Length, Dir: s.Dir(), Tracked: true}
	}

	// Not part of any stream: allocate a vacant slot if there is one.
	if i := f.t.Vacant(); i >= 0 {
		f.t.Start(i, line, now)
		if f.onSlot != nil {
			f.onSlot(SlotBirth, now, line, 1, mem.Up) //asd:allow hotpath-noalloc provenance hook wired once before the run; the recorder's handler is itself checked
		}
		return Observation{Length: 1, Dir: mem.Up, Tracked: true}
	}

	// Filter full: record a length-1 stream in the SLH, generate nothing.
	f.Overflows++
	f.end(1, mem.Up)
	return Observation{Length: 1, Dir: mem.Up, Tracked: false}
}

// retire feeds a stream leaving the filter to the SLH and the slot hook.
//
//asd:hotpath
func (f *Filter) retire(s Slot) {
	f.end(s.Length, s.Dir())
	if f.onSlot != nil {
		f.onSlot(SlotEnd, f.lastNow, s.Last, s.Length, s.Dir()) //asd:allow hotpath-noalloc provenance hook wired once before the run; the recorder's handler is itself checked
	}
}

// Tick retires expired slots without observing a Read; the memory
// controller calls this periodically so stream terminations reach the SLH
// promptly even on quiet channels.
//
//asd:hotpath
func (f *Filter) Tick(now uint64) {
	f.lastNow = now
	f.t.Expire(now, f.retire)
}

// FlushEpoch evicts every stream (called at each epoch boundary: "At the
// end of each epoch, all streams are evicted from the Stream Filter").
func (f *Filter) FlushEpoch() { f.t.Flush(f.retire) }

// Live returns the number of live slots (for tests and reporting).
func (f *Filter) Live() int {
	n := 0
	for _, s := range f.t.Slots {
		if s.State != Vacant {
			n++
		}
	}
	return n
}

func (f *Filter) end(length int, dir mem.Direction) {
	if f.onEnd != nil {
		f.onEnd(length, dir) //asd:allow hotpath-noalloc end-of-stream callback wired once at construction; the ASD engine's handler is itself checked
	}
}
