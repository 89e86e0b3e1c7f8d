// Package obs is the simulator's cycle-level observability substrate: a
// probe/event bus that the hot loops of the memory controller, DRAM,
// caches, CPU threads and the ASD engine publish into, plus the sinks
// that turn the event stream into time-series samples (Sampler),
// Chrome trace-event JSON (TraceBuilder) and per-depth prefetch
// efficiency stats (DepthStats).
//
// The bus is engineered to vanish when unused: instrumented components
// hold a *Bus that is nil when no observer is attached and guard every
// emission site with a single pointer nil-check, so a run without
// observers pays one predictable branch per probe point (measured <2%
// on the full hot loop; see BenchmarkObsDisabledHotLoop).
//
// One Bus belongs to one simulation run and is driven from that run's
// single goroutine; Emit performs no locking. Sinks attached to buses
// of concurrently running simulations (e.g. one aggregating sink under
// the farm) must themselves be safe for concurrent use.
package obs

import (
	"fmt"
	"sync/atomic"

	"asdsim/internal/mem"
)

// Kind enumerates the probe points.
type Kind uint8

// Probe points, grouped by publishing component.
const (
	// KindMCEnqueue: a regular command entered the memory controller.
	// ID/Line/Thread identify it; V1 is 1 for a Write.
	KindMCEnqueue Kind = iota
	// KindMCSchedule: the reorder-queue scheduler moved a command into
	// the CAQ. V1 is 1 for a Write.
	KindMCSchedule
	// KindMCIssue: the Final Scheduler transmitted the CAQ head to
	// DRAM. V1 is 1 for a Write; V2 is the predicted completion cycle.
	KindMCIssue
	// KindMCComplete: a demand Read was delivered back to the CPU
	// side. V1 is the MC-observed latency (completion - arrival).
	KindMCComplete
	// KindMCPBHit: a Read was satisfied by the Prefetch Buffer without
	// DRAM. V1 is 0 for the entry check, 1 for the CAQ-head check; V2
	// is the prefetch depth that staged the line.
	KindMCPBHit
	// KindMCQueues reads the controller's queue occupancy whenever a
	// Step (or the final LPQ flush) changes it, and at the first Step:
	// V1 = reorder (read+write) depth, V2 = CAQ depth, V3 = LPQ depth.
	// A reading holds until the next one, so consumers weight it by
	// the cycles in between (QueueGauge); how often the controller
	// steps changes neither the readings nor their weights.
	KindMCQueues
	// KindMCBankConflict: a regular command could not proceed because
	// its bank was held by a previously issued prefetch.
	KindMCBankConflict
	// KindMCPFNominate: the ASD engine's nomination entered the LPQ.
	// V1 is the prefetch depth (1 = adjacent line).
	KindMCPFNominate
	// KindMCPFDrop: a nomination or queued prefetch was dropped
	// (duplicate, full LPQ, demand overtake, or write). V1 is the
	// depth when known (0 otherwise).
	KindMCPFDrop
	// KindMCPFIssue: the Final Scheduler issued the LPQ head to DRAM.
	// V1 is the depth.
	KindMCPFIssue
	// KindMCPFLate: a prefetch completed with demand Reads already
	// merged onto it — useful but late. V1 = depth, V2 = waiters.
	KindMCPFLate
	// KindMCPFInstall: a completed prefetch was installed into the
	// Prefetch Buffer. V1 is the depth.
	KindMCPFInstall
	// KindMCPFWasted: a Prefetch Buffer line was discarded unused.
	// V1 = depth, V2 = 0 for LRU eviction, 1 for write invalidation.
	KindMCPFWasted

	// KindDRAMAccess: one DRAM column access. V1 = 0 row hit, 1 row
	// miss (cold bank), 2 row conflict; V2 = bank index; V3 bit 0 set
	// for a write, bit 1 set for a memory-side prefetch.
	KindDRAMAccess
	// KindDRAMRefresh: an auto-refresh window was applied to a bank
	// (lazily, on next access). V2 is the bank index.
	KindDRAMRefresh

	// KindCacheAccess: one demand access walked the hierarchy. V1 is
	// the satisfying level (1=L1, 2=L2, 3=L3, 4=memory); V2 is 1 for
	// a store.
	KindCacheAccess

	// KindCPUStall: a thread resumed after blocking on memory. V1 is
	// the stall duration in CPU cycles.
	KindCPUStall

	// KindASDEpochRoll: an ASD engine rolled its SLH epoch. V1 is the
	// completed-epoch count after the roll.
	KindASDEpochRoll
	// KindASDPrefetchDecision: the engine decided on a tracked Read.
	// V1 is the stream length so far, V2 the prefetch degree chosen
	// (0 = no prefetch).
	KindASDPrefetchDecision

	// KindSchedPolicy: the Adaptive Scheduler closed an epoch. V1 is
	// the policy selected for the next epoch, V2 the conflict count of
	// the closed epoch, V3 the previous policy.
	KindSchedPolicy

	numKinds
)

// kindNames indexes Kind.String.
//
//asd:exhaustive
var kindNames = [numKinds]string{
	"mc-enqueue", "mc-schedule", "mc-issue", "mc-complete", "mc-pb-hit",
	"mc-queues", "mc-bank-conflict", "mc-pf-nominate", "mc-pf-drop",
	"mc-pf-issue", "mc-pf-late", "mc-pf-install", "mc-pf-wasted",
	"dram-access", "dram-refresh", "cache-access", "cpu-stall",
	"asd-epoch-roll", "asd-decision", "sched-policy",
}

// NumKinds is the number of defined probe kinds.
const NumKinds = int(numKinds)

// DropCause classifies a KindMCPFDrop event (carried in V2): why a
// prefetch nomination was rejected or a queued prefetch discarded. The
// provenance layer stores it verbatim in OpDrop records.
type DropCause uint8

const (
	// DropUnknown is the zero value (events predating cause tagging).
	DropUnknown DropCause = iota
	// DropPBDup: the line is already staged in the Prefetch Buffer.
	DropPBDup
	// DropInFlightDup: a prefetch for the line is already in flight.
	DropInFlightDup
	// DropLPQDup: the line is already queued in the LPQ.
	DropLPQDup
	// DropDemandPending: a demand for the line is already pending.
	DropDemandPending
	// DropLPQFull: the LPQ is at capacity.
	DropLPQFull
	// DropWrite: a Write invalidated the queued prefetch.
	DropWrite
	// DropOvertaken: the demand Read arrived before the LPQ issued it.
	DropOvertaken
	// DropFlushed: the LPQ was flushed wholesale (mode transition).
	DropFlushed

	numDropCauses
)

//asd:exhaustive
var dropCauseNames = [numDropCauses]string{
	"unknown", "pb-dup", "inflight-dup", "lpq-dup", "demand-pending",
	"lpq-full", "write", "overtaken", "flushed",
}

// String implements fmt.Stringer.
func (c DropCause) String() string {
	if int(c) < len(dropCauseNames) {
		return dropCauseNames[c]
	}
	return "cause?"
}

// AtNomination reports whether the cause arises at nomination time (the
// same CPU cycle as the engine decision that produced the candidate),
// as opposed to later in the prefetch's queue lifetime.
func (c DropCause) AtNomination() bool { return c >= DropPBDup && c <= DropLPQFull }

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one probe firing. Cycle is always in CPU cycles (DRAM-side
// probes convert); the remaining fields are kind-specific, documented
// on each Kind.
type Event struct {
	Kind   Kind
	Thread int32
	Cycle  uint64
	ID     uint64
	Line   mem.Line
	V1     int64
	V2     int64
	V3     int64
}

// Sink consumes events. Emit is called from the simulation goroutine
// in probe-firing order; a sink shared across concurrent simulations
// must be safe for concurrent use.
type Sink interface {
	Emit(Event)
}

// Bus fans events out to its sinks in attach order. A nil *Bus is the
// disabled state: components guard emission sites with a nil check, so
// the probe compiles to one branch when observability is off.
type Bus struct {
	sinks []Sink
}

// NewBus returns a bus with the given sinks attached, in order.
func NewBus(sinks ...Sink) *Bus {
	b := &Bus{}
	for _, s := range sinks {
		b.Attach(s)
	}
	return b
}

// Attach appends a sink; events reach sinks in attach order. Attach
// must not race with Emit (attach everything before the run starts).
func (b *Bus) Attach(s Sink) {
	if s == nil {
		panic("obs: attach of nil sink")
	}
	b.sinks = append(b.sinks, s)
}

// Emit delivers e to every sink in attach order. Safe on a nil bus.
//
//asd:hotpath
func (b *Bus) Emit(e Event) {
	if b == nil {
		return
	}
	for _, s := range b.sinks {
		s.Emit(e)
	}
}

// Enabled reports whether emitting can reach any sink. Components may
// use it to skip building expensive payloads; the common per-probe
// guard is a plain `bus != nil` check.
func (b *Bus) Enabled() bool { return b != nil && len(b.sinks) > 0 }

// Counter is a trivial concurrency-safe sink counting events per kind;
// useful in tests and as a liveness check on shared buses.
type Counter struct {
	counts [numKinds]atomic.Uint64
}

// Emit implements Sink.
//
//asd:hotpath
func (c *Counter) Emit(e Event) {
	if int(e.Kind) < len(c.counts) {
		c.counts[e.Kind].Add(1)
	}
}

// Count returns the number of events seen for kind k.
func (c *Counter) Count(k Kind) uint64 {
	if int(k) >= len(c.counts) {
		return 0
	}
	return c.counts[k].Load()
}

// Total returns the number of events seen across all kinds.
func (c *Counter) Total() uint64 {
	var n uint64
	for i := range c.counts {
		n += c.counts[i].Load()
	}
	return n
}

// Funcs adapts a function to a Sink.
type Funcs func(Event)

// Emit implements Sink.
//
//asd:hotpath
func (f Funcs) Emit(e Event) { f(e) }
