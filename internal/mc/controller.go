// Package mc models the Power5+ memory controller of the paper's Figs. 1
// and 4: Read/Write Reorder Queues feeding a Centralized Arbiter Queue
// (CAQ) through a scheduler, extended with the paper's memory-side
// prefetcher — per-thread Stream Filter + Prefetch Generator, a Low
// Priority Queue (LPQ), a Prefetch Buffer, and a Final Scheduler that
// arbitrates prefetches against regular commands under Adaptive
// Scheduling.
//
// The controller is the simulator's innermost loop (one Step per MC
// cycle across every run of a farm sweep), so its data structures are
// allocation-free in steady state: command and prefetch state objects
// come from freelist pools, the queues are fixed-capacity ring buffers,
// and each line's DRAM (bank, row) decode is computed once at admission
// and carried with the command.
package mc

import (
	"fmt"

	"asdsim/internal/core"
	"asdsim/internal/dram"
	"asdsim/internal/mem"
	"asdsim/internal/obs"
	"asdsim/internal/prefetch"
)

// Config parameterises the controller.
type Config struct {
	// ReadQueueCap and WriteQueueCap size the Reorder Queues.
	ReadQueueCap  int
	WriteQueueCap int
	// CAQCap is the Centralized Arbiter Queue depth (3 on the Power5+).
	CAQCap int
	// LPQCap is the Low Priority Queue depth; the paper gives it "the
	// same number of entries — 3 — as the CAQ".
	LPQCap int
	// PBLines and PBAssoc size the Prefetch Buffer (16 lines, 2 KB).
	PBLines int
	PBAssoc int
	// PBHitLatency is the CPU-cycle latency of a Read satisfied by the
	// Prefetch Buffer (an on-chip MC round trip instead of DRAM).
	PBHitLatency uint64
	// Overhead is the fixed CPU-cycle cost added to every DRAM round
	// trip (controller traversal, bus transfer back to the chip).
	Overhead uint64
	// Scheduler selects the Reorder-Queue scheduling algorithm.
	Scheduler SchedulerKind
}

// DefaultConfig matches the paper's evaluated configuration.
func DefaultConfig() Config {
	return Config{
		ReadQueueCap:  8,
		WriteQueueCap: 8,
		CAQCap:        3,
		LPQCap:        3,
		PBLines:       16,
		PBAssoc:       4,
		PBHitLatency:  24,
		Overhead:      150,
		Scheduler:     SchedAHB,
	}
}

// MaxQueueCap bounds ReadQueueCap, WriteQueueCap, CAQCap and LPQCap.
// Each queue is a ring buffer sized up front to the next power of two
// at or above its capacity, and the controller scans its queues
// linearly, so the bound sits far above the paper's 3-8 entries while
// keeping a mistyped capacity from sizing a huge buffer.
const MaxQueueCap = 1 << 12

// MaxPBLines bounds PBLines (the fig14 sweep reaches 1024). The buffer's
// entries are allocated up front.
const MaxPBLines = 1 << 16

// Validate reports the first capacity New would reject: a Reorder
// Queue or CAQ capacity outside [1, MaxQueueCap] and, when prefetching,
// an LPQ capacity outside that range or a Prefetch Buffer whose lines
// are not a positive multiple of PBAssoc up to MaxPBLines.
func (c *Config) Validate(prefetching bool) error {
	for _, q := range [...]struct {
		name string
		n    int
	}{{"ReadQueueCap", c.ReadQueueCap}, {"WriteQueueCap", c.WriteQueueCap}, {"CAQCap", c.CAQCap}} {
		if err := checkQueueCap(q.name, q.n); err != nil {
			return err
		}
	}
	if !prefetching {
		return nil
	}
	if err := checkQueueCap("LPQCap", c.LPQCap); err != nil {
		return err
	}
	return checkPBGeometry(c.PBLines, c.PBAssoc)
}

// checkQueueCap reports a queue capacity outside [1, MaxQueueCap].
func checkQueueCap(name string, n int) error {
	if n <= 0 || n > MaxQueueCap {
		return fmt.Errorf("mc: %s %d outside [1, %d]", name, n, MaxQueueCap)
	}
	return nil
}

// checkPBGeometry reports a Prefetch Buffer geometry NewPBuffer cannot
// build: lines must be a positive multiple of a positive assoc, and at
// most MaxPBLines.
func checkPBGeometry(lines, assoc int) error {
	if lines <= 0 || assoc <= 0 || lines%assoc != 0 || lines > MaxPBLines {
		return fmt.Errorf("mc: prefetch buffer of %d lines is not a positive multiple of associativity %d up to %d lines",
			lines, assoc, MaxPBLines)
	}
	return nil
}

// cmdState wraps a queued regular command. Instances are pooled by the
// controller: a cmdState is live from Enqueue until its command leaves
// the system (PB hit, prefetch merge, write issue, or demand-read
// completion) and is then recycled.
type cmdState struct {
	cmd mem.Command
	// dec is the command line's DRAM (bank, row) decode, computed once
	// at Enqueue so bank queries along the command's life stop
	// re-dividing.
	dec             dram.Decoded
	isWrite         bool
	done            uint64 // completion cycle once issued to DRAM
	delayedCounted  bool
	conflictCounted bool
}

// pfState is one memory-side prefetch in the LPQ or in flight. Pooled
// like cmdState; the waiters slice keeps its capacity across recycles.
type pfState struct {
	line    mem.Line
	dec     dram.Decoded
	arrival uint64
	doneAt  uint64
	depth   int // 1 = line adjacent to the trigger
	// waiters are demand Reads that arrived while this prefetch was in
	// flight and were merged onto it.
	waiters []mem.Command
}

// ReadDoneFunc delivers a completed demand Read back to the CPU model.
type ReadDoneFunc func(cmd mem.Command, doneAtCPU uint64)

// Stats holds the controller's observable counters (Fig. 13 feeds from
// these).
type Stats struct {
	RegularReads     uint64 // demand Reads entering the MC
	RegularWrites    uint64
	PBHitsEntry      uint64 // Reads satisfied at the first PB check
	PBHitsLate       uint64 // Reads satisfied at the CAQ-head (second) check
	PFMergeHits      uint64 // Reads merged onto an in-flight prefetch
	PrefetchesToLPQ  uint64
	LPQDrops         uint64 // prefetch nominations dropped (full/duplicate)
	PrefetchesToDRAM uint64
	DelayedRegular   uint64 // regular commands delayed by a prefetch-held bank
	DRAMReads        uint64
	DRAMWrites       uint64
	// ReadLatencySum accumulates (completion - arrival) over demand
	// Reads served from DRAM, for mean-latency reporting.
	ReadLatencySum uint64
}

// Controller is the memory controller model.
type Controller struct {
	cfg      Config
	dram     *dram.DRAM
	engines  []prefetch.MSEngine // per-thread; nil slice disables MS prefetching
	adaptive *core.AdaptiveScheduler

	inbox  ring[*cmdState]
	readQ  ring[*cmdState]
	writeQ ring[*cmdState]
	caq    ring[*cmdState]
	lpq    ring[*pfState]

	inflight []*cmdState // demand reads issued to DRAM
	pfFlight []*pfState
	// nextDemandDone and nextPFDone cache the minimum completion cycle
	// across inflight/pfFlight (^uint64(0) when empty), so NextWake is
	// O(1) instead of scanning both lists. They are updated on insert
	// and recomputed during the completion passes' compaction sweep.
	nextDemandDone uint64
	nextPFDone     uint64

	// cmdPool and pfPool are freelists; merged is the scheduler's
	// reusable read+write scratch view.
	cmdPool []*cmdState
	pfPool  []*pfState
	merged  []*cmdState

	pb         *PBuffer
	arb        arbiter
	onReadDone ReadDoneFunc
	bus        *obs.Bus // nil when no observer is attached
	// queuesRead is the occupancy last read onto the bus (-1s before
	// the first reading).
	queuesRead [3]int64

	stats Stats
	steps uint64
}

// New returns a controller over d. engines supplies one memory-side
// prefetch engine per hardware thread (nil or empty disables memory-side
// prefetching). adaptive must be non-nil when engines are present. It
// panics on a cfg that Validate rejects.
func New(cfg Config, d *dram.DRAM, engines []prefetch.MSEngine, adaptive *core.AdaptiveScheduler) *Controller {
	if err := cfg.Validate(len(engines) > 0); err != nil {
		panic(err.Error())
	}
	if len(engines) > 0 && adaptive == nil {
		panic("mc: prefetching enabled without an adaptive scheduler")
	}
	c := &Controller{
		cfg: cfg, dram: d, engines: engines, adaptive: adaptive,
		inbox:          newRing[*cmdState](16),
		readQ:          newRing[*cmdState](cfg.ReadQueueCap),
		writeQ:         newRing[*cmdState](cfg.WriteQueueCap),
		caq:            newRing[*cmdState](cfg.CAQCap),
		lpq:            newRing[*pfState](max(cfg.LPQCap, 1)),
		nextDemandDone: ^uint64(0),
		nextPFDone:     ^uint64(0),
		queuesRead:     [3]int64{-1, -1, -1},
	}
	c.arb = newArbiter(cfg.Scheduler)
	if len(engines) > 0 {
		c.pb = NewPBuffer(cfg.PBLines, cfg.PBAssoc)
	}
	return c
}

// getCmd takes a cmdState from the pool (or allocates the pool's first
// generation).
func (c *Controller) getCmd() *cmdState {
	if n := len(c.cmdPool); n > 0 {
		s := c.cmdPool[n-1]
		c.cmdPool = c.cmdPool[:n-1]
		return s
	}
	return new(cmdState) //asd:allow hotpath-noalloc pool first-generation growth; steady state recycles via putCmd
}

// putCmd recycles a cmdState. Callers must be done with every field.
func (c *Controller) putCmd(s *cmdState) { c.cmdPool = append(c.cmdPool, s) }

// getPF takes a pfState from the pool, preserving waiters capacity.
func (c *Controller) getPF() *pfState {
	if n := len(c.pfPool); n > 0 {
		p := c.pfPool[n-1]
		c.pfPool = c.pfPool[:n-1]
		return p
	}
	return new(pfState) //asd:allow hotpath-noalloc pool first-generation growth; steady state recycles via putPF
}

// putPF recycles a pfState.
func (c *Controller) putPF(p *pfState) {
	p.waiters = p.waiters[:0]
	c.pfPool = append(c.pfPool, p)
}

// SetReadDone installs the completion callback for demand Reads.
func (c *Controller) SetReadDone(fn ReadDoneFunc) { c.onReadDone = fn }

// SetObserver attaches a probe bus (nil detaches). Every probe point
// is guarded by the bus's On, so a detached controller, or one whose
// bus has no sink for a probe's kind, pays one branch per probe.
func (c *Controller) SetObserver(b *obs.Bus) { c.bus = b }

// Stats returns a snapshot of the counters.
func (c *Controller) Stats() Stats { return c.stats }

// Steps returns how many times Step has run: the controller's work
// count, which depends only on the run's inputs.
func (c *Controller) Steps() uint64 { return c.steps }

// PB exposes the prefetch buffer (nil when MS prefetching is off).
func (c *Controller) PB() *PBuffer { return c.pb }

// Adaptive exposes the adaptive scheduler (may be nil).
func (c *Controller) Adaptive() *core.AdaptiveScheduler { return c.adaptive }

// Enqueue presents a command to the controller; it takes effect at the
// next Step. Commands are processed in Enqueue order.
//
//asd:hotpath
func (c *Controller) Enqueue(cmd mem.Command) {
	isWrite := cmd.Kind == mem.Write
	s := c.getCmd()
	*s = cmdState{cmd: cmd, dec: c.dram.Decode(cmd.Line), isWrite: isWrite}
	c.inbox.PushBack(s)
	if c.bus.On(obs.KindMCEnqueue) {
		var w int64
		if isWrite {
			w = 1
		}
		c.bus.Emit(obs.Event{Kind: obs.KindMCEnqueue, Cycle: cmd.Arrival, ID: cmd.ID,
			Line: cmd.Line, Thread: int32(cmd.Thread), V1: w})
	}
}

// NextWake returns the MC-aligned CPU cycle of the next Step that can
// change anything, never earlier than the next MC cycle; ^uint64(0)
// when the controller holds no work. A command in the inbox or a
// Reorder Queue wants the next cycle. That test reads the rings' counts
// directly, which keeps NextWake inlinable into the run loop; nextWake
// answers the rest.
//
//asd:hotpath
func (c *Controller) NextWake(cpuNow uint64) uint64 {
	if c.inbox.n+c.readQ.n+c.writeQ.n > 0 {
		return cpuNow + mem.CPUCyclesPerMCCycle
	}
	return c.nextWake(cpuNow)
}

// nextWake is NextWake with the inbox and Reorder Queues empty. Only
// three events can move the controller on, and it wakes at the
// earliest: a completion, the CAQ head's bank turning ready, and the
// LPQ head's bank turning ready while the active policy lets the LPQ
// issue under the current queues (they change only when the controller
// steps or flushes the LPQ). Two CAQ heads also want the next cycle: a
// Read the Prefetch Buffer holds, which the second PB check delivers,
// and a head not yet counted in DelayedRegular whose bank a prefetch
// still holds, which that Step counts.
func (c *Controller) nextWake(cpuNow uint64) uint64 {
	next := cpuNow + mem.CPUCyclesPerMCCycle
	wake := min(c.nextDemandDone, c.nextPFDone)
	if c.caq.Len() > 0 {
		head := c.caq.Front()
		if c.pb != nil && !head.isWrite && c.pb.Contains(head.cmd.Line) {
			return next
		}
		if busy, byPF := c.dram.BankBusyD(head.dec, next/mem.CPUCyclesPerDRAMCycle); busy && byPF && !head.delayedCounted {
			return next
		}
		wake = min(wake, c.dram.ReadyAtD(head.dec)*mem.CPUCyclesPerDRAMCycle)
	}
	if c.lpq.Len() > 0 && c.adaptive.Policy().Allows(c.queueState(next/mem.CPUCyclesPerDRAMCycle)) {
		wake = min(wake, c.dram.ReadyAtD(c.lpq.Front().dec)*mem.CPUCyclesPerDRAMCycle)
	}
	if wake == ^uint64(0) {
		return wake
	}
	return max(next, (wake+mem.CPUCyclesPerMCCycle-1)/mem.CPUCyclesPerMCCycle*mem.CPUCyclesPerMCCycle)
}

// FlushLPQ discards queued-but-unissued prefetches (counted as drops) at
// CPU cycle cpuNow. The run loop calls this when the processors have
// finished: with no more demand traffic arriving, a conservative policy
// such as caq-almost-empty (which waits for a full LPQ) could otherwise
// hold stragglers forever. The queues change here outside Step, so the
// flush reads them onto the probe bus itself.
func (c *Controller) FlushLPQ(cpuNow uint64) {
	c.stats.LPQDrops += uint64(c.lpq.Len())
	for i := 0; i < c.lpq.Len(); i++ {
		p := c.lpq.At(i)
		if c.bus.On(obs.KindMCPFDrop) {
			c.bus.Emit(obs.Event{Kind: obs.KindMCPFDrop, Cycle: p.arrival,
				Line: p.line, V1: int64(p.depth), V2: int64(obs.DropFlushed)})
		}
		c.putPF(p)
	}
	c.lpq.Clear()
	if c.bus.On(obs.KindMCQueues) {
		c.emitQueues(cpuNow)
	}
}

// Step advances the controller by one MC cycle ending at CPU cycle
// cpuNow. Callers step at mem.CPUCyclesPerMCCycle granularity.
//
// Step calls a stage only when it holds work: a completion due by
// cpuNow, a command in the inbox, the Reorder Queues, the CAQ or the
// LPQ, or a bus that reads the queue occupancy. The guards read the
// rings' counts directly, as NextWake does, and each stage relies on
// its guard here.
//
//asd:hotpath
func (c *Controller) Step(cpuNow uint64) {
	c.steps++
	dramNow := cpuNow / mem.CPUCyclesPerDRAMCycle
	c.dram.ObserveCycle(dramNow)
	if c.nextPFDone <= cpuNow {
		c.completePrefetches(cpuNow)
	}
	if c.nextDemandDone <= cpuNow {
		c.completeDemands(cpuNow)
	}
	if c.inbox.n > 0 {
		c.drainInbox(cpuNow)
	}
	if c.readQ.n+c.writeQ.n > 0 {
		if c.adaptive != nil {
			c.countConflicts(cpuNow, dramNow)
		}
		if c.caq.n < c.cfg.CAQCap {
			c.scheduleToCAQ(cpuNow, dramNow)
		}
	}
	if c.caq.n+c.lpq.n > 0 {
		c.finalIssue(cpuNow, dramNow)
	}
	for _, e := range c.engines {
		e.Tick(cpuNow)
	}
	if c.bus.On(obs.KindMCQueues) {
		c.emitQueues(cpuNow)
	}
}

// emitQueues reads the queue occupancy onto the probe bus when it
// differs from the last reading, which holds until then. Callers check
// that the bus reads KindMCQueues.
func (c *Controller) emitQueues(cpuNow uint64) {
	q := [3]int64{int64(c.readQ.Len() + c.writeQ.Len()), int64(c.caq.Len()), int64(c.lpq.Len())}
	if q != c.queuesRead {
		c.queuesRead = q
		c.bus.Emit(obs.Event{Kind: obs.KindMCQueues, Cycle: cpuNow, V1: q[0], V2: q[1], V3: q[2]})
	}
}

// drainInbox admits commands into the Reorder Queues, performing the
// first Prefetch Buffer check and prefetch-merge check for Reads and the
// PB invalidation rule for Writes. Step calls it with a non-empty inbox.
func (c *Controller) drainInbox(cpuNow uint64) {
	for c.inbox.Len() > 0 {
		s := c.inbox.Front()
		if s.isWrite {
			if c.writeQ.Len() >= c.cfg.WriteQueueCap {
				return
			}
			c.inbox.PopFront()
			c.stats.RegularWrites++
			if c.pb != nil {
				if dropped, depth := c.pb.InvalidateForWrite(s.cmd.Line); dropped && c.bus.On(obs.KindMCPFWasted) {
					c.bus.Emit(obs.Event{Kind: obs.KindMCPFWasted, Cycle: cpuNow,
						Line: s.cmd.Line, V1: int64(depth), V2: 1})
				}
			}
			c.dropPendingPrefetch(s.cmd.Line, cpuNow, obs.DropWrite)
			c.writeQ.PushBack(s)
			continue
		}

		// Demand Read path. The Stream Filter sees every Read entering
		// the controller (Fig. 4), including ones the PB will satisfy.
		if c.readQ.Len() >= c.cfg.ReadQueueCap {
			return
		}
		c.inbox.PopFront()
		c.stats.RegularReads++
		if c.adaptive != nil {
			c.adaptive.OnRead(cpuNow)
		}
		c.observeRead(s.cmd, cpuNow)

		if c.pb != nil {
			if hit, depth := c.pb.TakeForRead(s.cmd.Line); hit {
				// First PB check: satisfied without DRAM; the Read is
				// squashed.
				c.stats.PBHitsEntry++
				if c.bus.On(obs.KindMCPBHit) {
					c.bus.Emit(obs.Event{Kind: obs.KindMCPBHit, Cycle: cpuNow, ID: s.cmd.ID,
						Line: s.cmd.Line, Thread: int32(s.cmd.Thread), V2: int64(depth)})
				}
				c.deliver(s.cmd, cpuNow+c.cfg.PBHitLatency, false)
				c.putCmd(s)
				continue
			}
		}
		if pf := c.findInFlightPrefetch(s.cmd.Line); pf != nil {
			// The line is already on its way from DRAM: merge.
			c.stats.PFMergeHits++
			pf.waiters = append(pf.waiters, s.cmd)
			c.putCmd(s)
			continue
		}
		// A matching prefetch still waiting in the LPQ is squashed: the
		// demand Read will fetch the line itself, so issuing the
		// prefetch too would only waste a DRAM access.
		c.dropPendingPrefetch(s.cmd.Line, cpuNow, obs.DropOvertaken)
		c.readQ.PushBack(s)
	}
}

// observeRead feeds the thread's ASD engine and files its nominations
// into the LPQ.
func (c *Controller) observeRead(cmd mem.Command, cpuNow uint64) {
	if len(c.engines) == 0 {
		return
	}
	eng := c.engines[cmd.Thread%len(c.engines)]
	for i, line := range eng.ObserveRead(cmd.Line, cpuNow) {
		c.nominatePrefetch(line, i+1, cpuNow)
	}
}

// nominatePrefetch files one prefetch candidate (depth lines beyond
// its trigger) into the LPQ unless it is redundant or the queue is
// full. The redundancy checks run in the same order as before cause
// tagging, so the first matching cause is the one reported.
func (c *Controller) nominatePrefetch(line mem.Line, depth int, cpuNow uint64) {
	cause := obs.DropUnknown
	switch {
	case c.pb.Contains(line):
		cause = obs.DropPBDup
	case c.findInFlightPrefetch(line) != nil:
		cause = obs.DropInFlightDup
	case c.lpqContains(line):
		cause = obs.DropLPQDup
	case c.demandPending(line):
		cause = obs.DropDemandPending
	case c.lpq.Len() >= c.cfg.LPQCap:
		cause = obs.DropLPQFull
	}
	if cause != obs.DropUnknown {
		c.stats.LPQDrops++
		if c.bus.On(obs.KindMCPFDrop) {
			c.bus.Emit(obs.Event{Kind: obs.KindMCPFDrop, Cycle: cpuNow, Line: line,
				V1: int64(depth), V2: int64(cause)})
		}
		return
	}
	p := c.getPF()
	*p = pfState{line: line, dec: c.dram.Decode(line), arrival: cpuNow, depth: depth, waiters: p.waiters}
	c.lpq.PushBack(p)
	c.stats.PrefetchesToLPQ++
	if c.bus.On(obs.KindMCPFNominate) {
		c.bus.Emit(obs.Event{Kind: obs.KindMCPFNominate, Cycle: cpuNow, Line: line, V1: int64(depth)})
	}
}

func (c *Controller) lpqContains(line mem.Line) bool {
	for i := 0; i < c.lpq.Len(); i++ {
		if c.lpq.At(i).line == line {
			return true
		}
	}
	return false
}

// demandPending reports whether a demand command for line is already
// queued or in flight (prefetching it would waste bandwidth).
func (c *Controller) demandPending(line mem.Line) bool {
	for i := 0; i < c.readQ.Len(); i++ {
		if c.readQ.At(i).cmd.Line == line {
			return true
		}
	}
	for i := 0; i < c.caq.Len(); i++ {
		if c.caq.At(i).cmd.Line == line {
			return true
		}
	}
	for _, s := range c.inflight {
		if s.cmd.Line == line {
			return true
		}
	}
	return false
}

func (c *Controller) findInFlightPrefetch(line mem.Line) *pfState {
	for _, p := range c.pfFlight {
		if p.line == line {
			return p
		}
	}
	return nil
}

// dropPendingPrefetch removes an un-issued LPQ entry for line, tagged
// with why: a Write makes prefetching it pointless (and the data would
// be stale), an overtaking demand Read will fetch the line itself.
func (c *Controller) dropPendingPrefetch(line mem.Line, cpuNow uint64, cause obs.DropCause) {
	for i := 0; i < c.lpq.Len(); i++ {
		if p := c.lpq.At(i); p.line == line {
			c.lpq.RemoveAt(i)
			c.stats.LPQDrops++
			if c.bus.On(obs.KindMCPFDrop) {
				c.bus.Emit(obs.Event{Kind: obs.KindMCPFDrop, Cycle: cpuNow, Line: line,
					V1: int64(p.depth), V2: int64(cause)})
			}
			c.putPF(p)
			return
		}
	}
}

// countConflicts implements the Adaptive Scheduling feedback (§3.5): each
// regular command in the Reorder Queues that cannot proceed because its
// bank is held by a previously issued prefetch counts once. Step calls
// it with an adaptive scheduler and non-empty Reorder Queues.
func (c *Controller) countConflicts(cpuNow, dramNow uint64) {
	for _, q := range [...]*ring[*cmdState]{&c.readQ, &c.writeQ} {
		for i := 0; i < q.Len(); i++ {
			s := q.At(i)
			if s.conflictCounted {
				continue
			}
			if busy, byPF := c.dram.BankBusyD(s.dec, dramNow); busy && byPF {
				s.conflictCounted = true
				c.adaptive.OnConflict()
				if c.bus.On(obs.KindMCBankConflict) {
					c.bus.Emit(obs.Event{Kind: obs.KindMCBankConflict, Cycle: cpuNow,
						ID: s.cmd.ID, Line: s.cmd.Line, Thread: int32(s.cmd.Thread)})
				}
				if !s.delayedCounted {
					s.delayedCounted = true
					c.stats.DelayedRegular++
				}
			}
		}
	}
}

// scheduleToCAQ moves at most one command per MC cycle from the Reorder
// Queues to the CAQ, per the configured scheduling algorithm. The
// arbiter sees one merged reads-then-writes view, rebuilt each cycle in
// a scratch slice that is reused across cycles. Step calls it with room
// in the CAQ and non-empty Reorder Queues.
func (c *Controller) scheduleToCAQ(cpuNow, dramNow uint64) {
	readLen := c.readQ.Len()
	merged := c.merged[:0]
	for i := 0; i < readLen; i++ {
		merged = append(merged, c.readQ.At(i))
	}
	for i := 0; i < c.writeQ.Len(); i++ {
		merged = append(merged, c.writeQ.At(i))
	}
	c.merged = merged
	idx := c.arb.pick(merged, c.dram, dramNow, c.writeQ.Len(), c.cfg.WriteQueueCap)
	if idx < 0 {
		return
	}
	chosen := merged[idx]
	c.arb.issued(chosen, c.dram)
	if idx < readLen {
		c.readQ.RemoveAt(idx)
	} else {
		c.writeQ.RemoveAt(idx - readLen)
	}
	c.caq.PushBack(chosen)
	if c.bus.On(obs.KindMCSchedule) {
		var w int64
		if chosen.isWrite {
			w = 1
		}
		c.bus.Emit(obs.Event{Kind: obs.KindMCSchedule, Cycle: cpuNow, ID: chosen.cmd.ID,
			Line: chosen.cmd.Line, Thread: int32(chosen.cmd.Thread), V1: w})
	}
}

// finalIssue is the Final Scheduler: it transmits the CAQ head to DRAM
// (performing the second Prefetch Buffer check first) and, when the
// active Adaptive Scheduling policy permits, issues the LPQ head instead.
// Step calls it when the CAQ or the LPQ holds a command.
func (c *Controller) finalIssue(cpuNow, dramNow uint64) {
	issued := false
	if c.caq.Len() > 0 {
		head := c.caq.Front()
		var lateHit bool
		var lateDepth int
		if !head.isWrite && c.pb != nil {
			lateHit, lateDepth = c.pb.TakeForRead(head.cmd.Line)
		}
		if lateHit {
			// Second PB check: the data arrived while the command sat
			// in the CAQ.
			c.stats.PBHitsLate++
			if c.bus.On(obs.KindMCPBHit) {
				c.bus.Emit(obs.Event{Kind: obs.KindMCPBHit, Cycle: cpuNow, ID: head.cmd.ID,
					Line: head.cmd.Line, Thread: int32(head.cmd.Thread), V1: 1, V2: int64(lateDepth)})
			}
			c.deliver(head.cmd, cpuNow+c.cfg.PBHitLatency, false)
			c.caq.PopFront()
			c.putCmd(head)
			issued = true // the CAQ slot consumed this cycle's transmit
		} else if c.dram.CanIssueD(head.dec, dramNow) {
			doneDRAM := c.dram.IssueD(head.cmd.Line, head.dec, head.isWrite, false, dramNow)
			doneCPU := doneDRAM*mem.CPUCyclesPerDRAMCycle + c.cfg.Overhead
			c.caq.PopFront()
			issued = true
			if c.bus.On(obs.KindMCIssue) {
				var w int64
				if head.isWrite {
					w = 1
				}
				c.bus.Emit(obs.Event{Kind: obs.KindMCIssue, Cycle: cpuNow, ID: head.cmd.ID,
					Line: head.cmd.Line, Thread: int32(head.cmd.Thread), V1: w, V2: int64(doneCPU)})
			}
			if head.isWrite {
				c.stats.DRAMWrites++
				c.putCmd(head)
			} else {
				c.stats.DRAMReads++
				head.done = doneCPU
				c.stats.ReadLatencySum += doneCPU - head.cmd.Arrival
				c.inflight = append(c.inflight, head)
				if doneCPU < c.nextDemandDone {
					c.nextDemandDone = doneCPU
				}
			}
		} else if busy, byPF := c.dram.BankBusyD(head.dec, dramNow); busy && byPF && !head.delayedCounted {
			head.delayedCounted = true
			c.stats.DelayedRegular++
			if c.bus.On(obs.KindMCBankConflict) {
				c.bus.Emit(obs.Event{Kind: obs.KindMCBankConflict, Cycle: cpuNow,
					ID: head.cmd.ID, Line: head.cmd.Line, Thread: int32(head.cmd.Thread)})
			}
		}
	}
	if issued || c.lpq.Len() == 0 || c.adaptive == nil {
		return
	}
	if !c.adaptive.Policy().Allows(c.queueState(dramNow)) {
		return
	}
	head := c.lpq.Front()
	if !c.dram.CanIssueD(head.dec, dramNow) {
		return
	}
	doneDRAM := c.dram.IssueD(head.line, head.dec, false, true, dramNow)
	head.doneAt = doneDRAM*mem.CPUCyclesPerDRAMCycle + c.cfg.Overhead
	c.lpq.PopFront()
	c.pfFlight = append(c.pfFlight, head)
	if head.doneAt < c.nextPFDone {
		c.nextPFDone = head.doneAt
	}
	c.stats.PrefetchesToDRAM++
	if c.bus.On(obs.KindMCPFIssue) {
		c.bus.Emit(obs.Event{Kind: obs.KindMCPFIssue, Cycle: cpuNow, Line: head.line,
			V1: int64(head.depth), V2: int64(head.doneAt)})
	}
}

// queueState snapshots the queues for a policy decision.
//
// ReorderHasIssuable is filled lazily: only the no-issuable policy's
// condition (2) can change outcome based on it — under every other
// policy the CAQ-empty test subsumes it (the policies are cumulative) —
// so only that policy pays the Reorder-Queue scan, and only when the
// scan can matter (CAQ empty, Reorder Queues non-empty).
func (c *Controller) queueState(dramNow uint64) core.QueueState {
	st := core.QueueState{
		CAQLen:     c.caq.Len(),
		ReorderLen: c.readQ.Len() + c.writeQ.Len(),
		LPQLen:     c.lpq.Len(),
		LPQCap:     c.cfg.LPQCap,
	}
	if c.adaptive.Policy() == core.PolicyNoIssuable && st.CAQLen == 0 && st.ReorderLen > 0 {
		st.ReorderHasIssuable = c.reorderHasIssuable(dramNow)
	}
	if st.LPQLen > 0 {
		st.LPQHeadArrival = c.lpq.Front().arrival
	}
	if st.CAQLen > 0 {
		st.CAQHeadArrival = c.caq.Front().cmd.Arrival
	}
	return st
}

// reorderHasIssuable reports whether any Reorder-Queue command's bank
// could accept it at dramNow.
func (c *Controller) reorderHasIssuable(dramNow uint64) bool {
	for i := 0; i < c.readQ.Len(); i++ {
		if c.dram.CanIssueD(c.readQ.At(i).dec, dramNow) {
			return true
		}
	}
	for i := 0; i < c.writeQ.Len(); i++ {
		if c.dram.CanIssueD(c.writeQ.At(i).dec, dramNow) {
			return true
		}
	}
	return false
}

// completePrefetches lands finished prefetches: merged waiters are
// delivered directly (the data moves on-chip, so it does not linger in
// the PB); otherwise the line is installed in the Prefetch Buffer.
// Survivors are compacted in one pass, which also refreshes the cached
// minimum completion cycle. Step calls it once the earliest prefetch
// is due.
func (c *Controller) completePrefetches(cpuNow uint64) {
	keep := c.pfFlight[:0]
	minDone := ^uint64(0)
	for _, p := range c.pfFlight {
		if p.doneAt > cpuNow {
			keep = append(keep, p)
			if p.doneAt < minDone {
				minDone = p.doneAt
			}
			continue
		}
		if len(p.waiters) > 0 {
			if c.bus.On(obs.KindMCPFLate) {
				c.bus.Emit(obs.Event{Kind: obs.KindMCPFLate, Cycle: p.doneAt, Line: p.line,
					V1: int64(p.depth), V2: int64(len(p.waiters))})
			}
			for _, w := range p.waiters {
				c.deliver(w, p.doneAt, true)
			}
			c.pb.Useful++
		} else {
			evicted, evictedLine, evictedDepth := c.pb.Insert(p.line, p.depth)
			if c.bus.On(obs.KindMCPFInstall) {
				c.bus.Emit(obs.Event{Kind: obs.KindMCPFInstall, Cycle: cpuNow, Line: p.line,
					V1: int64(p.depth)})
			}
			if evicted && c.bus.On(obs.KindMCPFWasted) {
				c.bus.Emit(obs.Event{Kind: obs.KindMCPFWasted, Cycle: cpuNow,
					Line: evictedLine, V1: int64(evictedDepth)})
			}
		}
		c.putPF(p)
	}
	clearTail(c.pfFlight, len(keep))
	c.pfFlight = keep
	c.nextPFDone = minDone
}

// completeDemands delivers finished demand Reads, compacting survivors
// in one pass and refreshing the cached minimum completion cycle.
func (c *Controller) completeDemands(cpuNow uint64) {
	if c.nextDemandDone > cpuNow {
		return
	}
	keep := c.inflight[:0]
	minDone := ^uint64(0)
	for _, s := range c.inflight {
		if s.done > cpuNow {
			keep = append(keep, s)
			if s.done < minDone {
				minDone = s.done
			}
			continue
		}
		c.deliver(s.cmd, s.done, false)
		c.putCmd(s)
	}
	clearTail(c.inflight, len(keep))
	c.inflight = keep
	c.nextDemandDone = minDone
}

// clearTail nils the slots past n so the shared backing array does not
// retain pooled objects' last positions (harmless for GC — the pool
// holds them anyway — but keeps aliasing obvious).
func clearTail[T any](s []T, n int) {
	var zero T
	for i := n; i < len(s); i++ {
		s[i] = zero
	}
}

func (c *Controller) deliver(cmd mem.Command, done uint64, merged bool) {
	if c.bus.On(obs.KindMCComplete) {
		var m int64
		if merged {
			m = 1
		}
		c.bus.Emit(obs.Event{Kind: obs.KindMCComplete, Cycle: done, ID: cmd.ID,
			Line: cmd.Line, Thread: int32(cmd.Thread), V1: int64(done - cmd.Arrival), V2: m})
	}
	if c.onReadDone != nil {
		c.onReadDone(cmd, done) //asd:allow hotpath-noalloc completion callback installed once at wiring time; the runner's handler is itself checked
	}
}

// Coverage returns the fraction of demand Reads satisfied by the
// memory-side prefetcher (PB hits at either check plus merges), the
// paper's Fig. 13 "coverage" metric.
func (c *Controller) Coverage() float64 {
	if c.stats.RegularReads == 0 {
		return 0
	}
	covered := c.stats.PBHitsEntry + c.stats.PBHitsLate + c.stats.PFMergeHits
	return float64(covered) / float64(c.stats.RegularReads)
}

// UsefulPrefetchFrac returns useful/(useful+wasted) over completed
// prefetches — Fig. 13's "useful prefetches".
func (c *Controller) UsefulPrefetchFrac() float64 {
	if c.pb == nil {
		return 0
	}
	denom := c.pb.Useful + c.pb.Wasted
	if denom == 0 {
		return 0
	}
	return float64(c.pb.Useful) / float64(denom)
}

// DelayedRegularFrac returns the fraction of regular commands delayed by
// memory-side prefetches — Fig. 13's third metric.
func (c *Controller) DelayedRegularFrac() float64 {
	total := c.stats.RegularReads + c.stats.RegularWrites
	if total == 0 {
		return 0
	}
	return float64(c.stats.DelayedRegular) / float64(total)
}
