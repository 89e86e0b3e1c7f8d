package mc

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"asdsim/internal/core"
	"asdsim/internal/mem"
	"asdsim/internal/obs"
	"asdsim/internal/prefetch"
)

// TestNextWakeIdleAfterDrain: once all traffic has drained, the cached
// completion minima must have been reset — a stale minimum would make an
// idle controller report a bogus wake.
func TestNextWakeIdleAfterDrain(t *testing.T) {
	h := noPF(t)
	h.read(100)
	h.run(100000)
	if h.holdsWork() {
		t.Fatal("controller still holds work after drain")
	}
	if w := h.c.NextWake(h.now); w != ^uint64(0) {
		t.Errorf("drained controller NextWake = %d, want ^uint64(0)", w)
	}
}

// TestNextWakeInFlightSkipsIdleCycles: with only in-flight DRAM traffic,
// the wake jumps past the dead cycles, and stepping straight there
// completes the read at the same cycle dense stepping would.
func TestNextWakeInFlightSkipsIdleCycles(t *testing.T) {
	mk := func() (*harness, uint64) {
		h := noPF(t)
		id := h.read(100)
		// Step until the command has left the queues for DRAM.
		for i := 0; i < 16 && len(h.c.inflight) == 0; i++ {
			h.now += mem.CPUCyclesPerMCCycle
			h.c.Step(h.now)
		}
		if len(h.c.inflight) != 1 {
			t.Fatal("read never issued to DRAM")
		}
		return h, id
	}

	dense, id := mk()
	dense.run(100000)
	doneAt, ok := dense.done[id]
	if !ok {
		t.Fatal("dense harness never completed the read")
	}

	fast, id2 := mk()
	wake := fast.c.NextWake(fast.now)
	if wake == ^uint64(0) {
		t.Fatal("NextWake idle with a read in flight")
	}
	if wake <= fast.now+mem.CPUCyclesPerMCCycle {
		t.Errorf("NextWake = %d, expected to skip past cycle %d (DRAM latency is tens of cycles)",
			wake, fast.now+mem.CPUCyclesPerMCCycle)
	}
	// Step at the wake cycle itself, as the runner does.
	fast.now = wake
	fast.c.Step(fast.now)
	if got, ok := fast.done[id2]; !ok || got != doneAt {
		t.Errorf("stepping at the wake completed the read at %d (done %v), dense at %d", got, ok, doneAt)
	}
}

// denseTo steps the controller every MC cycle up to CPU cycle target
// while it holds work, then moves the clock to target's MC cycle. It is
// the reference the fast-forward must match; like the run loop, it
// crosses idle gaps without stepping.
func (h *harness) denseTo(target uint64) {
	for h.now+mem.CPUCyclesPerMCCycle <= target && h.holdsWork() {
		h.now += mem.CPUCyclesPerMCCycle
		h.c.Step(h.now)
	}
	h.now = max(h.now, target-target%mem.CPUCyclesPerMCCycle)
}

// denseDrain drops the LPQ, as the run loop's drain does, and steps
// every MC cycle until the controller is empty.
func (h *harness) denseDrain() {
	h.c.FlushLPQ(h.now)
	for h.holdsWork() {
		h.now += mem.CPUCyclesPerMCCycle
		h.c.Step(h.now)
	}
}

// wake returns NextWake after checking it: no wake exactly when the
// controller holds no work, and otherwise an MC cycle after the clock.
func (h *harness) wake(t *testing.T) uint64 {
	t.Helper()
	w := h.c.NextWake(h.now)
	if (w == ^uint64(0)) == h.holdsWork() {
		t.Fatalf("cycle %d: NextWake %d with work held %v", h.now, w, h.holdsWork())
	}
	if w != ^uint64(0) && (w < h.now+mem.CPUCyclesPerMCCycle || w%mem.CPUCyclesPerMCCycle != 0) {
		t.Fatalf("cycle %d: NextWake %d is not a later MC cycle", h.now, w)
	}
	return w
}

// fastTo mirrors the run loop: it steps only at NextWake cycles up to
// target, then moves the clock to target's MC cycle.
func (h *harness) fastTo(t *testing.T, target uint64) {
	t.Helper()
	for w := h.wake(t); w <= target; w = h.wake(t) {
		h.now = w
		h.c.Step(w)
	}
	h.now = max(h.now, target-target%mem.CPUCyclesPerMCCycle)
}

// fastDrain is denseDrain stepping only at NextWake cycles.
func (h *harness) fastDrain(t *testing.T) {
	t.Helper()
	h.c.FlushLPQ(h.now)
	for w := h.wake(t); w != ^uint64(0); w = h.wake(t) {
		h.now = w
		h.c.Step(w)
	}
}

// arrival is one command presented to the controller at a CPU cycle.
type arrival struct {
	at     uint64
	line   mem.Line
	thread int
	write  bool
}

func (h *harness) enqueue(a arrival) {
	h.next++
	kind := mem.Read
	if a.write {
		kind = mem.Write
	}
	h.c.Enqueue(mem.Command{Kind: kind, Line: a.line, Thread: a.thread, Arrival: a.at, ID: h.next})
}

// randomTraffic returns n seeded arrivals over four streams, one of them
// descending, split over two threads. Most arrivals continue a stream,
// which trains the engines and fills the LPQ; the rest re-read a
// stream's recent lines, write near its head (invalidating Prefetch
// Buffer lines and queued prefetches) or read a random line. Gaps mix
// bursts that fill the queues, DRAM-scale pauses, and idle spans long
// enough for stream slots to expire and refreshes to fall due.
func randomTraffic(seed uint64, n int) []arrival {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	heads := []mem.Line{1 << 12, 3 << 14, 5 << 15, 7 << 16}
	dirs := []int{1, 1, -1, 1}
	out := make([]arrival, 0, n)
	var at uint64
	for len(out) < n {
		switch r := rng.IntN(100); {
		case r < 45:
			at += rng.Uint64N(8)
		case r < 92:
			at += 8 + rng.Uint64N(240)
		default:
			at += 256 + rng.Uint64N(4096)
		}
		s := rng.IntN(len(heads))
		a := arrival{at: at, thread: s % 2}
		switch r := rng.IntN(100); {
		case r < 70:
			heads[s] = heads[s].Next(dirs[s])
			a.line = heads[s]
		case r < 80:
			a.line = heads[s].Next(-dirs[s] * rng.IntN(4))
		case r < 90:
			a.line = heads[s].Next(rng.IntN(6) - 2)
			a.write = true
		default:
			a.line = mem.Line(rng.Uint64N(1 << 22))
		}
		out = append(out, a)
	}
	return out
}

// propertyHarness builds a controller with engines ASD engines under the
// given scheduler and policy (0 adapts). Short epochs let the adaptive
// policy move within a few thousand Reads.
func propertyHarness(t *testing.T, policy core.Policy, sched SchedulerKind, engines int) *harness {
	ecfg := core.DefaultConfig()
	ecfg.SLH.EpochLen = 128
	ecfg.MaxDegree = 2
	engs := make([]prefetch.MSEngine, engines)
	for i := range engs {
		engs[i] = core.NewEngine(ecfg)
	}
	adaptive := core.NewAdaptiveScheduler(core.SchedulerConfig{
		EpochReads: 128, RaiseThreshold: 4, LowerThreshold: 1, Fixed: policy})
	cfg := DefaultConfig()
	cfg.Scheduler = sched
	return newHarness(t, engs, adaptive, cfg)
}

// sameOutcome requires two harnesses to agree on everything the
// controller decides: completion cycles and order, its counters, the
// DRAM's counters and energy, the adaptive scheduler's conflicts and
// policy residency, and the Prefetch Buffer's useful and wasted counts.
func sameOutcome(t *testing.T, dense, fast *harness) {
	t.Helper()
	if !reflect.DeepEqual(dense.done, fast.done) {
		t.Errorf("completion cycles diverge:\ndense: %v\nfast:  %v", dense.done, fast.done)
	}
	if !reflect.DeepEqual(dense.order, fast.order) {
		t.Errorf("completion order diverges:\ndense: %v\nfast:  %v", dense.order, fast.order)
	}
	if ds, fs := dense.c.Stats(), fast.c.Stats(); ds != fs {
		t.Errorf("mc stats diverge:\ndense: %+v\nfast:  %+v", ds, fs)
	}
	if ds, fs := dense.d.Stats(), fast.d.Stats(); ds != fs {
		t.Errorf("dram stats diverge:\ndense: %+v\nfast:  %+v", ds, fs)
	}
	if da, fa := dense.c.adaptive, fast.c.adaptive; da != nil &&
		(da.TotalConflicts != fa.TotalConflicts || da.PolicyEpochs != fa.PolicyEpochs) {
		t.Errorf("adaptive scheduler diverges: dense %d conflicts %v epochs, fast %d conflicts %v epochs",
			da.TotalConflicts, da.PolicyEpochs, fa.TotalConflicts, fa.PolicyEpochs)
	}
	if dp, fp := dense.c.pb, fast.c.pb; dp != nil && (dp.Useful != fp.Useful || dp.Wasted != fp.Wasted) {
		t.Errorf("prefetch buffer diverges: dense %d useful %d wasted, fast %d useful %d wasted",
			dp.Useful, dp.Wasted, fp.Useful, fp.Wasted)
	}
}

// sameQueueGauges requires the two samplers to agree window by window,
// time-weighted queue means and maxima included.
func sameQueueGauges(t *testing.T, dense, fast *obs.Sampler) {
	t.Helper()
	if ds, fs := dense.Samples(), fast.Samples(); !reflect.DeepEqual(ds, fs) {
		t.Errorf("sampler windows diverge:\ndense: %+v\nfast:  %+v", ds, fs)
	}
}

// TestNextWakeFastForwardMatchesDenseStepping drives pairs of identical
// controllers with seeded random traffic — one stepped every MC cycle,
// one stepped only at NextWake, as the run loop does — and requires
// identical outcomes and queue gauges. It covers the adaptive scheduler
// and each fixed policy, the three Reorder-Queue schedulers, and one and
// two engines, so each NextWake guard has traffic that needs it: a
// prefetch holding a new CAQ head's bank, an LPQ head that a policy lets
// issue while the CAQ holds work, and a policy that holds it back.
func TestNextWakeFastForwardMatchesDenseStepping(t *testing.T) {
	policies := []core.Policy{0, core.PolicyIdleSystem, core.PolicyNoIssuable,
		core.PolicyCAQEmpty, core.PolicyCAQAlmostEmpty, core.PolicyTimestamp}
	seed := uint64(0)
	for _, policy := range policies {
		for _, sched := range []SchedulerKind{SchedInOrder, SchedMemoryless, SchedAHB} {
			for engines := 1; engines <= 2; engines++ {
				seed++
				name := "adaptive"
				if policy != 0 {
					name = policy.String()
				}
				t.Run(fmt.Sprintf("%s/%s/%d-engine", name, sched, engines), func(t *testing.T) {
					dense := propertyHarness(t, policy, sched, engines)
					fast := propertyHarness(t, policy, sched, engines)
					denseObs, fastObs := obs.NewSampler(5000), obs.NewSampler(5000)
					dense.c.SetObserver(obs.NewBus(denseObs))
					fast.c.SetObserver(obs.NewBus(fastObs))
					reads := 0
					var at uint64
					for _, a := range randomTraffic(seed, 3000) {
						at = a.at
						dense.denseTo(at)
						fast.fastTo(t, at)
						dense.enqueue(a)
						fast.enqueue(a)
						if !a.write {
							reads++
						}
					}
					// Run on a little before draining, as a core does
					// after its last miss, so the drain starts between
					// wakes.
					dense.denseTo(at + 600)
					fast.fastTo(t, at+600)
					dense.denseDrain()
					fast.fastDrain(t)
					if len(dense.done) != reads {
						t.Errorf("%d of %d reads completed", len(dense.done), reads)
					}
					sameOutcome(t, dense, fast)
					sameQueueGauges(t, denseObs, fastObs)
				})
			}
		}
	}
}

// TestNextWakeFastForwardMatchesDenseSteppingPhases drives the two
// controllers through directed traffic phases: streams that trigger
// memory-side prefetching, re-reads that hit the Prefetch Buffer, and
// writes that invalidate it.
func TestNextWakeFastForwardMatchesDenseSteppingPhases(t *testing.T) {
	phases := [][]arrival{
		// Ascending stream: trains the ASD engine, stages prefetches.
		{{line: 100}, {line: 101}, {line: 102}, {line: 103}},
		// Continue the stream (likely PB hits) plus an unrelated read.
		{{line: 104}, {line: 105}, {line: 300}},
		// Writes into the prefetched range, then more reads.
		{{line: 106, write: true}, {line: 301}, {line: 107}},
	}
	dense := withASD(t)
	fast := withASD(t)
	var at uint64
	for _, phase := range phases {
		for _, a := range phase {
			a.at = at
			dense.enqueue(a)
			fast.enqueue(a)
		}
		// Run each phase dry before the next arrives.
		at += 200000
		dense.denseTo(at)
		fast.fastTo(t, at)
	}
	sameOutcome(t, dense, fast)
}

// TestNextWakeWakesForPBHeldCAQHead: a Read queued behind a same-bank
// CAQ head gets its line installed in the Prefetch Buffer while it
// waits. When the head issues, the Read becomes the head, and the next
// Step's second PB check must deliver it, long before its bank is free.
// No traffic reaches this state through Enqueue (a prefetch of a queued
// Read's line is dropped, and a queued Read merges onto one in flight),
// so the test installs the line itself.
func TestNextWakeWakesForPBHeldCAQHead(t *testing.T) {
	// Lines 0, 512 and 1024 share bank 0 on different rows: the first
	// holds the bank, the second waits at the CAQ head, the third
	// queues behind it.
	lines := []mem.Line{0, 512, 1024}
	dense, fast := withASD(t), withASD(t)
	for _, h := range []*harness{dense, fast} {
		for _, l := range lines {
			h.enqueue(arrival{line: l})
		}
	}
	at := uint64(4 * mem.CPUCyclesPerMCCycle)
	dense.denseTo(at)
	fast.fastTo(t, at)
	for _, h := range []*harness{dense, fast} {
		if h.c.caq.Len() != 2 || h.c.caq.At(1).cmd.Line != lines[2] {
			t.Fatalf("setup: CAQ holds %d commands, want the last two lines queued", h.c.caq.Len())
		}
		h.c.pb.Insert(lines[2], 1)
	}
	dense.denseDrain()
	fast.fastDrain(t)
	if dense.c.Stats().PBHitsLate != 1 {
		t.Fatalf("dense harness: %d late PB hits, want 1", dense.c.Stats().PBHitsLate)
	}
	sameOutcome(t, dense, fast)
}
