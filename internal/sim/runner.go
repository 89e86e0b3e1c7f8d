package sim

import (
	"context"
	"errors"
	"fmt"
	"time"

	"asdsim/internal/cache"
	"asdsim/internal/core"
	"asdsim/internal/cpu"
	"asdsim/internal/dram"
	"asdsim/internal/mc"
	"asdsim/internal/mem"
	"asdsim/internal/obs"
	"asdsim/internal/prefetch"
	"asdsim/internal/stats"
	"asdsim/internal/trace"
)

// Result is the outcome of one simulation run.
type Result struct {
	Benchmark string
	Mode      Mode
	// Cycles is the execution time in CPU cycles (max over threads,
	// after draining outstanding memory traffic).
	Cycles       uint64
	Instructions uint64
	IPC          float64

	MC   mc.Stats
	DRAM dram.Stats

	// StallCycles is the total CPU cycles threads spent blocked on
	// memory.
	StallCycles uint64

	L1HitRate float64
	L2HitRate float64
	L3HitRate float64

	// Coverage, UsefulPrefetchFrac and DelayedRegularFrac are the Fig. 13
	// metrics (zero when memory-side prefetching is off).
	Coverage           float64
	UsefulPrefetchFrac float64
	DelayedRegularFrac float64

	// PSIssued counts processor-side prefetch requests.
	PSIssued uint64

	// TrueLengths is the generator's ground-truth stream-length
	// distribution; ApproxLengths is the Stream Filter's approximation;
	// LastEpochSLH is the final epoch's reads-weighted SLH (ASD engine
	// runs only).
	TrueLengths   *stats.Histogram
	ApproxLengths *stats.Histogram
	LastEpochSLH  *stats.Histogram
	// EpochSLHs is the per-epoch SLH history (populated only when
	// Config.ASD.KeepHistory is set and the ASD engine is in use).
	EpochSLHs []*stats.Histogram

	// PolicyEpochs reports adaptive-scheduling policy residency.
	PolicyEpochs [6]uint64

	// WallSeconds is the host wall-clock duration of the run and
	// CyclesPerSec the simulation rate derived from it. Both are
	// excluded from JSON: they vary run to run, and serialized Results
	// (e.g. the farm's cached artifacts, compared bit-for-bit by the
	// determinism tests) must depend only on simulated behavior.
	WallSeconds  float64 `json:"-"`
	CyclesPerSec float64 `json:"-"`
	// MCSteps counts memory-controller Steps, the kernel's main unit
	// of work. It is deterministic but describes the simulator, not the
	// simulated system, so it is excluded from JSON like WallSeconds.
	MCSteps uint64 `json:"-"`
}

// stamp fills the wall-clock fields from the run's start time.
func (res *Result) stamp(start time.Time) {
	res.WallSeconds = time.Since(start).Seconds() //asd:allow determinism wall-clock throughput stamp; excluded from serialized Results
	if res.WallSeconds > 0 {
		res.CyclesPerSec = float64(res.Cycles) / res.WallSeconds
	}
}

// flightKind classifies an outstanding memory-system read.
type flightKind int

const (
	flightDemand flightKind = iota
	flightPSL1
	flightPSL2
)

// waiter is a thread pending-entry attached to a flight.
type waiter struct {
	th     *cpu.Thread
	pendID uint64
}

// flight is one outstanding line fetch from the memory controller.
// Instances are pooled by the runner: a flight is live from the miss (or
// prefetch launch) until onReadDone retires it, and its waiters slice
// keeps its capacity across recycles.
type flight struct {
	line    mem.Line
	kind    flightKind
	dirty   bool
	needL1  bool
	waiters []waiter
	done    bool
	doneAt  uint64
}

// runner holds one simulation's live state.
type runner struct {
	cfg     Config
	threads []*cpu.Thread
	hier    *cache.Hierarchy
	dram    *dram.DRAM
	ctrl    *mc.Controller
	ps      *prefetch.PS
	engines []prefetch.MSEngine

	mcNow      uint64
	flights    flightTable
	flightPool []*flight
	psBusy     int
	cmdID      uint64
	lastLine   []mem.Line // per-thread last accessed line (PS observation)

	// trueLens are the per-thread ground-truth stream-length histograms
	// collected at trace materialization time; collect merges them.
	trueLens []*stats.Histogram

	// Fast-forward recent-line filter (sampled mode only, one table per
	// thread): a direct-mapped map of line -> last functional access
	// tick. A load to a line touched within ffRecentWindow accesses is
	// a guaranteed L1 hit (the L1 holds 4x as many lines as the window
	// admits distinct ones), so the cache walk is skipped.
	ffSeen   [][]mem.Line
	ffSeenAt [][]uint32
	ffTick   []uint32

	// ffRecs/ffSrcs expose each thread's materialized records and
	// cursor so reuse-bounded fast-forward can skip runs of records in
	// one bulk step instead of fetching them one at a time. A test
	// clears them to run the per-record reference loop instead.
	ffRecs [][]trace.Packed
	ffSrcs []*trace.Cursor
}

// flightTable maps each line being fetched to its flight. It is a
// packed slice of lines, scanned linearly, beside their flights: an
// entry is put on a demand miss or a PS launch and taken by onReadDone.
// It holds at most the threads' outstanding misses plus
// maxPSOutstanding (24 entries at the defaults, 32 with two threads),
// the bound a thread's own pending list already scans linearly. Nothing
// iterates it, so take moves the last entry into the hole.
type flightTable struct {
	lines   []mem.Line
	flights []*flight
}

// index returns the position of line's entry, or -1.
func (t *flightTable) index(l mem.Line) int {
	for i, x := range t.lines {
		if x == l {
			return i
		}
	}
	return -1
}

// get returns line's flight, or nil when the line is not in flight.
func (t *flightTable) get(l mem.Line) *flight {
	if i := t.index(l); i >= 0 {
		return t.flights[i]
	}
	return nil
}

// put adds f under f.line, which must not already be in flight.
func (t *flightTable) put(f *flight) {
	t.lines = append(t.lines, f.line)
	t.flights = append(t.flights, f)
}

// take removes line's entry and returns its flight, or nil when the
// line is not in flight.
func (t *flightTable) take(l mem.Line) *flight {
	i := t.index(l)
	if i < 0 {
		return nil
	}
	f, last := t.flights[i], len(t.lines)-1
	t.lines[i], t.flights[i] = t.lines[last], t.flights[last]
	t.lines, t.flights = t.lines[:last], t.flights[:last]
	return f
}

// getFlight takes a flight from the pool (preserving waiters capacity)
// and resets its fields.
func (r *runner) getFlight() *flight {
	if n := len(r.flightPool); n > 0 {
		f := r.flightPool[n-1]
		r.flightPool = r.flightPool[:n-1]
		*f = flight{waiters: f.waiters[:0]}
		return f
	}
	return new(flight) //asd:allow hotpath-noalloc pool first-generation growth; steady state recycles via putFlight
}

// putFlight recycles a retired flight. Safe to call from onReadDone even
// though loop() may still read f.done/f.doneAt afterwards: the pool only
// hands the object out again from execute/psMiss, which run strictly
// after those reads.
func (r *runner) putFlight(f *flight) { r.flightPool = append(r.flightPool, f) }

// maxPSOutstanding bounds in-flight processor-side prefetches: eight
// concurrent streams, each keeping an L1-bound and an L2-bound line in
// flight.
const maxPSOutstanding = 16

// ErrDeadlock reports that the simulated memory system reached a state
// where a thread waits on a line that can never arrive — a model bug or
// an inconsistent configuration, never a transient condition.
var ErrDeadlock = errors.New("sim: memory-system deadlock")

// ctxCheckInterval is how many loop iterations pass between context
// cancellation checks; a power of two so the check compiles to a mask.
// A check costs a few nanoseconds against the tens of cycles an
// iteration simulates, and checking this often stops a cancelled run
// within a few thousand cycles, as a bundle replay that cancels at its
// trigger needs: the GemsFDTD/MS 400k replay, cancelled at cycle
// 300,038, stops by 301,063.
const ctxCheckInterval = 64

// Run simulates benchmark bench under cfg and returns the results. It
// is a one-cell Batch.
func Run(bench string, cfg Config) (Result, error) {
	return NewBatch().Run(bench, cfg)
}

// RunContext is Run with cancellation: trace generation and the
// simulation both poll ctx and abort promptly with ctx's error when it
// is cancelled or its deadline passes.
func RunContext(ctx context.Context, bench string, cfg Config) (Result, error) {
	return NewBatch().RunContext(ctx, bench, cfg)
}

// newRunnerShell wires the memory system (MC, DRAM, prefetchers) around
// hier, a cache hierarchy of geometry cfg.Cache in its reset state,
// without threads.
func newRunnerShell(cfg Config, hier *cache.Hierarchy) *runner {
	if cfg.Prov != nil {
		// The run's own bus carries Obs's sinks, then the recorder; cfg
		// is the run's copy, so the caller's Obs stays as it was.
		cfg.Obs = cfg.Obs.With(cfg.Prov)
	}
	r := &runner{cfg: cfg, hier: hier, lastLine: make([]mem.Line, cfg.Threads)}
	r.dram = dram.New(cfg.DRAM)

	var adaptive *core.AdaptiveScheduler
	if cfg.msEnabled() {
		for t := 0; t < cfg.Threads; t++ {
			eng := newEngine(cfg)
			if o, ok := eng.(interface{ SetObserver(*obs.Bus) }); ok {
				o.SetObserver(cfg.Obs)
			}
			if cfg.Prov != nil {
				if e, ok := eng.(*core.Engine); ok {
					e.SetProv(cfg.Prov, int32(t))
				}
			}
			r.engines = append(r.engines, eng)
		}
		adaptive = core.NewAdaptiveScheduler(cfg.Sched)
		adaptive.SetObserver(cfg.Obs)
	}
	r.ctrl = mc.New(cfg.MC, r.dram, r.engines, adaptive)
	r.ctrl.SetReadDone(r.onReadDone)
	r.ctrl.SetObserver(cfg.Obs)
	r.hier.SetObserver(cfg.Obs)
	r.dram.SetObserver(cfg.Obs)

	if cfg.psEnabled() {
		r.ps = prefetch.NewPS(cfg.PS)
	}
	return r
}

// newEngine builds the configured memory-side engine.
func newEngine(cfg Config) prefetch.MSEngine {
	switch cfg.Engine {
	case EngineASD:
		return core.NewEngine(cfg.ASD)
	case EngineNextLine:
		return prefetch.NewNextLine()
	case EngineP5Style:
		return prefetch.NewP5Style(prefetch.DefaultP5StyleConfig())
	case EngineGHB:
		return prefetch.NewGHB(prefetch.DefaultGHBConfig())
	default:
		panic(fmt.Sprintf("sim: unknown engine kind %d", int(cfg.Engine)))
	}
}

// loop runs all threads to completion and drains the memory system. It
// returns ctx's error when cancelled mid-run, or a model-invariant error
// (e.g. ErrDeadlock) instead of crashing the process, so one bad
// configuration cannot take down a whole batch.
func (r *runner) loop(ctx context.Context) error {
	if err := r.loopUntil(ctx, ^uint64(0)); err != nil {
		return err
	}
	return r.drainMC(ctx)
}

// loopUntil runs the event loop until every thread has either finished
// or retired at least target instructions. With target == ^uint64(0) it
// is the full run loop; the sampled-simulation driver calls it with
// window boundaries to run bounded detailed segments.
func (r *runner) loopUntil(ctx context.Context, target uint64) error {
	done := ctx.Done()
	var tick uint
	for {
		if tick++; done != nil && tick%ctxCheckInterval == 0 {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		th, b := r.pickRunnable(target)
		if th == nil {
			break // all threads finished or past target
		}
		if b != nil {
			f := r.flights.get(b.Line)
			if f == nil {
				return fmt.Errorf("%w: thread %d blocked on line %d with no flight", ErrDeadlock, th.ID, b.Line)
			}
			if err := r.stepUntilFlightDone(ctx, f); err != nil {
				return err
			}
			th.Resume(f.doneAt)
			continue
		}
		r.stepMCTo(th.Now)
		rec, ok := th.NextRecord()
		if !ok {
			continue
		}
		r.execute(th, rec)
	}
	return nil
}

// drainMC drains remaining memory traffic so power integration and
// thread completion times include the tail. Queued-but-unissued
// prefetches are dropped first: no further demand traffic will arrive
// to satisfy a policy that waits for queue conditions.
func (r *runner) drainMC(ctx context.Context) error {
	done := ctx.Done()
	var tick uint
	r.ctrl.FlushLPQ(r.mcNow)
	for wake := r.ctrl.NextWake(r.mcNow); wake != ^uint64(0); wake = r.ctrl.NextWake(r.mcNow) {
		if tick++; done != nil && tick%ctxCheckInterval == 0 {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		r.mcNow = wake
		r.ctrl.Step(wake)
	}
	return nil
}

// pickRunnable returns the unfinished thread with the smallest clock that
// is not blocked on memory (the smallest-clock one when all are
// blocked), or nil, with the request the picked thread is blocked on
// (nil when it can run), so the loop asks BlockedOn once per iteration.
// Threads at or past target instructions are treated as paused and
// never picked.
//
//asd:hotpath
func (r *runner) pickRunnable(target uint64) (*cpu.Thread, *cpu.Pending) {
	var best *cpu.Thread
	for _, th := range r.threads {
		if th.Finished() || th.Instructions >= target {
			continue
		}
		if best == nil || th.Now < best.Now {
			best = th
		}
	}
	if best == nil {
		return nil, nil
	}
	// Prefer a non-blocked thread when the min-clock one is blocked.
	b := best.BlockedOn()
	if b != nil {
		for _, th := range r.threads {
			if th != best && !th.Finished() && th.Instructions < target && th.BlockedOn() == nil {
				return th, nil
			}
		}
	}
	return best, b
}

// stepMCTo processes memory-controller work in the background up to CPU
// cycle target, stepping only at the controller's wakes, then moves the
// clock to target's MC cycle.
//
//asd:hotpath
func (r *runner) stepMCTo(target uint64) {
	for wake := r.ctrl.NextWake(r.mcNow); wake <= target; wake = r.ctrl.NextWake(r.mcNow) {
		r.mcNow = wake
		r.ctrl.Step(wake)
	}
	if aligned := target - target%mem.CPUCyclesPerMCCycle; aligned > r.mcNow {
		r.mcNow = aligned
	}
}

// stepUntilFlightDone advances the MC until flight f completes.
func (r *runner) stepUntilFlightDone(ctx context.Context, f *flight) error {
	done := ctx.Done()
	var tick uint
	for !f.done {
		if tick++; done != nil && tick%ctxCheckInterval == 0 {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		wake := r.ctrl.NextWake(r.mcNow)
		if wake == ^uint64(0) {
			return fmt.Errorf("%w: waiting for line %d with idle memory controller", ErrDeadlock, f.line)
		}
		r.mcNow = wake
		r.ctrl.Step(wake)
	}
	return nil
}

// execute resolves one trace record for thread th.
//
//asd:hotpath
func (r *runner) execute(th *cpu.Thread, rec trace.Record) {
	line := mem.LineOf(rec.Addr)
	store := rec.Op == trace.Store
	res := r.hier.Access(line, store, th.Now)
	r.enqueueWritebacks(res.Writebacks, th)

	// The PS unit watches the demand reference stream at line granularity
	// (hits on previously prefetched lines must keep a stream alive, or
	// the unit would lose every stream it successfully covers).
	psObserve := r.ps != nil && line != r.lastLine[th.ID]
	if r.ps != nil {
		r.lastLine[th.ID] = line
	}

	if res.Level != cache.Memory {
		if !store && res.Level != cache.LevelL1 {
			th.ChargeHit(res.Latency / r.cfg.HitOverlap)
		}
		if psObserve {
			r.psMiss(th, line)
		}
		return
	}

	// Full miss: goes to the memory controller. The demand Read is filed
	// before any prefetches it triggers, so prefetch traffic never queues
	// ahead of the miss the CPU is about to block on.
	if f := r.flights.get(line); f != nil {
		// Line already inbound (demand from the other thread, or a PS
		// prefetch): merge.
		pendID := th.AddPending(line, !store)
		f.waiters = append(f.waiters, waiter{th: th, pendID: pendID})
		f.needL1 = true
		f.dirty = f.dirty || store
	} else {
		pendID := th.AddPending(line, !store)
		f := r.getFlight()
		f.line, f.kind, f.dirty, f.needL1 = line, flightDemand, store, true
		f.waiters = append(f.waiters, waiter{th: th, pendID: pendID})
		r.flights.put(f)
		r.enqueueRead(line, th.ID, th.Now)
	}
	if psObserve {
		r.psMiss(th, line)
	}
}

// psMiss feeds the processor-side prefetcher with an L1 miss and launches
// any prefetches it requests.
//
//asd:hotpath
func (r *runner) psMiss(th *cpu.Thread, line mem.Line) {
	for _, req := range r.ps.ObserveMiss(line, th.Now) {
		if r.hier.Contains(req.Line) {
			continue // already on chip
		}
		if r.flights.get(req.Line) != nil {
			continue // already inbound
		}
		if r.psBusy >= maxPSOutstanding {
			continue
		}
		kind := flightPSL2
		if req.IntoL1 {
			kind = flightPSL1
		}
		f := r.getFlight()
		f.line, f.kind, f.needL1 = req.Line, kind, req.IntoL1
		r.flights.put(f)
		r.psBusy++
		r.enqueueRead(req.Line, th.ID, th.Now)
	}
}

// enqueueRead files a Read with the memory controller.
//
//asd:hotpath
func (r *runner) enqueueRead(line mem.Line, thread int, now uint64) {
	r.cmdID++
	r.ctrl.Enqueue(mem.Command{Kind: mem.Read, Line: line, Thread: thread, Arrival: now, ID: r.cmdID})
}

// enqueueWritebacks files cast-out Writes.
//
//asd:hotpath
func (r *runner) enqueueWritebacks(lines []mem.Line, th *cpu.Thread) {
	for _, l := range lines {
		r.cmdID++
		r.ctrl.Enqueue(mem.Command{Kind: mem.Write, Line: l, Thread: th.ID, Arrival: th.Now, ID: r.cmdID})
	}
}

// onReadDone is the MC completion callback: it fills the caches, releases
// waiting threads, and retires the flight.
//
//asd:hotpath
func (r *runner) onReadDone(cmd mem.Command, at uint64) {
	f := r.flights.take(cmd.Line)
	if f == nil {
		return
	}
	f.done = true
	f.doneAt = at

	var wbs []mem.Line
	if f.kind == flightPSL2 && !f.needL1 {
		wbs = r.hier.FillL2Only(f.line)
	} else {
		wbs = r.hier.Fill(f.line, f.dirty)
	}
	if f.kind != flightDemand {
		r.psBusy--
	}
	for _, w := range f.waiters {
		w.th.Complete(w.pendID)
		if w.th.Finished() {
			w.th.DrainTo(at)
		}
	}
	// Writebacks caused by the fill enter the MC now.
	for _, l := range wbs {
		r.cmdID++
		r.ctrl.Enqueue(mem.Command{Kind: mem.Write, Line: l, Thread: cmd.Thread, Arrival: at, ID: r.cmdID})
	}
	r.putFlight(f)
}

// collect assembles the Result.
func (r *runner) collect(bench string) Result {
	res := Result{Benchmark: bench, Mode: r.cfg.Mode}
	for _, th := range r.threads {
		if th.Now > res.Cycles {
			res.Cycles = th.Now
		}
		res.Instructions += th.Instructions
		res.StallCycles += th.StallCycles
	}
	if res.Cycles > 0 {
		res.IPC = float64(res.Instructions) / float64(res.Cycles)
	}
	res.MC = r.ctrl.Stats()
	res.MCSteps = r.ctrl.Steps()
	res.DRAM = r.dram.Stats()
	res.L1HitRate = r.hier.L1.HitRate()
	res.L2HitRate = r.hier.L2.HitRate()
	res.L3HitRate = r.hier.L3.HitRate()
	res.Coverage = r.ctrl.Coverage()
	res.UsefulPrefetchFrac = r.ctrl.UsefulPrefetchFrac()
	res.DelayedRegularFrac = r.ctrl.DelayedRegularFrac()
	if r.ps != nil {
		res.PSIssued = r.ps.Issued
	}
	res.TrueLengths = stats.NewHistogram(16)
	for _, h := range r.trueLens {
		merge(res.TrueLengths, h)
	}
	if len(r.engines) > 0 {
		if eng, ok := r.engines[0].(*core.Engine); ok {
			res.ApproxLengths = eng.ApproxLengths.Clone()
			res.LastEpochSLH = eng.LastEpochSLH()
			res.EpochSLHs = eng.EpochHistory()
		}
	}
	if a := r.ctrl.Adaptive(); a != nil {
		res.PolicyEpochs = a.PolicyEpochs
	}
	return res
}

// merge adds src's buckets into dst.
func merge(dst, src *stats.Histogram) {
	for i := 1; i <= src.Buckets(); i++ {
		if c := src.Count(i); c > 0 {
			dst.ObserveN(i, c)
		}
	}
}
