package sim

import (
	"context"
	"time"

	"asdsim/internal/cache"
	"asdsim/internal/cpu"
	"asdsim/internal/freelist"
	"asdsim/internal/trace"
	"asdsim/internal/workload"
)

// Batch runs matrix cells over shared materialized workload traces:
// each benchmark's trace is generated once (per seed, thread and
// budget) and every (mode, engine, depth) cell replays it through a
// private cursor. Record consumption depends only on the trace and the
// instruction budget, never on memory-system timing, so the only thing
// shared between cells is immutable trace data. Every run goes through
// a Batch: sim.Run is a one-cell Batch.
//
// A Batch holds only its trace cache. Cache hierarchies are recycled
// across every run in the process, through any Batch (see hierarchies).
//
// A Batch is safe for concurrent use: cells may run in parallel from
// many goroutines against one Batch.
type Batch struct {
	cache *workload.TraceCache
}

// NewBatch returns a Batch with a default-bounded trace cache.
func NewBatch() *Batch {
	return &Batch{cache: workload.NewTraceCache(0)}
}

// hierarchies is the process-wide free list of idle cache hierarchies,
// by geometry. A finished run hands its hierarchy back, and the next run
// of the same geometry, on any Batch and so also a one-cell Run,
// RunContext or Sampled, Resets and reuses it instead of allocating and
// zeroing the tag arrays again (~2.8 MB at the default geometry).
var hierarchies freelist.List[cache.Config, *cache.Hierarchy]

// CacheStats reports trace-cache effectiveness: (Misses) traces
// generated, (Hits) cells that reused one.
func (b *Batch) CacheStats() workload.TraceCacheStats { return b.cache.Stats() }

// Run simulates benchmark bench under cfg, reusing the batch's
// materialized trace for (bench, cfg.Seed, cfg.Threads, cfg.InstrBudget)
// across calls.
func (b *Batch) Run(bench string, cfg Config) (Result, error) {
	return b.RunContext(context.Background(), bench, cfg)
}

// RunContext is Run with cancellation: trace generation and the
// simulation both poll ctx and abort promptly with ctx's error when it
// is cancelled or its deadline passes.
func (b *Batch) RunContext(ctx context.Context, bench string, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	start := time.Now() //asd:allow determinism wall-clock throughput stamp; excluded from serialized Results
	r, err := b.buildRunner(ctx, bench, cfg, takeHierarchy)
	if err != nil {
		return Result{}, err
	}
	defer releaseHierarchy(r)
	if err := r.loop(ctx); err != nil {
		return Result{}, err
	}
	res := r.collect(bench)
	res.stamp(start)
	return res, nil
}

// buildRunner assembles a runner whose threads replay the batch's
// materialized traces through private cursors, with the ground-truth
// stream-length histograms injected from materialization time, on a
// hierarchy from newHier: takeHierarchy for a run, cache.NewHierarchy
// for a test that must not touch the free list. It fetches every trace
// before it gets the hierarchy, so a run that fails or is cancelled
// while its trace materializes takes none.
func (b *Batch) buildRunner(ctx context.Context, bench string, cfg Config, newHier func(cache.Config) *cache.Hierarchy) (*runner, error) {
	prof, err := workload.ByName(bench)
	if err != nil {
		return nil, err
	}
	mts := make([]*workload.MaterializedTrace, 0, 2)
	for t := 0; t < cfg.Threads; t++ {
		mt, err := b.cache.Get(ctx, prof, cfg.Seed, t, cfg.InstrBudget)
		if err != nil {
			return nil, err
		}
		mts = append(mts, mt)
	}
	r := newRunnerShell(cfg, newHier(cfg.Cache))
	for t, mt := range mts {
		src := trace.NewSliceSource(mt.Records)
		th := cpu.NewThread(t, src, cpu.Config{
			Window:             cfg.Window,
			MaxOutstanding:     cfg.MaxOutstanding,
			BudgetInstructions: cfg.InstrBudget,
		})
		th.SetObserver(r.cfg.Obs)
		r.threads = append(r.threads, th)
		r.trueLens = append(r.trueLens, mt.TrueLengths)
		r.ffRecs = append(r.ffRecs, mt.Records)
		r.ffSrcs = append(r.ffSrcs, src)
	}
	return r, nil
}

// takeHierarchy returns an idle hierarchy of geometry cfg, Reset, or a
// new one when none is idle.
func takeHierarchy(cfg cache.Config) *cache.Hierarchy {
	h, ok := hierarchies.Take(cfg)
	if !ok {
		return cache.NewHierarchy(cfg)
	}
	h.Reset()
	return h
}

// releaseHierarchy hands a finished runner's hierarchy back for the
// next run, detached from the run's probe bus so the idle hierarchy
// does not keep the run's sinks alive.
func releaseHierarchy(r *runner) {
	r.hier.SetObserver(nil)
	hierarchies.Put(r.cfg.Cache, r.hier)
}
