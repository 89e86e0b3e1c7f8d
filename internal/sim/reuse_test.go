package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"testing"
	"unsafe"

	"asdsim/internal/cache"
	"asdsim/internal/obs"
	"asdsim/internal/obs/flightrec"
	"asdsim/internal/obs/prov"
	"asdsim/internal/workload"
)

// tinyCache is a 4 KB/24 KB/48 KB, 4-way hierarchy: small enough that
// streaming benchmarks fill and evict L2 and L3 sets within a short
// cell, which the default geometry never does at golden budgets.
func tinyCache() cache.Config {
	c := cache.DefaultConfig()
	c.L1Size, c.L1Assoc = 4<<10, 4
	c.L2Size, c.L2Assoc = 24<<10, 4
	c.L3Size, c.L3Assoc = 48<<10, 4
	return c
}

// idleHierarchies counts the free list's idle hierarchies of geometry
// cfg, taking them all and handing them back in their order.
func idleHierarchies(cfg cache.Config) int {
	var idle []*cache.Hierarchy
	for h, ok := hierarchies.Take(cfg); ok; h, ok = hierarchies.Take(cfg) {
		idle = append(idle, h)
	}
	for i := len(idle) - 1; i >= 0; i-- {
		hierarchies.Put(cfg, idle[i])
	}
	return len(idle)
}

// freshRun runs one cell on a hierarchy straight from cache.NewHierarchy,
// leaving the free list untouched.
func freshRun(t *testing.T, bench string, cfg Config) Result {
	t.Helper()
	ctx := context.Background()
	r, err := NewBatch().buildRunner(ctx, bench, cfg, cache.NewHierarchy)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.loop(ctx); err != nil {
		t.Fatal(err)
	}
	return r.collect(bench)
}

// TestBatchReuseMatchesFreshBatch checks that a recycled hierarchy
// carries nothing from its previous cell into the next: after an
// eviction-heavy cell, every cell of several benchmarks x four modes run
// through the same Batch must serialize byte-identically to that cell
// run on a hierarchy straight from cache.NewHierarchy. The reference
// bypasses the process-wide free list, which would otherwise hand it a
// recycled hierarchy too.
func TestBatchReuseMatchesFreshBatch(t *testing.T) {
	before := idleHierarchies(tinyCache())
	b := NewBatch()
	heavy := Default(PMS, 300_000)
	heavy.Cache = tinyCache()
	if _, err := b.Run("bwaves", heavy); err != nil {
		t.Fatal(err)
	}
	for _, bench := range []string{"bwaves", "leslie3d", "GemsFDTD", "tpcc"} {
		for _, mode := range []Mode{NP, PS, MS, PMS} {
			cfg := Default(mode, 60_000)
			cfg.Cache = tinyCache()
			got, err := b.Run(bench, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := freshRun(t, bench, cfg)
			gj, _ := json.Marshal(got)
			wj, _ := json.Marshal(want)
			if !bytes.Equal(gj, wj) {
				t.Errorf("%s/%s: the reused hierarchy's Result differs from a fresh hierarchy's:\n%s\n%s", bench, mode, gj, wj)
			}
			// With the processor-side prefetcher on, the streaming
			// benchmarks hit in L2 and L3, so their sets fill and evict.
			streaming := (bench == "bwaves" || bench == "leslie3d") && (mode == PS || mode == PMS)
			if streaming && (want.L2HitRate == 0 || want.L3HitRate == 0) {
				t.Errorf("%s/%s: L2/L3 hit rates %v/%v; the geometry no longer fills L2 and L3 sets", bench, mode, want.L2HitRate, want.L3HitRate)
			}
		}
	}
	// Serial cells each take the hierarchy the previous one handed back,
	// so they leave the free list as they found it, plus the one
	// hierarchy the first cell built if none was idle. Earlier tests, or
	// the previous -count iteration, may have left some.
	if n, want := idleHierarchies(tinyCache()), max(before, 1); n != want {
		t.Errorf("%d idle hierarchies after serial cells, want %d: %d before, and every cell reusing one", n, want, before)
	}
}

// TestBatchCellAllocation is the allocation gate for a warm cell: once a
// Batch holds the traces and the free list a hierarchy, a cell
// allocates only its per-cell MC, DRAM, engine and PS state, not the
// ~2.8 MB of tag arrays a fresh hierarchy costs. A one-cell Run, which
// builds a fresh Batch and so materializes its trace again, must take
// its hierarchy from the free list too. A cancelled cell, which fails
// while fetching its trace, must not allocate a hierarchy either.
func TestBatchCellAllocation(t *testing.T) {
	const budget = 20_000
	const limit = 64 << 10
	type cell struct {
		bench string
		cfg   Config
	}
	var cells []cell
	for _, bench := range workload.FocusBenchmarks() {
		for _, mode := range []Mode{NP, PS, MS, PMS} {
			cells = append(cells, cell{bench, Default(mode, budget)})
		}
	}
	perCell := func(run func(c cell)) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, c := range cells {
			run(c)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / uint64(len(cells))
	}

	b := NewBatch()
	warm := func(c cell) {
		if _, err := b.Run(c.bench, c.cfg); err != nil {
			t.Fatal(err)
		}
	}
	perCell(warm) // materializes the traces and the first hierarchy
	if got := perCell(warm); got >= limit {
		t.Errorf("a warm cell allocates %d B, want under %d", got, limit)
	}

	oneCell := func(c cell) {
		if _, err := Run(c.bench, c.cfg); err != nil {
			t.Fatal(err)
		}
	}
	perCell(oneCell)
	if got := perCell(oneCell); got >= limit {
		t.Errorf("a one-cell Run allocates %d B, want under %d", got, limit)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got := perCell(func(c cell) {
		if _, err := NewBatch().RunContext(ctx, c.bench, c.cfg); err == nil {
			t.Fatal("a cancelled cell ran")
		}
	}); got >= limit {
		t.Errorf("a cancelled cell allocates %d B, want under %d", got, limit)
	}
}

// TestInstrumentedCellAllocation is the allocation gate for a warm
// instrumented cell: with the recorders asdsim -obs -flightrec -explain
// attaches (Sampler, DepthStats and flight recorder on the bus, plus
// provenance), a warm Batch cell must take the flight recorder's event
// ring and the provenance record ring from their free lists, not
// allocate and zero them, and Finish must hand the event ring back.
// What remains is the cell's own state, the sample windows, the epoch
// snapshots and the triage bundles' ring captures. Stream's copy of the
// retained records is checked on its own: it allocates only the records
// it returns.
func TestInstrumentedCellAllocation(t *testing.T) {
	const budget = 200_000
	const meanLimit, maxLimit = 320 << 10, 512 << 10
	type cell struct {
		bench string
		cfg   Config
	}
	var cells []cell
	for _, bench := range workload.FocusBenchmarks() {
		for _, mode := range []Mode{MS, PMS} {
			cells = append(cells, cell{bench, Default(mode, budget)})
		}
	}
	allocated := func() uint64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.TotalAlloc
	}
	b := NewBatch()
	pass := func(check bool) {
		var sum, worst uint64
		for _, c := range cells {
			start := allocated()
			flight := flightrec.New(flightrec.Options{Label: c.bench,
				Detectors: flightrec.DefaultDetectors(c.cfg.MC.CAQCap)})
			rec := prov.New(prov.Options{TraceID: c.bench})
			cfg := c.cfg
			cfg.Obs = obs.NewBus(obs.NewSampler(obs.DefaultSampleInterval), &obs.DepthStats{}, flight)
			cfg.Prov = rec
			if _, err := b.Run(c.bench, cfg); err != nil {
				t.Fatal(err)
			}
			flight.Finish()
			got := allocated() - start
			sum, worst = sum+got, max(worst, got)

			start = allocated()
			st := rec.Stream()
			copied := allocated() - start
			if records := uint64(len(st.Records)) * uint64(unsafe.Sizeof(prov.Record{})); check && (copied < records || copied > records+records/8+1024) {
				t.Errorf("%s/%s: Stream allocates %d B for %d B of records", c.bench, c.cfg.Mode, copied, records)
			}
		}
		if mean := sum / uint64(len(cells)); check && (mean >= meanLimit || worst >= maxLimit) {
			t.Errorf("a warm instrumented cell allocates %d B on average, at most %d B; want under %d and %d",
				mean, worst, meanLimit, maxLimit)
		}
		t.Logf("mean %d B, max %d B", sum/uint64(len(cells)), worst)
	}
	pass(false) // materializes the traces and fills the free lists
	pass(true)
}
