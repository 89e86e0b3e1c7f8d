package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestGoldenBatchMatchesSerial extends the golden determinism contract
// to trace sharing: every cell of the 22-cell golden matrix run through
// one Batch must serialize byte-identically to the committed golden
// Result of a one-cell sim.Run. The ten one-thread cells of a benchmark
// replay a single materialized trace, so no cell may leave state behind
// in it.
func TestGoldenBatchMatchesSerial(t *testing.T) {
	dir := filepath.Join("testdata", "golden")
	b := NewBatch()
	for _, bench := range []string{"GemsFDTD", "milc"} {
		for _, cfg := range goldenMatrix() {
			name := goldenName(bench, cfg)
			t.Run(name, func(t *testing.T) {
				res, err := b.Run(bench, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.MarshalIndent(res, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, '\n')
				want, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatalf("missing golden (regenerate with -update-golden): %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("batched Result JSON diverged from golden %s — a shared trace must replay bit-identically to a one-cell sim.Run", name)
				}
			})
		}
	}
	st := b.CacheStats()
	if st.Misses == 0 || st.Hits == 0 {
		t.Fatalf("expected trace reuse across the matrix, got stats %+v", st)
	}
	// Per benchmark, one trace at the golden budget and one per thread
	// of the two-thread fixed-policy cell → 6 generations; the other 16
	// cells are hits.
	if st.Misses != 6 {
		t.Errorf("expected 6 trace generations for 2 benchmarks, got %d", st.Misses)
	}
}

// TestBatchFanOutRace runs many cells concurrently against one Batch —
// shared read-only trace, per-cell private state — and checks each
// against the serial path. Run under -race this is the data-race proof
// for the fan-out design.
func TestBatchFanOutRace(t *testing.T) {
	cfgs := goldenMatrix()
	b := NewBatch()
	type cell struct {
		bench string
		cfg   Config
	}
	var cells []cell
	for _, bench := range []string{"GemsFDTD", "milc"} {
		for _, cfg := range cfgs {
			cells = append(cells, cell{bench, cfg})
		}
	}
	got := make([]Result, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for i, c := range cells {
		wg.Add(1)
		go func(i int, c cell) {
			defer wg.Done()
			got[i], errs[i] = b.RunContext(context.Background(), c.bench, c.cfg)
		}(i, c)
	}
	wg.Wait()
	for i, c := range cells {
		if errs[i] != nil {
			t.Fatalf("cell %s/%s/%s: %v", c.bench, c.cfg.Mode, c.cfg.Engine, errs[i])
		}
		want, err := Run(c.bench, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		gj, _ := json.Marshal(got[i])
		wj, _ := json.Marshal(want)
		if !bytes.Equal(gj, wj) {
			t.Errorf("cell %s/%s/%s: concurrent batched result differs from serial", c.bench, c.cfg.Mode, c.cfg.Engine)
		}
	}
}

// TestBatchInvalidBenchmark checks error paths: unknown benchmarks and
// invalid configs fail without caching anything.
func TestBatchInvalidBenchmark(t *testing.T) {
	b := NewBatch()
	if _, err := b.Run("no-such-benchmark", Default(NP, goldenBudget)); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
	bad := Default(NP, goldenBudget)
	bad.Threads = 0
	if _, err := b.Run("GemsFDTD", bad); err == nil {
		t.Fatal("expected error for invalid config")
	}
	if st := b.CacheStats(); st.Entries != 0 {
		t.Errorf("failed runs must not populate the cache: %+v", st)
	}
}
