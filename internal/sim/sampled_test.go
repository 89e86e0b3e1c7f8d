package sim

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"asdsim/internal/cache"
)

// sampledJSON flattens a SampledResult to its serialized form;
// WallSeconds is json:"-" so host timing never enters the comparison.
func sampledJSON(t *testing.T, s SampledResult) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// Sampled runs are deterministic: repeating one yields a bit-identical
// estimate (every serialized field, including the CI bounds).
func TestSampledDeterministic(t *testing.T) {
	cfg := Default(PMS, 500_000)
	sc := DefaultSampleConfig()
	a, err := Sampled("milc", cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sampled("milc", cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	if ja, jb := sampledJSON(t, a), sampledJSON(t, b); ja != jb {
		t.Fatalf("sampled runs diverge:\n%s\n%s", ja, jb)
	}
}

// The bulk record skip in fastForward is a pure optimization of its
// per-record consume-and-ignore loop: a runner whose record views are
// cleared falls back to that reference loop and must reproduce the
// estimate bit for bit, with full functional warming and with the
// reuse-bounded FuncWarmup schedule whose gaps the bulk skip covers.
func TestSampledBulkSkipMatchesPerRecord(t *testing.T) {
	for _, tc := range []struct {
		name string
		sc   SampleConfig
	}{
		{"full-warming", DefaultSampleConfig()},
		{"reuse-bounded", SampleConfig{Period: 150_000, Warmup: 4_000, Detail: 8_000, FuncWarmup: 100_000, Confidence: 0.95}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cfg := context.Background(), Default(MS, 700_000)
			b := NewBatch()
			bulk, err := b.RunSampled(ctx, "GemsFDTD", cfg, tc.sc)
			if err != nil {
				t.Fatal(err)
			}
			r, err := b.buildRunner(ctx, "GemsFDTD", cfg, cache.NewHierarchy)
			if err != nil {
				t.Fatal(err)
			}
			r.ffRecs, r.ffSrcs = nil, nil
			perRecord, err := runSampled(ctx, r, "GemsFDTD", tc.sc.WithDefaults(), time.Now())
			if err != nil {
				t.Fatal(err)
			}
			if jb, jp := sampledJSON(t, bulk), sampledJSON(t, perRecord); jb != jp {
				t.Fatalf("bulk-skip and per-record sampled runs diverge:\n%s\n%s", jb, jp)
			}
		})
	}
}

// On the golden cells the default schedule's confidence interval must
// contain the full detailed run's CPI — the headline accuracy claim CI
// smoke-checks. Both cells were verified covered across all four modes
// in the 120-cell validation sweep (EXPERIMENTS.md).
func TestSampledCICoversFullRunCPI(t *testing.T) {
	for _, tc := range []struct {
		bench string
		mode  Mode
	}{
		{"GemsFDTD", PMS},
		{"milc", PMS},
	} {
		cfg := Default(tc.mode, 2_000_000)
		full, err := Run(tc.bench, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fullCPI := float64(full.Cycles) / float64(full.Instructions)
		sres, err := Sampled(tc.bench, cfg, DefaultSampleConfig())
		if err != nil {
			t.Fatal(err)
		}
		if sres.CILo > fullCPI || fullCPI > sres.CIHi {
			t.Errorf("%s/%v: full CPI %.4f outside sampled %d%% CI [%.4f, %.4f] (mean %.4f over %d windows)",
				tc.bench, tc.mode, fullCPI, int(sres.Confidence*100), sres.CILo, sres.CIHi, sres.CPIMean, sres.Windows)
		}
		if sres.Windows < 2 || sres.MeasuredInstructions == 0 {
			t.Errorf("%s/%v: degenerate sampling: %+v", tc.bench, tc.mode, sres)
		}
		if math.Abs(float64(sres.EstCycles)-sres.CPIMean*float64(sres.Instructions)) > 1 {
			t.Errorf("%s/%v: EstCycles inconsistent with CPIMean", tc.bench, tc.mode)
		}
	}
}

func TestSampledValidation(t *testing.T) {
	cfg := Default(PMS, 2_000_000)
	for name, sc := range map[string]SampleConfig{
		"bad-confidence":     {Confidence: 0.80},
		"window-over-period": {Period: 10_000, Warmup: 8_000, Detail: 4_000, Confidence: 0.95},
	} {
		if _, err := Sampled("milc", cfg, sc); err == nil {
			t.Errorf("%s: accepted invalid sample config %+v", name, sc)
		}
	}
	// A budget too small for two measurement windows cannot produce a
	// confidence interval.
	if _, err := Sampled("milc", Default(PMS, 110_000), DefaultSampleConfig()); err == nil {
		t.Error("accepted a budget yielding < 2 measurement windows")
	}
	// Such a schedule is refused before its trace materializes: windows
	// start every Period and need Warmup+Detail to fit in the budget.
	one := SampleConfig{Period: 400_000, Warmup: 300_000, Detail: 100_000, Confidence: 0.95}
	b := NewBatch()
	if _, err := b.RunSampled(context.Background(), "GemsFDTD", Default(MS, 400_000), one); err == nil ||
		!strings.Contains(err.Error(), "yields 1 measurement windows") {
		t.Errorf("one-window schedule: err = %v, want a refusal naming its 1 window", err)
	}
	if st := b.CacheStats(); st.Misses != 0 || st.Hits != 0 {
		t.Errorf("the refused schedule fetched traces: %+v", st)
	}
	for budget, ok := range map[uint64]bool{399_999: false, 400_000: false, 799_999: false, 800_000: true} {
		if err := one.ValidateFor(budget); (err == nil) != ok {
			t.Errorf("ValidateFor(%d) = %v, want accepted=%v", budget, err, ok)
		}
	}
	// An invalid base config is rejected before any simulation.
	bad := cfg
	bad.Engine = EngineKind(99)
	if _, err := Sampled("milc", bad, DefaultSampleConfig()); err == nil {
		t.Error("accepted invalid base config")
	}
}

// Cancellation stops a sampled run: a pre-cancelled context aborts
// before generating the trace, and a short deadline interrupts a long
// run.
func TestSampledContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SampledContext(ctx, "GemsFDTD", Default(PMS, 50_000_000), DefaultSampleConfig()); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if _, err := NewBatch().RunSampled(ctx, "GemsFDTD", Default(PMS, 50_000_000), DefaultSampleConfig()); !errors.Is(err, context.Canceled) {
		t.Fatalf("batched: got %v, want context.Canceled", err)
	}
}

// On a fresh one-cell Batch the deadline lands in trace generation;
// TestDeadlineInterruptsCachedRun covers the sampled loop.
func TestSampledContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := SampledContext(ctx, "GemsFDTD", Default(PMS, 1_000_000_000), DefaultSampleConfig())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; the sampled loop is not observing ctx", elapsed)
	}
}

// Batch.RunContext honours cancellation before it simulates: a
// cancelled run stops before materializing its trace and caches
// nothing.
func TestBatchRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := NewBatch()
	if _, err := b.RunContext(ctx, "GemsFDTD", Default(PMS, MaxInstrBudget)); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if st := b.CacheStats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("cancelled run left %+v in the trace cache", st)
	}
}
