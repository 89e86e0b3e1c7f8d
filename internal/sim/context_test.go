package sim

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"asdsim/internal/workload"
)

// A cancelled context must abort the run promptly with the context's
// error instead of completing the instruction budget.
func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, "GemsFDTD", Default(PMS, 50_000_000))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// A deadline must interrupt a run that would otherwise take far longer.
// On a fresh one-cell Batch it lands in trace generation;
// TestDeadlineInterruptsCachedRun covers the simulation loops.
func TestRunContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := RunContext(ctx, "GemsFDTD", Default(PMS, 1_000_000_000))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; the loop is not observing ctx", elapsed)
	}
}

// With the trace already cached, RunContext and RunSampled reach their
// simulation loops well before a short deadline passes, so the deadline
// can only be observed by the loops' own polls: the exact loop's, and
// the sampled loop's per-period poll, which wraps the error.
func TestDeadlineInterruptsCachedRun(t *testing.T) {
	const bench, budget = "GemsFDTD", 20_000_000
	cfg := Default(PMS, budget)
	b := NewBatch()
	prof, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.cache.Get(context.Background(), prof, cfg.Seed, 0, budget); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, wrap string
		run        func(context.Context) error
	}{
		{"exact", "", func(ctx context.Context) error {
			_, err := b.RunContext(ctx, bench, cfg)
			return err
		}},
		{"sampled", "sampled run aborted", func(ctx context.Context) error {
			_, err := b.RunSampled(ctx, bench, cfg, DefaultSampleConfig())
			return err
		}},
	} {
		hits := b.CacheStats().Hits
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		err := tc.run(ctx)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), tc.wrap) {
			t.Fatalf("%s: got %v, want context.DeadlineExceeded wrapped as %q", tc.name, err, tc.wrap)
		}
		if st := b.CacheStats(); st.Misses != 1 || st.Hits != hits+1 {
			t.Fatalf("%s: cache %+v, want the warmed trace replayed", tc.name, st)
		}
	}
}

// RunContext with a background context must match Run bit for bit: the
// cancellation plumbing cannot perturb the simulation.
func TestRunContextMatchesRun(t *testing.T) {
	cfg := Default(PMS, 100_000)
	a, err := Run("milc", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), "milc", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Instructions != b.Instructions || a.IPC != b.IPC {
		t.Fatalf("Run and RunContext diverge: %+v vs %+v", a, b)
	}
}

// An out-of-range engine kind is a configuration error, not a panic.
func TestValidateRejectsUnknownEngine(t *testing.T) {
	cfg := Default(MS, 1000)
	cfg.Engine = EngineKind(99)
	if _, err := Run("GemsFDTD", cfg); err == nil {
		t.Fatal("expected error for unknown engine kind")
	}
}

func TestParseModeAndEngine(t *testing.T) {
	for s, want := range map[string]Mode{"np": NP, "PS": PS, " ms ": MS, "pms": PMS} {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("ParseMode accepted bogus mode")
	}
	for s, want := range map[string]EngineKind{
		"asd": EngineASD, "next-line": EngineNextLine, "nextline": EngineNextLine,
		"p5-style": EngineP5Style, "p5": EngineP5Style, "GHB": EngineGHB,
	} {
		got, err := ParseEngine(s)
		if err != nil || got != want {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseEngine("bogus"); err == nil {
		t.Error("ParseEngine accepted bogus engine")
	}
}
