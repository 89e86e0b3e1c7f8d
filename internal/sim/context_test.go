package sim

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"asdsim/internal/cache"
	"asdsim/internal/mem"
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
	if _, err := b.cache.Get(context.Background(), bench, cfg.Seed, 0, budget); err != nil {
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

// backlogReads is how many queued Reads give each MC drain loop more
// than ctxCheckInterval steps of work.
const backlogReads = 4096

// backlog returns a runner whose memory controller holds backlogReads
// queued Reads, one per line, with no flight waiting on them.
func backlog(t *testing.T) *runner {
	t.Helper()
	r, err := NewBatch().buildRunner(context.Background(), "GemsFDTD", Default(NP, 1000), cache.NewHierarchy)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < backlogReads; i++ {
		r.enqueueRead(mem.Line(1_000_000+i), 0, 0)
	}
	return r
}

// drainMC polls ctx between controller steps: cancelled while more than
// ctxCheckInterval steps of its drain remain, it stops with ctx's error
// and leaves the rest of the work queued.
func TestDrainMCObservesCancel(t *testing.T) {
	full := backlog(t)
	if err := full.drainMC(context.Background()); err != nil {
		t.Fatalf("uncancelled drain: %v", err)
	}
	if steps := full.ctrl.Steps(); steps <= 2*ctxCheckInterval {
		t.Fatalf("the drain took %d steps, want more than %d", steps, 2*ctxCheckInterval)
	}

	r := backlog(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := r.drainMC(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("drain with a cancelled context = %v, want context.Canceled", err)
	}
	if r.ctrl.NextWake(r.mcNow) == ^uint64(0) {
		t.Fatal("the cancelled drain finished its work")
	}
}

// stepUntilFlightDone polls ctx between controller steps: cancelled
// while its flight's Read still queues behind more than ctxCheckInterval
// steps of work, it stops with ctx's error and the flight not done.
func TestStepUntilFlightDoneObservesCancel(t *testing.T) {
	// The flight's Read is enqueued behind the whole backlog.
	behind := func() (*runner, *flight) {
		r := backlog(t)
		f := r.getFlight()
		f.line = mem.Line(1_000_000 + backlogReads)
		r.flights.put(f)
		r.enqueueRead(f.line, 0, 0)
		return r, f
	}
	r, f := behind()
	if err := r.stepUntilFlightDone(context.Background(), f); err != nil || !f.done {
		t.Fatalf("uncancelled wait: err %v, done %v", err, f.done)
	}
	if steps := r.ctrl.Steps(); steps <= 2*ctxCheckInterval {
		t.Fatalf("the flight completed after %d steps, want more than %d", steps, 2*ctxCheckInterval)
	}

	r, f = behind()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := r.stepUntilFlightDone(ctx, f); !errors.Is(err, context.Canceled) {
		t.Fatalf("wait with a cancelled context = %v, want context.Canceled", err)
	}
	if f.done {
		t.Fatal("the cancelled wait completed its flight")
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
