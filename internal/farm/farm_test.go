package farm

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"asdsim/internal/sim"
	"asdsim/internal/workload"
)

// testSpec returns a valid tiny spec for the given benchmark.
func testSpec(bench string, mode sim.Mode) Spec {
	cfg := sim.Default(mode, 10_000)
	return Spec{Benchmark: bench, Mode: mode, Config: cfg}
}

// newFastRetryPool starts a pool whose retries back off 1 ms instead of
// retryBackoff, so retry tests stay quick.
func newFastRetryPool(opts Options) *Pool {
	p := New(opts)
	p.backoff = time.Millisecond
	return p
}

// fakeResult returns a distinguishable result for stub run functions.
func fakeResult(cycles uint64) sim.Result {
	return sim.Result{Cycles: cycles, Instructions: cycles * 2}
}

// A job whose every attempt panics must be retried, then reported
// failed with the recovered stacks — without stalling the pool or
// losing the other jobs' results.
func TestPanicRecoveredRetriedThenFailed(t *testing.T) {
	pool := newFastRetryPool(Options{
		Workers: 4,
		Run: func(ctx context.Context, s Spec) (sim.Result, error) {
			if s.Benchmark == "boom" {
				panic("injected failure")
			}
			return fakeResult(100), nil
		},
	})
	defer pool.Close()

	specs := []Spec{
		testSpec("a", sim.NP), testSpec("b", sim.NP),
		{Benchmark: "boom", Mode: sim.NP, Config: sim.Default(sim.NP, 10_000), Retries: 2},
		testSpec("c", sim.NP), testSpec("d", sim.NP),
	}
	out, err := pool.RunBatch(context.Background(), specs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range out {
		if specs[i].Benchmark == "boom" {
			if o.OK() {
				t.Fatal("panicking job reported success")
			}
			if o.Attempts != 3 {
				t.Errorf("attempts = %d, want 3 (1 + 2 retries)", o.Attempts)
			}
			if len(o.Panics) != 3 {
				t.Errorf("captured %d panics, want 3", len(o.Panics))
			}
			if !strings.Contains(o.Err, "injected failure") {
				t.Errorf("error %q does not name the panic", o.Err)
			}
			// The recovered stack must point at the panicking frame.
			if len(o.Panics) > 0 && !strings.Contains(o.Panics[0], "farm_test.go") {
				t.Errorf("panic record lacks a stack:\n%s", o.Panics[0])
			}
			continue
		}
		if !o.OK() {
			t.Errorf("job %s lost to a neighbour's panic: %s", specs[i].Benchmark, o.Err)
		}
	}
	m := pool.Metrics().Snapshot()
	if m.Failed != 1 || m.Completed != 4 || m.Retried != 2 {
		t.Errorf("metrics = completed %d / failed %d / retried %d, want 4/1/2",
			m.Completed, m.Failed, m.Retried)
	}
}

// A transient failure (panic on the first attempt only) must succeed on
// retry.
func TestRetrySucceedsAfterTransientPanic(t *testing.T) {
	var mu sync.Mutex
	attempts := map[string]int{}
	pool := newFastRetryPool(Options{
		Workers: 2,
		Run: func(ctx context.Context, s Spec) (sim.Result, error) {
			mu.Lock()
			attempts[s.Benchmark]++
			n := attempts[s.Benchmark]
			mu.Unlock()
			if n == 1 {
				panic("flaky")
			}
			return fakeResult(42), nil
		},
	})
	defer pool.Close()

	spec := testSpec("flaky", sim.NP)
	spec.Retries = 3
	out, err := pool.RunBatch(context.Background(), []Spec{spec}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	o := out[0]
	if !o.OK() {
		t.Fatalf("retry did not recover: %s", o.Err)
	}
	if o.Attempts != 2 || len(o.Panics) != 1 {
		t.Errorf("attempts=%d panics=%d, want 2 and 1", o.Attempts, len(o.Panics))
	}
}

// A job whose cache geometry cache.New would panic on fails with the
// validation error, not as a recovered panic, whether it runs exact or
// sampled, and with telemetry attached.
func TestBadCacheGeometryFailsWithoutPanic(t *testing.T) {
	pool := newFastRetryPool(Options{Workers: 2, Instrument: NewTelemetry().Instrument})
	defer pool.Close()
	bad := testSpec("GemsFDTD", sim.MS)
	bad.Config.Cache.L2Assoc = 17
	bad.Retries = 1
	sampled := bad
	sampled.Sample = &sim.SampleConfig{Period: 2_000, Warmup: 200, Detail: 500}
	out, err := pool.RunBatch(context.Background(), []Spec{bad, sampled}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range out {
		if o.OK() || !strings.Contains(o.Err, "assoc 17") {
			t.Errorf("job %d: error %q, want the geometry rejected", i, o.Err)
		}
		if len(o.Panics) != 0 {
			t.Errorf("job %d: bad geometry panicked: %s", i, o.Panics[0])
		}
	}
}

// Cancelling the batch context must abort queued and running jobs
// without retrying them.
func TestBatchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	pool := newFastRetryPool(Options{
		Workers: 1,
		Run: func(ctx context.Context, s Spec) (sim.Result, error) {
			once.Do(func() { close(started) })
			<-ctx.Done()
			return sim.Result{}, ctx.Err()
		},
	})
	defer pool.Close()

	go func() {
		<-started
		cancel()
	}()
	specs := make([]Spec, 4)
	for i := range specs {
		specs[i] = testSpec(string(rune('a'+i)), sim.NP)
		specs[i].Retries = 5
	}
	out, err := pool.RunBatch(ctx, specs, nil, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("batch error = %v, want context.Canceled", err)
	}
	for _, o := range out {
		if o.OK() {
			t.Error("job reported success after cancellation")
		}
		if o.Attempts > 1 {
			t.Errorf("cancelled job was retried %d times", o.Attempts-1)
		}
	}
}

// A per-job timeout must bound the attempt even when the batch context
// has no deadline; with no retries left the job fails with the
// deadline error.
func TestPerJobTimeout(t *testing.T) {
	pool := newFastRetryPool(Options{
		Workers: 2,
		Run: func(ctx context.Context, s Spec) (sim.Result, error) {
			select {
			case <-ctx.Done():
				return sim.Result{}, ctx.Err()
			case <-time.After(10 * time.Second):
				return fakeResult(1), nil
			}
		},
	})
	defer pool.Close()

	spec := testSpec("slow", sim.NP)
	spec.Timeout = 20 * time.Millisecond
	done := make(chan []Outcome, 1)
	go func() {
		out, _ := pool.RunBatch(context.Background(), []Spec{spec}, nil, nil)
		done <- out
	}()
	select {
	case out := <-done:
		if out[0].OK() || !strings.Contains(out[0].Err, "deadline") {
			t.Fatalf("outcome = %+v, want deadline error", out[0])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("per-job timeout did not fire")
	}
}

// Submitting to a closed pool fails cleanly, and RunBatch surfaces the
// error on the affected outcomes instead of hanging.
func TestSubmitAfterClose(t *testing.T) {
	pool := New(Options{Workers: 1, Run: func(ctx context.Context, s Spec) (sim.Result, error) {
		return fakeResult(1), nil
	}})
	pool.Close()
	if err := pool.Submit(context.Background(), testSpec("x", sim.NP), func(Outcome) {}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Submit after Close = %v, want ErrPoolClosed", err)
	}
	out, _ := pool.RunBatch(context.Background(), []Spec{testSpec("x", sim.NP)}, nil, nil)
	if out[0].OK() || !strings.Contains(out[0].Err, "closed") {
		t.Fatalf("outcome = %+v, want pool-closed error", out[0])
	}
}

// Spec keys must be stable across identical specs and distinct across
// differing ones, independent of execution policy.
func TestSpecKey(t *testing.T) {
	a := testSpec("GemsFDTD", sim.PMS)
	b := testSpec("GemsFDTD", sim.PMS)
	b.Timeout = time.Minute
	b.Retries = 7
	if a.Key() != b.Key() {
		t.Error("execution policy changed the spec key")
	}
	c := testSpec("GemsFDTD", sim.MS)
	if a.Key() == c.Key() {
		t.Error("different modes share a key")
	}
	d := testSpec("milc", sim.PMS)
	if a.Key() == d.Key() {
		t.Error("different benchmarks share a key")
	}
	e := testSpec("GemsFDTD", sim.PMS)
	e.Config.Seed = 99
	if a.Key() == e.Key() {
		t.Error("different seeds share a key")
	}
}

// DeriveSeed must be deterministic, sensitive to every input, and
// never zero.
func TestDeriveSeed(t *testing.T) {
	s1 := DeriveSeed(1, "GemsFDTD", sim.NP)
	if s1 != DeriveSeed(1, "GemsFDTD", sim.NP) {
		t.Error("DeriveSeed is not deterministic")
	}
	if s1 == DeriveSeed(2, "GemsFDTD", sim.NP) ||
		s1 == DeriveSeed(1, "milc", sim.NP) ||
		s1 == DeriveSeed(1, "GemsFDTD", sim.PMS) {
		t.Error("DeriveSeed collides across inputs")
	}
	if s1 == 0 {
		t.Error("DeriveSeed returned 0")
	}
}

// Matrix expansion: suites resolve, duplicates collapse, defaults fill
// in, and cells validate.
func TestMatrixSpecs(t *testing.T) {
	m := Matrix{Suites: []string{"commercial"}, Modes: []string{"NP", "PMS"}, Budget: 5000}
	specs, err := m.Specs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) == 0 || len(specs)%2 != 0 {
		t.Fatalf("got %d specs, want a positive multiple of 2", len(specs))
	}
	for _, s := range specs {
		if s.Config.InstrBudget != 5000 || s.Config.Seed != 1 {
			t.Errorf("defaults not applied: %+v", s.Config)
		}
	}

	if _, err := (Matrix{Suites: []string{"nope"}}).Specs(); err == nil {
		t.Error("unknown suite accepted")
	}
	if _, err := (Matrix{Benchmarks: []string{"nope"}}).Specs(); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := (Matrix{Modes: []string{"XX"}}).Specs(); err == nil {
		t.Error("unknown mode accepted")
	}
	if _, err := (Matrix{Engine: "warp-drive"}).Specs(); err == nil {
		t.Error("unknown engine accepted")
	}

	dup := Matrix{Benchmarks: []string{"GemsFDTD", "GemsFDTD"}, Modes: []string{"NP"}}
	specs, err = dup.Specs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 {
		t.Errorf("duplicate benchmark not collapsed: %d specs", len(specs))
	}

	derived := Matrix{Benchmarks: []string{"GemsFDTD"}, Modes: []string{"NP"}, DeriveSeeds: true}
	specs, err = derived.Specs()
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].Config.Seed != DeriveSeed(1, "GemsFDTD", sim.NP) {
		t.Error("DeriveSeeds did not derive the cell seed")
	}
}

// A pool serving the focus matrix at a fresh seed per batch keeps one
// trace per benchmark, and every batch shares its traces the same way:
// each benchmark's first cell materializes (8 misses), its other three
// modes reuse that trace (24 hits).
func TestPoolKeepsOneTracePerStream(t *testing.T) {
	p := New(Options{Workers: 2})
	defer p.Close()
	const batches = 3
	for seed := uint64(1); seed <= batches; seed++ {
		specs, err := Matrix{Benchmarks: workload.FocusBenchmarks(), Budget: 20_000, Seed: seed}.Specs()
		if err != nil {
			t.Fatal(err)
		}
		before := p.TraceCacheStats()
		if _, err := p.RunBatch(context.Background(), specs, nil, nil); err != nil {
			t.Fatal(err)
		}
		st := p.TraceCacheStats()
		if hits, misses := st.Hits-before.Hits, st.Misses-before.Misses; hits != 24 || misses != 8 {
			t.Fatalf("seed %d: %d hits, %d misses, want 24 and 8", seed, hits, misses)
		}
	}
	if st := p.TraceCacheStats(); st.Entries != 8 || st.Evictions != 8*(batches-1) {
		t.Fatalf("after %d seeds: %+v, want 8 entries and %d evictions", batches, st, 8*(batches-1))
	}
}
