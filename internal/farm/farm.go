// Package farm is the batch simulation engine: it fans independent
// sim runs out across a bounded worker pool with per-job deadlines and
// cancellation, panic recovery, bounded retry with backoff, segmented
// result persistence with resume-from-partial-results, and live
// throughput metrics. Because every simulation is a pure function of
// its Spec, a farm run at any worker count is bit-identical to the
// same jobs run serially. cmd/asdfarm exposes the farm as a CLI and an
// HTTP daemon; cmd/figures drives it to regenerate the paper's
// evaluation in parallel.
package farm

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"asdsim/internal/obs"
	"asdsim/internal/sim"
	"asdsim/internal/workload"
)

// Spec describes one simulation job: a benchmark run under a full
// system configuration, plus the farm's execution policy for it.
type Spec struct {
	Benchmark string     `json:"benchmark"`
	Mode      sim.Mode   `json:"mode"`
	Config    sim.Config `json:"config"`

	// Sample, when non-nil, runs the job under SMARTS-style sampled
	// simulation instead of an exact run: the outcome carries the CPI
	// confidence interval in Sampled, and Result holds the extrapolated
	// estimate (sim.SampledResult.AsResult).
	Sample *sim.SampleConfig `json:"sample,omitempty"`

	// Timeout bounds one attempt's wall-clock time; zero means none.
	Timeout time.Duration `json:"timeout,omitempty"`
	// Retries is how many times a failed attempt is retried before the
	// job is reported failed.
	Retries int `json:"retries,omitempty"`
}

// Key returns the spec's stable identity: a SHA-256 over the benchmark,
// mode, full configuration and sampling parameters (nil Sample is
// omitted, so exact-run keys are unchanged from before sampling
// existed). Execution policy (Timeout, Retries) does not affect
// identity, so a resumed run may change it freely.
func (s Spec) Key() string {
	b, err := json.Marshal(struct {
		Benchmark string
		Mode      sim.Mode
		Config    sim.Config
		Sample    *sim.SampleConfig `json:",omitempty"`
	}{s.Benchmark, s.Mode, s.Config, s.Sample})
	if err != nil {
		// Config is a tree of plain exported value fields; this cannot
		// fail for any constructible Spec.
		panic(fmt.Sprintf("farm: marshal spec: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TraceID is the trace ID of the spec whose key is key: the key's first
// 32 hex digits, 128 bits of the content address.
func TraceID(key string) string { return key[:min(len(key), 32)] }

// Outcome is the terminal state of one job.
type Outcome struct {
	Key       string      `json:"key"`
	Benchmark string      `json:"benchmark"`
	Mode      sim.Mode    `json:"mode"`
	Engine    string      `json:"engine,omitempty"`
	Seed      uint64      `json:"seed"`
	Result    *sim.Result `json:"result,omitempty"`
	// Sampled carries the CPI confidence interval of a sampled job
	// (Spec.Sample != nil); Result then holds its extrapolated estimate.
	Sampled *sim.SampledResult `json:"sampled,omitempty"`
	Err     string             `json:"error,omitempty"`
	// Panics holds the recovered value and stack of every attempt that
	// panicked, for post-mortem without a crashed batch.
	Panics   []string `json:"panics,omitempty"`
	Attempts int      `json:"attempts"`
	WallMS   float64  `json:"wall_ms"`
	// Resumed marks an outcome served from a Store instead of run.
	Resumed bool `json:"resumed,omitempty"`
}

// OK reports whether the job produced a result.
func (o *Outcome) OK() bool { return o.Err == "" && o.Result != nil }

// RunFunc executes one job attempt. The default runs the simulator;
// tests substitute their own.
type RunFunc func(ctx context.Context, spec Spec) (sim.Result, error)

// Options configures a Pool.
type Options struct {
	// Workers bounds concurrent jobs; defaults to GOMAXPROCS.
	Workers int
	// Run overrides the job body (tests); the default runs the
	// simulator through the pool's shared-trace sim.Batch, so jobs of
	// the same (benchmark, seed, threads, budget) materialize their
	// workload trace once per pool instead of once per job.
	Run RunFunc
	// Instrument, when set, is invoked before every attempt. The
	// returned bus (which may be nil) is attached as the attempt's
	// observability sink, and finish — if non-nil — is called when the
	// attempt ends, with its result (zero on failure) and error.
	// Attaching observers never changes simulated outcomes (the obs
	// perturbation tests pin this), so instrumented farms stay
	// bit-identical to bare ones.
	Instrument func(spec Spec) (bus *obs.Bus, finish func(res *sim.Result, err error))
}

// retryBackoff is the first retry's delay, doubled per subsequent
// retry and capped at 32x.
const retryBackoff = 50 * time.Millisecond

// ErrPoolClosed is returned by Submit after Close.
var ErrPoolClosed = errors.New("farm: pool closed")

// Pool is a bounded worker pool executing simulation jobs. It is safe
// for concurrent use; batches from multiple goroutines interleave on
// the same workers.
type Pool struct {
	opts    Options
	metrics *Metrics
	// backoff starts at retryBackoff; in-package tests shrink it.
	backoff time.Duration
	// batch is the pool's shared-trace runner; the default Run and all
	// sampled jobs go through it.
	batch *sim.Batch

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*task
	closed bool
	wg     sync.WaitGroup
}

// task is one queued job, its spec's key and its completion callback.
type task struct {
	ctx  context.Context
	key  string
	spec Spec
	done func(Outcome)
}

// New starts a pool with opts.Workers workers.
func New(opts Options) *Pool {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	batch := sim.NewBatch()
	if opts.Run == nil {
		opts.Run = func(ctx context.Context, s Spec) (sim.Result, error) {
			return batch.RunContext(ctx, s.Benchmark, s.Config)
		}
	}
	p := &Pool{opts: opts, metrics: NewMetrics(), backoff: retryBackoff, batch: batch}
	p.metrics.setWorkers(opts.Workers)
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go p.worker()
	}
	return p
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.opts.Workers }

// TraceCacheStats reports the pool's shared-trace cache effectiveness:
// traces generated (Misses) and jobs that reused one (Hits).
func (p *Pool) TraceCacheStats() workload.TraceCacheStats { return p.batch.CacheStats() }

// Metrics returns the pool's live counters.
func (p *Pool) Metrics() *Metrics { return p.metrics }

// Close stops accepting jobs, lets queued work drain, and waits for the
// workers to exit. Cancel submitted contexts first for a fast stop.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

// Submit enqueues one job; done (required) is called with the outcome
// from a worker goroutine. The queue is unbounded: Submit never blocks
// on busy workers.
func (p *Pool) Submit(ctx context.Context, spec Spec, done func(Outcome)) error {
	if done == nil {
		return errors.New("farm: Submit needs a done callback")
	}
	return p.submit(ctx, spec.Key(), spec, done)
}

// submit enqueues spec, whose key the caller has computed.
func (p *Pool) submit(ctx context.Context, key string, spec Spec, done func(Outcome)) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrPoolClosed
	}
	p.queue = append(p.queue, &task{ctx: ctx, key: key, spec: spec, done: done})
	p.mu.Unlock()
	p.metrics.submitted.Add(1)
	p.metrics.queued.Add(1)
	p.cond.Signal()
	return nil
}

// worker pulls tasks until the pool closes and the queue drains.
func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 {
			p.mu.Unlock()
			return
		}
		t := p.queue[0]
		p.queue = p.queue[1:]
		p.mu.Unlock()

		p.metrics.queued.Add(-1)
		t.done(p.runJob(t.ctx, t.key, t.spec))
	}
}

// runJob executes one job, whose spec's key is key, to its terminal
// outcome: attempt, recover panics, retry with exponential backoff up
// to spec.Retries, respect per-attempt timeouts and batch cancellation.
func (p *Pool) runJob(ctx context.Context, key string, spec Spec) Outcome {
	start := time.Now()
	o := Outcome{Key: key, Benchmark: spec.Benchmark, Mode: spec.Mode,
		Engine: spec.Config.Engine.String(), Seed: spec.Config.Seed}
	p.metrics.busy.Add(1)
	for attempt := 0; ; attempt++ {
		o.Attempts = attempt + 1
		res, err := p.attempt(ctx, spec, &o)
		if err == nil {
			o.Result = &res
			o.Err = ""
			break
		}
		o.Err = err.Error()
		// The batch being cancelled is not a job failure to retry, and
		// retrying past the budget is pointless.
		if ctx.Err() != nil || attempt >= spec.Retries {
			break
		}
		p.metrics.retried.Add(1)
		backoff := p.backoff << uint(min(attempt, 5))
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
		}
	}
	o.WallMS = float64(time.Since(start).Microseconds()) / 1000
	p.metrics.busy.Add(-1)
	p.metrics.finish(&spec, &o)
	return o
}

// attempt runs the job body once, converting a panic into an error with
// the recovered stack preserved on the outcome.
func (p *Pool) attempt(ctx context.Context, spec Spec, o *Outcome) (res sim.Result, err error) {
	actx := ctx
	if spec.Timeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, spec.Timeout)
		defer cancel()
	}
	if p.opts.Instrument != nil {
		bus, fin := p.opts.Instrument(spec)
		spec.Config.Obs = bus
		if fin != nil {
			// Registered before the recover defer so it runs after the
			// panic (if any) has been converted into err.
			defer func() { fin(&res, err) }()
		}
	}
	defer func() {
		if rec := recover(); rec != nil {
			o.Panics = append(o.Panics, fmt.Sprintf("%v\n%s", rec, debug.Stack()))
			err = fmt.Errorf("farm: job %s/%v panicked: %v", spec.Benchmark, spec.Mode, rec)
		}
	}()
	if spec.Sample != nil {
		sres, serr := p.batch.RunSampled(actx, spec.Benchmark, spec.Config, *spec.Sample)
		if serr != nil {
			return sim.Result{}, serr
		}
		o.Sampled = &sres
		return sres.AsResult(), nil
	}
	return p.opts.Run(actx, spec)
}

// RunBatch submits every spec, waits for all of them, and returns
// outcomes in spec order — deterministic output regardless of worker
// count or completion order. A spec repeated in the batch runs once,
// like a coalesced cell on the cluster coordinator: every position
// gets its outcome. A non-nil store serves previously persisted
// successes (resume) and receives every fresh outcome once; a non-nil
// onDone observes each position's completion as it happens
// (serialized). The returned error is ctx.Err() after cancellation or
// the first store write failure; per-job failures live in the
// outcomes.
func (p *Pool) RunBatch(ctx context.Context, specs []Spec, store *Store, onDone func(Outcome)) ([]Outcome, error) {
	out := make([]Outcome, len(specs))
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex // serializes store writes, onDone, firstErr
		firstErr error
	)
	// note hands o to the positions at, storing it first if fresh.
	note := func(o Outcome, at []int, fresh bool) {
		mu.Lock()
		defer mu.Unlock()
		if fresh && store != nil {
			if err := store.Append(o); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		for _, i := range at {
			out[i] = o
			if onDone != nil {
				onDone(o)
			}
		}
	}
	// The positions left to run, grouped by key in order of first
	// appearance.
	var keys []string
	positions := make(map[string][]int, len(specs))
	for i := range specs {
		key := specs[i].Key()
		if store != nil {
			if prev, ok := store.Lookup(key); ok {
				prev.Resumed = true
				p.metrics.resumed.Add(1)
				note(prev, []int{i}, false)
				continue
			}
		}
		if _, seen := positions[key]; !seen {
			keys = append(keys, key)
		}
		positions[key] = append(positions[key], i)
	}
	for _, key := range keys {
		at := positions[key]
		s := specs[at[0]]
		wg.Add(1)
		err := p.submit(ctx, key, s, func(o Outcome) {
			note(o, at, true)
			wg.Done()
		})
		if err != nil {
			o := Outcome{Key: key, Benchmark: s.Benchmark, Mode: s.Mode,
				Engine: s.Config.Engine.String(), Seed: s.Config.Seed, Err: err.Error(), Attempts: 0}
			for _, i := range at {
				out[i] = o
			}
			wg.Done()
		}
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return out, err
	}
	return out, firstErr
}
