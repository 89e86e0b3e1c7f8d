// Package cluster distributes a farm spec matrix across worker nodes.
// A Coordinator owns the task state — registration, heartbeats with
// liveness expiry, lease-based assignment with bounded TTLs, stealing
// of expired leases — and implements farm.Runner, so the existing HTTP
// job API transparently executes on the fleet. farm.Spec.Key() (the
// SHA-256 spec hash) is the content address throughout: the shared
// segmented store resumes completed cells, coalesces duplicate
// submissions, and serves repeated queries without re-simulation.
// Because every simulation is a pure function of its spec, any
// scheduling — which worker, how many steals, what order — yields
// bit-identical outcomes to a serial run; the multi-node determinism
// test pins that under induced worker death.
//
// The coordinator core is deliberately passive: it spawns no
// goroutines and never reads the wall clock itself (the driver injects
// the clock), advancing lease and liveness state lazily on each
// request. That keeps the whole state machine single-threaded under
// one mutex and lets the asdlint determinism pass certify the package.
package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"sync"
	"time"

	"asdsim/internal/farm"
	"asdsim/internal/obs/span"
)

// Options configures a Coordinator.
type Options struct {
	// LeaseTTL is how long a granted lease lives without a heartbeat
	// renewal before its task is reclaimed (default 15s).
	LeaseTTL time.Duration
	// WorkerTTL is how long a silent worker stays registered
	// (default 10s); workers are told to heartbeat at TTL/3.
	WorkerTTL time.Duration
	// Store is the shared result store: resumed reads and completed
	// writes. Optional; without it every batch re-executes.
	Store *farm.Store
	// Now is the injected clock; the default is the system clock. Tests
	// substitute a fake to drive expiry deterministically.
	Now func() time.Time
	// Logger receives structured lifecycle records (worker join/leave,
	// steals, late results, task failures) with trace-ID/worker/key
	// fields. Optional; nil disables logging.
	Logger *slog.Logger
}

// maxLeaseLosses bounds how many times one task's lease may expire
// before the task is failed instead of retried.
const maxLeaseLosses = 5

// New builds a Coordinator.
func New(opts Options) *Coordinator {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 15 * time.Second
	}
	if opts.WorkerTTL <= 0 {
		opts.WorkerTTL = 10 * time.Second
	}
	if opts.Now == nil {
		opts.Now = time.Now // clock injection point; never called in-package elsewhere
	}
	return &Coordinator{
		opts:           opts,
		metrics:        farm.NewMetrics(),
		maxLeaseLosses: maxLeaseLosses,
		spans:          span.NewRecorder("coordinator", opts.Now),
		workers:        make(map[string]*workerState),
		tasks:          make(map[string]*ctask),
		leases:         make(map[string]*lease),
		fleet:          make(map[string]*workerHealth),
	}
}

// Coordinator is the cluster's single source of truth. All state lives
// under one mutex; public methods sweep expired leases/workers first,
// mutate, then deliver completions outside the lock.
type Coordinator struct {
	opts     Options
	metrics  *farm.Metrics // pool-equivalent counters
	counters counters
	spans    *span.Recorder
	// maxLeaseLosses starts at the package constant; in-package tests
	// lower it.
	maxLeaseLosses int

	mu       sync.Mutex
	seq      int64 // id source for workers and leases
	workers  map[string]*workerState
	tasks    map[string]*ctask // by spec key
	pending  []string          // spec keys awaiting a lease, FIFO
	leases   map[string]*lease
	storeErr error // first store write failure, reported by RunBatch

	// fleet retains each worker's health and run counts by worker id,
	// including workers whose liveness has expired, so a mid-run kill
	// and the dead worker's runs stay visible on /metrics and the
	// dashboard.
	fleet  map[string]*workerHealth
	events leaseEventLog
}

// workerHealth is one worker's retained fleet entry: its liveness, and
// the outcomes the coordinator accepted from it.
type workerHealth struct {
	id, name        string
	up              bool
	lastBeat        time.Time
	completed       uint64
	failed          uint64
	simInstructions uint64
}

// maxFleetEntries bounds the retained per-worker fleet map; the oldest
// dead entries are evicted beyond it.
const maxFleetEntries = 64

// leaseEventLog is a fixed-size ring of recent lease transitions,
// consumed by the SSE stream and the job-status lease feed. Guarded by
// the coordinator mutex.
type leaseEventLog struct {
	seq int64
	buf []farm.LeaseEvent
}

const maxLeaseEvents = 256

func (l *leaseEventLog) add(now time.Time, event, key, worker string) {
	l.seq++
	e := farm.LeaseEvent{Seq: l.seq, Event: event, Key: key, Worker: worker, AtUS: now.UnixMicro()}
	if len(l.buf) >= maxLeaseEvents {
		copy(l.buf, l.buf[1:])
		l.buf[len(l.buf)-1] = e
		return
	}
	l.buf = append(l.buf, e)
}

// workerState is one registered node.
type workerState struct {
	id     string
	name   string
	expiry time.Time
}

// taskState is a ctask's lifecycle position.
type taskState uint8

const (
	taskPending taskState = iota
	taskLeased
)

// ctask is one unit of work, keyed by its spec hash. Duplicate
// submissions coalesce: each adds a waiter, the work runs once.
type ctask struct {
	key        string
	spec       farm.Spec
	state      taskState
	lastWorker string // previous lease holder; a different next holder is a steal
	losses     int    // leases lost to expiry or worker death
	waiters    []waiterRef

	// root is the job-lifecycle span, opened at first submission and
	// closed when the terminal outcome lands (or the batch cancels).
	root    *span.Active
	traceID string
}

// lease is one outstanding grant.
type lease struct {
	id     string
	key    string
	worker string
	expiry time.Time

	// sp is the lease span, recorded under the holder's name so a
	// worker that dies mid-lease still appears in the merged trace.
	sp       *span.Active
	renewals int
}

// waiterRef points at one slot of one waiting batch.
type waiterRef struct {
	b *batch
	i int
}

// delivery is a completed outcome owed to waiters, handed out of the
// locked region so batch callbacks never run under the coordinator
// mutex.
type delivery struct {
	refs []waiterRef
	o    farm.Outcome
}

func deliverAll(ds []delivery) {
	for _, d := range ds {
		for _, ref := range d.refs {
			ref.b.deliver(ref.i, d.o)
		}
	}
}

// batch tracks one RunBatch call.
type batch struct {
	mu        sync.Mutex
	out       []farm.Outcome
	remaining int
	dead      bool // cancelled; late deliveries are dropped
	done      chan struct{}
	onDone    func(farm.Outcome)
}

// deliver fills one slot and fires the observer; the batch mutex
// serializes onDone exactly like Pool.RunBatch does.
func (b *batch) deliver(i int, o farm.Outcome) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.dead {
		return
	}
	b.out[i] = o
	if b.onDone != nil {
		b.onDone(o)
	}
	b.remaining--
	if b.remaining == 0 {
		close(b.done)
	}
}

// abandon marks the batch cancelled and snapshots its outcomes so far.
func (b *batch) abandon() []farm.Outcome {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.dead = true
	return append([]farm.Outcome(nil), b.out...)
}

// ms renders a duration for the wire.
func ms(d time.Duration) int64 { return int64(d / time.Millisecond) }

// workerLabelLocked returns the human label for a worker id: its
// registered name when known (live or retained), else the id itself.
func (c *Coordinator) workerLabelLocked(id string) string {
	if w := c.workers[id]; w != nil && w.name != "" {
		return w.name
	}
	if h := c.fleet[id]; h != nil && h.name != "" {
		return h.name
	}
	return id
}

// touchFleetLocked refreshes a worker's fleet entry, evicting the
// oldest dead entries past the retention bound.
func (c *Coordinator) touchFleetLocked(id, name string, now time.Time) {
	h := c.fleet[id]
	if h == nil {
		if len(c.fleet) >= maxFleetEntries {
			ids := make([]string, 0, len(c.fleet))
			for fid := range c.fleet {
				ids = append(ids, fid)
			}
			sort.Slice(ids, func(a, b int) bool {
				if len(ids[a]) != len(ids[b]) {
					return len(ids[a]) < len(ids[b])
				}
				return ids[a] < ids[b]
			})
			for _, fid := range ids {
				if !c.fleet[fid].up {
					delete(c.fleet, fid)
					break
				}
			}
		}
		h = &workerHealth{id: id}
		c.fleet[id] = h
	}
	if name != "" {
		h.name = name
	}
	h.up = true
	h.lastBeat = now
}

// logInfo emits one structured record when a logger is configured.
func (c *Coordinator) logInfo(msg string, args ...any) {
	if c.opts.Logger != nil {
		c.opts.Logger.Info(msg, args...)
	}
}

// Metrics returns the coordinator's counters (farm.Runner).
func (c *Coordinator) Metrics() *farm.Metrics { return c.metrics }

// Workers returns the live registered node count (farm.Runner).
func (c *Coordinator) Workers() int {
	now := c.opts.Now()
	c.mu.Lock()
	ds := c.sweepLocked(now)
	n := c.liveNodesLocked()
	c.mu.Unlock()
	deliverAll(ds)
	return n
}

// liveNodesLocked counts the distinct labels of the live registrations:
// every lease loop of a multi-slot node registers under the node's
// name, so one node is one label however many slots it runs.
func (c *Coordinator) liveNodesLocked() int {
	labels := make(map[string]bool, len(c.workers))
	//asd:allow determinism a count of distinct labels is order-independent
	for id := range c.workers {
		labels[c.workerLabelLocked(id)] = true
	}
	return len(labels)
}

// ClusterSnapshot exports the fleet state for /metrics, the job-status
// lease feed and the SSE lease_events (farm.ClusterSource).
func (c *Coordinator) ClusterSnapshot() farm.ClusterSnapshot {
	now := c.opts.Now()
	c.mu.Lock()
	ds := c.sweepLocked(now)
	snap := farm.ClusterSnapshot{
		Workers:          c.liveNodesLocked(),
		TasksPending:     len(c.pending),
		LeasesActive:     len(c.leases),
		LeaseExpirations: c.counters.expirations.Load(),
		Steals:           c.counters.steals.Load(),
		LateResults:      c.counters.late.Load(),
		Completed:        c.counters.completed.Load(),
		LeaseEvents:      append([]farm.LeaseEvent(nil), c.events.buf...),
	}
	leasesByWorker := make(map[string]int, len(c.workers))
	lids := make([]string, 0, len(c.leases))
	for id := range c.leases {
		lids = append(lids, id)
	}
	sort.Strings(lids)
	for _, id := range lids {
		leasesByWorker[c.leases[id].worker]++
	}
	fids := make([]string, 0, len(c.fleet))
	for id := range c.fleet {
		fids = append(fids, id)
	}
	sort.Slice(fids, func(a, b int) bool {
		if len(fids[a]) != len(fids[b]) {
			return len(fids[a]) < len(fids[b])
		}
		return fids[a] < fids[b]
	})
	for _, id := range fids {
		h := c.fleet[id]
		snap.Fleet = append(snap.Fleet, farm.WorkerHealth{
			ID: h.id, Name: h.name, Up: h.up,
			HeartbeatAgeSec: now.Sub(h.lastBeat).Seconds(),
			Leases:          leasesByWorker[id],
			Completed:       h.completed,
			Failed:          h.failed,
			SimInstructions: h.simInstructions,
		})
	}
	c.mu.Unlock()
	deliverAll(ds)
	return snap
}

// Spans returns the collected spans for the given spec keys
// (farm.TraceSource): the coordinator's own lifecycle spans plus every
// worker span shipped back with completions.
func (c *Coordinator) Spans(keys []string) []span.Span {
	return c.spans.SpansFor(keys)
}

// Register admits a worker and hands it the timing contract.
func (c *Coordinator) Register(req RegisterRequest) (RegisterResponse, error) {
	if req.Version != ProtocolVersion {
		return RegisterResponse{}, fmt.Errorf("%w: worker speaks protocol %d, coordinator %d",
			ErrBadRequest, req.Version, ProtocolVersion)
	}
	now := c.opts.Now()
	c.mu.Lock()
	ds := c.sweepLocked(now)
	c.seq++
	w := &workerState{id: fmt.Sprintf("w-%d", c.seq), name: req.Name, expiry: now.Add(c.opts.WorkerTTL)}
	c.workers[w.id] = w
	c.touchFleetLocked(w.id, w.name, now)
	c.updateGaugesLocked()
	c.mu.Unlock()
	deliverAll(ds)
	c.logInfo("worker registered", "worker", req.Name, "worker_id", w.id)
	return RegisterResponse{
		WorkerID:    w.id,
		LeaseTTLMS:  ms(c.opts.LeaseTTL),
		HeartbeatMS: ms(c.opts.WorkerTTL / 3),
	}, nil
}

// Heartbeat refreshes a worker's liveness and extends every lease it
// holds by the lease TTL.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) (HeartbeatResponse, error) {
	now := c.opts.Now()
	c.mu.Lock()
	ds := c.sweepLocked(now)
	w := c.workers[req.WorkerID]
	if w == nil {
		c.mu.Unlock()
		deliverAll(ds)
		return HeartbeatResponse{}, fmt.Errorf("%w: %q", ErrUnknownWorker, req.WorkerID)
	}
	w.expiry = now.Add(c.opts.WorkerTTL)
	c.touchFleetLocked(w.id, w.name, now)
	held := 0
	lids := make([]string, 0, len(c.leases))
	for id := range c.leases {
		lids = append(lids, id)
	}
	sort.Strings(lids)
	for _, id := range lids {
		if l := c.leases[id]; l.worker == w.id {
			l.expiry = now.Add(c.opts.LeaseTTL)
			l.renewals++
			if l.sp != nil {
				c.spans.Event(span.TraceIDFromKey(l.key), l.sp.ID(), "renew", l.key,
					span.Attr{Key: "lease", Value: l.id})
			}
			held++
		}
	}
	c.mu.Unlock()
	deliverAll(ds)
	return HeartbeatResponse{Leases: held}, nil
}

// Acquire grants the oldest pending task under a fresh lease, or no
// grant when the queue is empty. Acquiring also refreshes the worker's
// liveness, so a busy poll loop needs no separate heartbeat.
func (c *Coordinator) Acquire(req AcquireRequest) (AcquireResponse, error) {
	now := c.opts.Now()
	c.mu.Lock()
	ds := c.sweepLocked(now)
	w := c.workers[req.WorkerID]
	if w == nil {
		c.mu.Unlock()
		deliverAll(ds)
		return AcquireResponse{}, fmt.Errorf("%w: %q", ErrUnknownWorker, req.WorkerID)
	}
	w.expiry = now.Add(c.opts.WorkerTTL)
	c.touchFleetLocked(w.id, w.name, now)

	var t *ctask
	for len(c.pending) > 0 && t == nil {
		key := c.pending[0]
		c.pending = c.pending[1:]
		if cand := c.tasks[key]; cand != nil && cand.state == taskPending {
			t = cand
		}
	}
	if t == nil {
		c.updateGaugesLocked()
		c.mu.Unlock()
		deliverAll(ds)
		return AcquireResponse{}, nil
	}
	c.seq++
	l := &lease{id: fmt.Sprintf("l-%d", c.seq), key: t.key, worker: w.id, expiry: now.Add(c.opts.LeaseTTL)}
	c.leases[l.id] = l
	t.state = taskLeased
	label := c.workerLabelLocked(w.id)
	stolen := t.lastWorker != "" && t.lastWorker != w.id
	if stolen {
		c.counters.noteSteal()
		c.spans.Event(t.traceID, rootID(t), "steal", t.key,
			span.Attr{Key: "from", Value: c.workerLabelLocked(t.lastWorker)},
			span.Attr{Key: "to", Value: label})
		c.events.add(now, "steal", t.key, label)
	} else {
		c.events.add(now, "grant", t.key, label)
	}
	l.sp = c.spans.StartOn(label, t.traceID, rootID(t), "lease", t.key,
		span.Attr{Key: "lease", Value: l.id})
	t.lastWorker = w.id
	resp := AcquireResponse{
		Grant: &Grant{LeaseID: l.id, Key: t.key, Spec: t.spec, TTLMS: ms(c.opts.LeaseTTL),
			Trace: &span.Context{TraceID: t.traceID, Parent: l.sp.ID()}},
		Pending: len(c.pending),
	}
	c.updateGaugesLocked()
	c.mu.Unlock()
	deliverAll(ds)
	if stolen {
		c.logInfo("lease stolen", "key", t.key, "trace_id", t.traceID, "worker", label, "lease", l.id)
	}
	return resp, nil
}

// rootID returns the job span id of t, zero when tracing never opened
// one (a task created before spans existed cannot occur today, but the
// guard keeps the call total).
func rootID(t *ctask) span.ID {
	if t.root == nil {
		return 0
	}
	return t.root.ID()
}

// Complete accepts a leased task's outcome: counts it under the
// worker's fleet entry, persists it, feeds the metrics, and wakes every
// batch waiting on the key. A completion whose lease has already been
// reclaimed is rejected with ErrLeaseExpired and counts for no worker —
// the replacement run produces the bit-identical result, so discarding
// the late copy loses nothing.
func (c *Coordinator) Complete(req CompleteRequest) (CompleteResponse, error) {
	now := c.opts.Now()
	c.mu.Lock()
	ds := c.sweepLocked(now)
	if w := c.workers[req.WorkerID]; w != nil {
		w.expiry = now.Add(c.opts.WorkerTTL)
	}
	l := c.leases[req.LeaseID]
	if l == nil || l.worker != req.WorkerID {
		c.counters.noteLate()
		label := c.workerLabelLocked(req.WorkerID)
		c.spans.Event(span.TraceIDFromKey(req.Outcome.Key), 0, "late-result", req.Outcome.Key,
			span.Attr{Key: "worker", Value: label},
			span.Attr{Key: "lease", Value: req.LeaseID})
		c.events.add(now, "late", req.Outcome.Key, label)
		c.updateGaugesLocked()
		c.mu.Unlock()
		deliverAll(ds)
		c.logInfo("late result rejected", "key", req.Outcome.Key,
			"trace_id", span.TraceIDFromKey(req.Outcome.Key), "worker", label, "lease", req.LeaseID)
		return CompleteResponse{}, fmt.Errorf("%w: lease %q", ErrLeaseExpired, req.LeaseID)
	}
	if req.Outcome.Key != l.key {
		c.mu.Unlock()
		deliverAll(ds)
		return CompleteResponse{}, fmt.Errorf("%w: outcome key %q does not match lease %q for %q",
			ErrBadRequest, req.Outcome.Key, req.LeaseID, l.key)
	}
	delete(c.leases, l.id)
	if h := c.fleet[req.WorkerID]; h != nil {
		if req.Outcome.OK() {
			h.completed++
			h.simInstructions += req.Outcome.Result.Instructions
		} else {
			h.failed++
		}
	}
	spans := req.Spans
	if len(spans) > maxSpansPerComplete {
		spans = spans[:maxSpansPerComplete]
	}
	c.spans.Ingest(spans)
	label := c.workerLabelLocked(req.WorkerID)
	if l.sp != nil {
		l.sp.End(span.Attr{Key: "status", Value: "completed"},
			span.Attr{Key: "renewals", Value: strconv.Itoa(l.renewals)})
	}
	c.events.add(now, "complete", l.key, label)
	t := c.tasks[l.key]
	if t != nil {
		ds = append(ds, c.finishTaskLocked(t, req.Outcome))
	}
	c.updateGaugesLocked()
	c.mu.Unlock()
	deliverAll(ds)
	return CompleteResponse{}, nil
}

// finishTaskLocked retires a task with its terminal outcome: store
// write, metrics, and the waiter list as a delivery for after unlock.
func (c *Coordinator) finishTaskLocked(t *ctask, o farm.Outcome) delivery {
	if c.opts.Store != nil {
		if err := c.opts.Store.Append(o); err != nil && c.storeErr == nil {
			c.storeErr = err
		}
	}
	c.metrics.RecordOutcome(&t.spec, &o)
	c.counters.noteCompleted()
	if t.root != nil {
		status := "ok"
		if o.Err != "" {
			status = "failed"
		}
		t.root.End(span.Attr{Key: "status", Value: status},
			span.Attr{Key: "attempts", Value: strconv.Itoa(o.Attempts)})
		t.root = nil
	}
	delete(c.tasks, t.key)
	return delivery{refs: t.waiters, o: o}
}

// sweepLocked advances time-driven state: deregisters silent workers,
// reclaims their leases plus any lease past its TTL, requeues the
// reclaimed tasks (stealing candidates), and fails tasks whose leases
// were lost too often. Returned deliveries must be flushed after the
// mutex is released.
func (c *Coordinator) sweepLocked(now time.Time) []delivery {
	wids := make([]string, 0, len(c.workers))
	for id := range c.workers {
		wids = append(wids, id)
	}
	sort.Strings(wids)
	for _, id := range wids {
		if now.After(c.workers[id].expiry) {
			delete(c.workers, id)
			if h := c.fleet[id]; h != nil {
				h.up = false
			}
			c.logInfo("worker deregistered", "worker", c.workerLabelLocked(id), "worker_id", id)
		}
	}

	var ds []delivery
	lids := make([]string, 0, len(c.leases))
	for id := range c.leases {
		lids = append(lids, id)
	}
	sort.Strings(lids)
	for _, id := range lids {
		l := c.leases[id]
		if _, alive := c.workers[l.worker]; alive && !now.After(l.expiry) {
			continue
		}
		delete(c.leases, id)
		c.counters.noteExpiration()
		label := c.workerLabelLocked(l.worker)
		if l.sp != nil {
			l.sp.End(span.Attr{Key: "status", Value: "expired"},
				span.Attr{Key: "renewals", Value: strconv.Itoa(l.renewals)})
		}
		c.events.add(now, "expire", l.key, label)
		c.logInfo("lease expired", "key", l.key,
			"trace_id", span.TraceIDFromKey(l.key), "worker", label, "lease", l.id)
		t := c.tasks[l.key]
		if t == nil || t.state != taskLeased {
			continue
		}
		c.spans.Event(t.traceID, rootID(t), "expire", t.key,
			span.Attr{Key: "worker", Value: label},
			span.Attr{Key: "lease", Value: l.id})
		t.losses++
		t.lastWorker = l.worker
		if t.losses >= c.maxLeaseLosses {
			o := farm.Outcome{Key: t.key, Benchmark: t.spec.Benchmark, Mode: t.spec.Mode,
				Engine: t.spec.Config.Engine.String(), Seed: t.spec.Config.Seed,
				Err:      fmt.Sprintf("cluster: lease lost %d times (workers keep dying mid-run)", t.losses),
				Attempts: t.losses}
			c.events.add(now, "fail", t.key, label)
			c.logInfo("task failed: lease-loss budget exhausted", "key", t.key,
				"trace_id", t.traceID, "losses", t.losses)
			ds = append(ds, c.finishTaskLocked(t, o))
			continue
		}
		t.state = taskPending
		c.pending = append(c.pending, t.key)
	}
	c.updateGaugesLocked()
	return ds
}

// updateGaugesLocked mirrors the queue/lease depths into the shared
// farm metrics so the farm_* pool gauges describe the fleet.
func (c *Coordinator) updateGaugesLocked() {
	c.metrics.SetWorkers(len(c.workers))
	c.metrics.SetQueued(len(c.pending))
	c.metrics.SetBusy(len(c.leases))
}

// RunBatch implements farm.Runner over the fleet: store-resumed cells
// are served immediately (read-through, zero re-simulation), the rest
// are enqueued — coalescing with identical in-flight work — and the
// call blocks until every cell completes or ctx is cancelled. Outcomes
// come back in spec order regardless of which workers ran what.
func (c *Coordinator) RunBatch(ctx context.Context, specs []farm.Spec, store *farm.Store, onDone func(farm.Outcome)) ([]farm.Outcome, error) {
	if store == nil {
		store = c.opts.Store
	}
	b := &batch{out: make([]farm.Outcome, len(specs)), remaining: len(specs),
		done: make(chan struct{}), onDone: onDone}

	type resumedSlot struct {
		i int
		o farm.Outcome
	}
	var resumed []resumedSlot
	created := 0
	c.mu.Lock()
	for i, spec := range specs {
		key := spec.Key()
		traceID := span.TraceIDFromKey(key)
		if store != nil {
			if prev, ok := store.Lookup(key); ok {
				prev.Resumed = true
				c.spans.Event(traceID, 0, "cache-hit", key)
				resumed = append(resumed, resumedSlot{i, prev})
				continue
			}
		}
		t := c.tasks[key]
		if t == nil {
			t = &ctask{key: key, spec: spec, state: taskPending, traceID: traceID}
			t.root = c.spans.Start(traceID, 0, "job", key,
				span.Attr{Key: "benchmark", Value: spec.Benchmark},
				span.Attr{Key: "mode", Value: spec.Mode.String()},
				span.Attr{Key: "engine", Value: spec.Config.Engine.String()})
			c.spans.Event(traceID, t.root.ID(), "submit", key)
			c.tasks[key] = t
			c.pending = append(c.pending, key)
			created++
		} else {
			c.spans.Event(traceID, rootID(t), "coalesce", key)
		}
		t.waiters = append(t.waiters, waiterRef{b: b, i: i})
	}
	// Like Pool.RunBatch, count as submitted only the tasks created: a
	// cell the store served or that joined identical work runs no
	// new task.
	c.metrics.RecordSubmitted(created)
	c.updateGaugesLocked()
	c.mu.Unlock()

	c.metrics.RecordResumed(len(resumed))
	for _, r := range resumed {
		b.deliver(r.i, r.o)
	}

	select {
	case <-b.done:
		c.mu.Lock()
		err := c.storeErr
		c.storeErr = nil
		c.mu.Unlock()
		return b.out, err
	case <-ctx.Done():
		c.cancelBatch(b)
		return b.abandon(), ctx.Err()
	}
}

// cancelBatch detaches b's waiters; pending tasks nobody else waits on
// are dropped from the queue (leased ones run to completion — their
// results are still worth storing).
func (c *Coordinator) cancelBatch(b *batch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.tasks))
	for key := range c.tasks {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	drop := make(map[string]bool)
	for _, key := range keys {
		t := c.tasks[key]
		kept := t.waiters[:0]
		for _, ref := range t.waiters {
			if ref.b != b {
				kept = append(kept, ref)
			}
		}
		t.waiters = kept
		if len(kept) == 0 && t.state == taskPending {
			if t.root != nil {
				t.root.End(span.Attr{Key: "status", Value: "cancelled"})
				t.root = nil
			}
			delete(c.tasks, key)
			drop[key] = true
		}
	}
	if len(drop) > 0 {
		pending := c.pending[:0]
		for _, key := range c.pending {
			if !drop[key] {
				pending = append(pending, key)
			}
		}
		c.pending = pending
	}
	c.updateGaugesLocked()
}
