package cluster

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asdsim/internal/farm"
	"asdsim/internal/sim"
)

// fakeClock is the injected Options.Now for the state-machine tests:
// time moves only when a test says so, making every expiry exact.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

func testSpec(bench string, mode sim.Mode) farm.Spec {
	return farm.Spec{Benchmark: bench, Mode: mode, Config: sim.Default(mode, 10_000)}
}

// fakeOutcome builds a successful outcome a fake worker can Complete
// a grant with.
func fakeOutcome(spec farm.Spec, cycles uint64) farm.Outcome {
	res := sim.Result{Cycles: cycles, Instructions: 2 * cycles}
	return farm.Outcome{Key: spec.Key(), Benchmark: spec.Benchmark, Mode: spec.Mode,
		Engine: spec.Config.Engine.String(), Seed: spec.Config.Seed, Result: &res, Attempts: 1}
}

func mustRegister(t *testing.T, c *Coordinator, name string) RegisterResponse {
	t.Helper()
	resp, err := c.Register(RegisterRequest{Name: name, Version: ProtocolVersion})
	if err != nil {
		t.Fatalf("register %s: %v", name, err)
	}
	return resp
}

type batchRet struct {
	out []farm.Outcome
	err error
}

// startBatch launches RunBatch in the background and returns its
// result channel.
func startBatch(c *Coordinator, ctx context.Context, specs []farm.Spec, onDone func(farm.Outcome)) <-chan batchRet {
	ch := make(chan batchRet, 1)
	go func() {
		out, err := c.RunBatch(ctx, specs, nil, onDone)
		ch <- batchRet{out, err}
	}()
	return ch
}

// waitPending spins until the coordinator's pending queue reaches n.
func waitPending(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if snap := c.ClusterSnapshot(); snap.TasksPending == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pending queue never reached %d (now %d)", n, c.ClusterSnapshot().TasksPending)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRegisterAndLivenessExpiry(t *testing.T) {
	clk := newFakeClock()
	c := New(Options{WorkerTTL: 10 * time.Second, LeaseTTL: 5 * time.Second, Now: clk.Now})

	if _, err := c.Register(RegisterRequest{Name: "old", Version: ProtocolVersion + 1}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("version mismatch error = %v, want ErrBadRequest", err)
	}
	reg := mustRegister(t, c, "a")
	if reg.WorkerID == "" || reg.LeaseTTLMS != 5000 {
		t.Fatalf("register response %+v", reg)
	}
	if got := c.Workers(); got != 1 {
		t.Fatalf("workers = %d, want 1", got)
	}
	// Heartbeats inside the TTL keep the worker alive across windows.
	clk.Advance(9 * time.Second)
	if _, err := c.Heartbeat(HeartbeatRequest{WorkerID: reg.WorkerID}); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	clk.Advance(9 * time.Second)
	if got := c.Workers(); got != 1 {
		t.Fatalf("workers after refreshed heartbeat = %d, want 1", got)
	}
	// Silence past the TTL deregisters.
	clk.Advance(11 * time.Second)
	if got := c.Workers(); got != 0 {
		t.Fatalf("workers after expiry = %d, want 0", got)
	}
	if _, err := c.Heartbeat(HeartbeatRequest{WorkerID: reg.WorkerID}); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("heartbeat after expiry = %v, want ErrUnknownWorker", err)
	}
	if _, err := c.Acquire(AcquireRequest{WorkerID: reg.WorkerID}); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("acquire after expiry = %v, want ErrUnknownWorker", err)
	}
}

func TestGrantOrderAndBatchOrder(t *testing.T) {
	clk := newFakeClock()
	c := New(Options{Now: clk.Now})
	specs := []farm.Spec{
		testSpec("GemsFDTD", sim.NP), testSpec("GemsFDTD", sim.PMS),
		testSpec("milc", sim.NP), testSpec("milc", sim.PMS),
	}
	var observed atomic.Uint64
	ret := startBatch(c, context.Background(), specs, func(farm.Outcome) { observed.Add(1) })
	waitPending(t, c, len(specs))

	reg := mustRegister(t, c, "a")
	grants := make([]*Grant, 0, len(specs))
	for i := range specs {
		resp, err := c.Acquire(AcquireRequest{WorkerID: reg.WorkerID})
		if err != nil || resp.Grant == nil {
			t.Fatalf("acquire %d: grant=%v err=%v", i, resp.Grant, err)
		}
		// FIFO: grants follow submission order.
		if resp.Grant.Key != specs[i].Key() {
			t.Fatalf("grant %d is %s, want %s (submission order)", i, resp.Grant.Key, specs[i].Key())
		}
		grants = append(grants, resp.Grant)
	}
	if resp, err := c.Acquire(AcquireRequest{WorkerID: reg.WorkerID}); err != nil || resp.Grant != nil {
		t.Fatalf("acquire on empty queue: grant=%v err=%v", resp.Grant, err)
	}
	// Complete in reverse order; the batch must still come back in
	// spec order.
	for i := len(grants) - 1; i >= 0; i-- {
		if _, err := c.Complete(CompleteRequest{WorkerID: reg.WorkerID, LeaseID: grants[i].LeaseID,
			Outcome: fakeOutcome(specs[i], uint64(1000*(i+1)))}); err != nil {
			t.Fatalf("complete %d: %v", i, err)
		}
	}
	r := <-ret
	if r.err != nil {
		t.Fatalf("batch err: %v", r.err)
	}
	for i, o := range r.out {
		if o.Key != specs[i].Key() || !o.OK() || o.Result.Cycles != uint64(1000*(i+1)) {
			t.Fatalf("out[%d] = %+v, want key %s cycles %d", i, o, specs[i].Key(), 1000*(i+1))
		}
	}
	if observed.Load() != uint64(len(specs)) {
		t.Fatalf("onDone fired %d times, want %d", observed.Load(), len(specs))
	}
	snap := c.ClusterSnapshot()
	if snap.Completed != 4 || snap.LeasesActive != 0 || snap.TasksPending != 0 {
		t.Fatalf("snapshot %+v", snap)
	}
}

// fleetEntry returns the named worker's fleet entry in snap.
func fleetEntry(t *testing.T, snap farm.ClusterSnapshot, name string) farm.WorkerHealth {
	t.Helper()
	for _, h := range snap.Fleet {
		if h.Name == name {
			return h
		}
	}
	t.Fatalf("no fleet entry for %s in %+v", name, snap.Fleet)
	return farm.WorkerHealth{}
}

// A stolen lease's late completion is rejected and counts for no
// worker; each outcome the coordinator accepts counts under the worker
// that returned it, a failure as failed.
func TestLeaseExpirySteaLateCompletionRejected(t *testing.T) {
	clk := newFakeClock()
	c := New(Options{LeaseTTL: 5 * time.Second, WorkerTTL: time.Hour, Now: clk.Now})
	spec, other := testSpec("mcf", sim.PMS), testSpec("mcf", sim.NP)
	ret := startBatch(c, context.Background(), []farm.Spec{spec, other}, nil)
	waitPending(t, c, 2)

	w1 := mustRegister(t, c, "w1")
	g1, err := c.Acquire(AcquireRequest{WorkerID: w1.WorkerID})
	if err != nil || g1.Grant == nil || g1.Grant.Key != spec.Key() {
		t.Fatalf("w1 acquire: %+v %v", g1, err)
	}
	// The lease outlives its TTL unseen; a second worker takes the
	// other cell, then steals this one from the back of the queue.
	clk.Advance(6 * time.Second)
	w2 := mustRegister(t, c, "w2")
	gOther, err := c.Acquire(AcquireRequest{WorkerID: w2.WorkerID})
	if err != nil || gOther.Grant == nil || gOther.Grant.Key != other.Key() {
		t.Fatalf("w2 acquire: %+v %v", gOther, err)
	}
	g2, err := c.Acquire(AcquireRequest{WorkerID: w2.WorkerID})
	if err != nil || g2.Grant == nil || g2.Grant.Key != spec.Key() {
		t.Fatalf("w2 steal acquire: %+v %v", g2, err)
	}
	// w1's late completion is rejected...
	if _, err := c.Complete(CompleteRequest{WorkerID: w1.WorkerID, LeaseID: g1.Grant.LeaseID,
		Outcome: fakeOutcome(spec, 111)}); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("late complete = %v, want ErrLeaseExpired", err)
	}
	// ...and w2's accepted results are what the batch sees.
	if _, err := c.Complete(CompleteRequest{WorkerID: w2.WorkerID, LeaseID: g2.Grant.LeaseID,
		Outcome: fakeOutcome(spec, 222)}); err != nil {
		t.Fatalf("steal complete: %v", err)
	}
	failed := farm.Outcome{Key: other.Key(), Benchmark: other.Benchmark, Mode: other.Mode,
		Engine: other.Config.Engine.String(), Seed: other.Config.Seed, Err: "injected failure", Attempts: 1}
	if _, err := c.Complete(CompleteRequest{WorkerID: w2.WorkerID, LeaseID: gOther.Grant.LeaseID,
		Outcome: failed}); err != nil {
		t.Fatalf("failed complete: %v", err)
	}
	r := <-ret
	if r.err != nil || len(r.out) != 2 || r.out[0].Result.Cycles != 222 || r.out[1].OK() {
		t.Fatalf("batch result %+v err %v", r.out, r.err)
	}
	snap := c.ClusterSnapshot()
	if snap.LeaseExpirations != 1 || snap.Steals != 1 || snap.LateResults != 1 {
		t.Fatalf("counters %+v, want 1 expiration, 1 steal, 1 late", snap)
	}
	if h := fleetEntry(t, snap, "w1"); h.Completed != 0 || h.Failed != 0 || h.SimInstructions != 0 {
		t.Errorf("w1 fleet entry %+v: its late completion must count for no worker", h)
	}
	if h := fleetEntry(t, snap, "w2"); h.Completed != 1 || h.Failed != 1 || h.SimInstructions != 444 {
		t.Errorf("w2 fleet entry %+v, want 1 completed with 444 instructions and 1 failed", h)
	}
}

// A dead worker's leases are reclaimed, and a worker keeps its fleet
// counts after its own liveness expires.
func TestWorkerDeathReclaimsItsLeases(t *testing.T) {
	clk := newFakeClock()
	// Lease TTL is long: reclaim must come from worker liveness, not
	// lease expiry.
	c := New(Options{LeaseTTL: time.Hour, WorkerTTL: 10 * time.Second, Now: clk.Now})
	spec := testSpec("tpcc", sim.NP)
	ret := startBatch(c, context.Background(), []farm.Spec{spec}, nil)
	waitPending(t, c, 1)

	w1 := mustRegister(t, c, "w1")
	if g, err := c.Acquire(AcquireRequest{WorkerID: w1.WorkerID}); err != nil || g.Grant == nil {
		t.Fatalf("w1 acquire: %+v %v", g, err)
	}
	clk.Advance(11 * time.Second) // w1 dies silently
	w2 := mustRegister(t, c, "w2")
	g2, err := c.Acquire(AcquireRequest{WorkerID: w2.WorkerID})
	if err != nil || g2.Grant == nil || g2.Grant.Key != spec.Key() {
		t.Fatalf("w2 did not inherit the dead worker's task: %+v %v", g2, err)
	}
	if _, err := c.Complete(CompleteRequest{WorkerID: w2.WorkerID, LeaseID: g2.Grant.LeaseID,
		Outcome: fakeOutcome(spec, 7)}); err != nil {
		t.Fatalf("complete: %v", err)
	}
	if r := <-ret; r.err != nil || !r.out[0].OK() {
		t.Fatalf("batch %+v", r)
	}
	snap := c.ClusterSnapshot()
	if snap.Workers != 1 || snap.LeaseExpirations != 1 || snap.Steals != 1 {
		t.Fatalf("snapshot %+v", snap)
	}
	clk.Advance(11 * time.Second) // w2 falls silent after its cell
	snap = c.ClusterSnapshot()
	if h := fleetEntry(t, snap, "w2"); h.Up || h.Completed != 1 || h.Failed != 0 || h.SimInstructions != 14 {
		t.Errorf("dead w2 fleet entry %+v, want down with 1 completed run of 14 instructions", h)
	}
	if h := fleetEntry(t, snap, "w1"); h.Up || h.Completed != 0 {
		t.Errorf("dead w1 fleet entry %+v, want down with no runs", h)
	}
}

func TestLeaseLossBudgetFailsTask(t *testing.T) {
	clk := newFakeClock()
	c := New(Options{LeaseTTL: 5 * time.Second, WorkerTTL: time.Hour, Now: clk.Now})
	c.maxLeaseLosses = 2
	spec := testSpec("fma3d", sim.MS)
	ret := startBatch(c, context.Background(), []farm.Spec{spec}, nil)
	waitPending(t, c, 1)

	w := mustRegister(t, c, "w")
	for loss := 0; loss < 2; loss++ {
		g, err := c.Acquire(AcquireRequest{WorkerID: w.WorkerID})
		if err != nil || g.Grant == nil {
			t.Fatalf("acquire (loss %d): %+v %v", loss, g, err)
		}
		clk.Advance(6 * time.Second) // let the lease rot
	}
	// The coordinator is passive: expiry is only noticed inside a
	// request. The snapshot's sweep sees the second loss, exhausts the
	// budget, and fails the task.
	c.ClusterSnapshot()
	r := <-ret
	if r.err != nil || len(r.out) != 1 {
		t.Fatalf("batch %+v", r)
	}
	if r.out[0].OK() || !strings.Contains(r.out[0].Err, "lease lost") {
		t.Fatalf("outcome %+v, want lease-loss failure", r.out[0])
	}
}

func TestDuplicateSpecsCoalesce(t *testing.T) {
	clk := newFakeClock()
	c := New(Options{Now: clk.Now})
	spec := testSpec("swim", sim.PMS)
	other := testSpec("swim", sim.NP)
	// The same cell twice in one batch, plus a second concurrent batch
	// sharing it: one execution serves all three slots. Batch 2 carries
	// a second distinct spec so waitPending(2) proves its whole enqueue
	// critical section — including the coalesced waiter — has run.
	ret1 := startBatch(c, context.Background(), []farm.Spec{spec, spec}, nil)
	waitPending(t, c, 1)
	ret2 := startBatch(c, context.Background(), []farm.Spec{spec, other}, nil)
	waitPending(t, c, 2)

	w := mustRegister(t, c, "w")
	g, err := c.Acquire(AcquireRequest{WorkerID: w.WorkerID})
	if err != nil || g.Grant == nil || g.Grant.Key != spec.Key() {
		t.Fatalf("acquire: %+v %v", g, err)
	}
	g2, err := c.Acquire(AcquireRequest{WorkerID: w.WorkerID})
	if err != nil || g2.Grant == nil || g2.Grant.Key != other.Key() {
		t.Fatalf("second acquire should be the distinct cell: %+v %v", g2, err)
	}
	if g3, err := c.Acquire(AcquireRequest{WorkerID: w.WorkerID}); err != nil || g3.Grant != nil {
		t.Fatalf("coalesced queue should be empty: %+v %v", g3, err)
	}
	if _, err := c.Complete(CompleteRequest{WorkerID: w.WorkerID, LeaseID: g.Grant.LeaseID,
		Outcome: fakeOutcome(spec, 42)}); err != nil {
		t.Fatalf("complete shared: %v", err)
	}
	if _, err := c.Complete(CompleteRequest{WorkerID: w.WorkerID, LeaseID: g2.Grant.LeaseID,
		Outcome: fakeOutcome(other, 43)}); err != nil {
		t.Fatalf("complete distinct: %v", err)
	}
	r1, r2 := <-ret1, <-ret2
	for i, o := range r1.out {
		if !o.OK() || o.Result.Cycles != 42 {
			t.Fatalf("batch1 out[%d] = %+v, want shared cycles 42", i, o)
		}
	}
	if !r2.out[0].OK() || r2.out[0].Result.Cycles != 42 || !r2.out[1].OK() || r2.out[1].Result.Cycles != 43 {
		t.Fatalf("batch2 out = %+v", r2.out)
	}
	if snap := c.ClusterSnapshot(); snap.Completed != 2 {
		t.Fatalf("completed = %d, want 2 (shared cell ran once)", snap.Completed)
	}
}

// A spec repeated in one batch runs once on the in-process Pool and on
// the Coordinator alike: both positions get the same outcome and their
// onDone calls, and each runner counts one submission and one
// completion.
func TestRepeatedSpecRunsOnceOnEveryRunner(t *testing.T) {
	spec := testSpec("mg", sim.NP)
	var ran atomic.Int64
	run := func(ctx context.Context, s farm.Spec) (sim.Result, error) {
		ran.Add(1)
		return sim.RunContext(ctx, s.Benchmark, s.Config)
	}
	pool := farm.New(farm.Options{Workers: 2, Run: run})
	defer pool.Close()
	coord := New(Options{})
	wpool := farm.New(farm.Options{Workers: 2, Run: run})
	defer wpool.Close()
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		(&Worker{Transport: &Loopback{C: coord}, Pool: wpool, Name: "w", poll: 10 * time.Millisecond}).Run(ctx)
	}()
	defer func() {
		cancel()
		<-stopped
	}()

	for _, r := range []farm.Runner{pool, coord} {
		ran.Store(0)
		var calls atomic.Int64
		out, err := r.RunBatch(context.Background(), []farm.Spec{spec, spec}, nil,
			func(farm.Outcome) { calls.Add(1) })
		if err != nil {
			t.Fatalf("%T: %v", r, err)
		}
		if !out[0].OK() || !out[1].OK() {
			t.Fatalf("%T: outcomes %+v", r, out)
		}
		if a, b := mustMarshal(t, out[0].Result), mustMarshal(t, out[1].Result); !bytes.Equal(a, b) {
			t.Errorf("%T: the positions' results differ:\n%s\n%s", r, truncate(a), truncate(b))
		}
		if n := ran.Load(); n != 1 {
			t.Errorf("%T: the spec ran %d times, want 1", r, n)
		}
		if n := calls.Load(); n != 2 {
			t.Errorf("%T: onDone called %d times, want once per position", r, n)
		}
		if snap := r.Metrics().Snapshot(); snap.Submitted != 1 || snap.Completed != 1 {
			t.Errorf("%T: submitted %d, completed %d; want 1 and 1", r, snap.Submitted, snap.Completed)
		}
	}
}

func TestReadThroughStoreServesRepeatsWithoutWorkers(t *testing.T) {
	clk := newFakeClock()
	store, err := farm.OpenStore(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	c := New(Options{Store: store, Now: clk.Now})
	specs := []farm.Spec{testSpec("mgrid", sim.NP), testSpec("mgrid", sim.PMS)}

	ret := startBatch(c, context.Background(), specs, nil)
	waitPending(t, c, 2)
	w := mustRegister(t, c, "w")
	for i := range specs {
		g, err := c.Acquire(AcquireRequest{WorkerID: w.WorkerID})
		if err != nil || g.Grant == nil {
			t.Fatalf("acquire %d: %+v %v", i, g, err)
		}
		if _, err := c.Complete(CompleteRequest{WorkerID: w.WorkerID, LeaseID: g.Grant.LeaseID,
			Outcome: fakeOutcome(specs[i], uint64(100+i))}); err != nil {
			t.Fatalf("complete %d: %v", i, err)
		}
	}
	if r := <-ret; r.err != nil {
		t.Fatalf("first batch: %v", r.err)
	}

	// Rerun the identical matrix with no workers registered at all: the
	// store must serve everything (zero re-simulation by construction —
	// there is nobody to simulate).
	out, err := c.RunBatch(context.Background(), specs, nil, nil)
	if err != nil {
		t.Fatalf("repeat batch: %v", err)
	}
	for i, o := range out {
		if !o.OK() || !o.Resumed || o.Result.Cycles != uint64(100+i) {
			t.Fatalf("repeat out[%d] = %+v, want resumed cycles %d", i, o, 100+i)
		}
	}
	snap := c.ClusterSnapshot()
	if snap.Completed != 2 {
		t.Fatalf("completed = %d, want 2 (repeat ran nothing)", snap.Completed)
	}
	if st := store.Stats(); st.CacheHits < 2 {
		t.Fatalf("store stats %+v, want >= 2 cache hits", st)
	}
}

// A batch the store serves wholly counts n resumed and nothing
// submitted on the in-process Pool and on the Coordinator alike, so
// farm_runs_submitted_total means the same for every server role.
func TestStoreServedBatchCountsNoSubmissions(t *testing.T) {
	store, err := farm.OpenStore(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	specs := []farm.Spec{testSpec("mgrid", sim.NP), testSpec("mgrid", sim.PMS), testSpec("applu", sim.NP)}
	for i, s := range specs {
		if err := store.Append(fakeOutcome(s, uint64(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	pool := farm.New(farm.Options{Workers: 1, Run: func(ctx context.Context, s farm.Spec) (sim.Result, error) {
		t.Errorf("pool ran stored cell %s/%v", s.Benchmark, s.Mode)
		return sim.Result{}, nil
	}})
	defer pool.Close()
	for _, r := range []farm.Runner{pool, New(Options{Now: newFakeClock().Now})} {
		out, err := r.RunBatch(context.Background(), specs, store, nil)
		if err != nil {
			t.Fatalf("%T: %v", r, err)
		}
		for i, o := range out {
			if !o.OK() || !o.Resumed {
				t.Fatalf("%T: out[%d] = %+v, want resumed", r, i, o)
			}
		}
		if snap := r.Metrics().Snapshot(); snap.Submitted != 0 || snap.Resumed != uint64(len(specs)) {
			t.Errorf("%T: submitted %d, resumed %d; want 0 and %d",
				r, snap.Submitted, snap.Resumed, len(specs))
		}
	}
}

func TestRunBatchCancelDropsPendingWork(t *testing.T) {
	clk := newFakeClock()
	c := New(Options{Now: clk.Now})
	specs := []farm.Spec{testSpec("applu", sim.NP), testSpec("applu", sim.PMS)}
	ctx, cancel := context.WithCancel(context.Background())
	ret := startBatch(c, ctx, specs, nil)
	waitPending(t, c, 2)
	cancel()
	r := <-ret
	if !errors.Is(r.err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", r.err)
	}
	if snap := c.ClusterSnapshot(); snap.TasksPending != 0 {
		t.Fatalf("pending after cancel = %d, want 0", snap.TasksPending)
	}
}

func TestCompleteKeyMismatchRejected(t *testing.T) {
	clk := newFakeClock()
	c := New(Options{Now: clk.Now})
	spec := testSpec("lu", sim.NP)
	ret := startBatch(c, context.Background(), []farm.Spec{spec}, nil)
	waitPending(t, c, 1)
	w := mustRegister(t, c, "w")
	g, err := c.Acquire(AcquireRequest{WorkerID: w.WorkerID})
	if err != nil || g.Grant == nil {
		t.Fatalf("acquire: %+v %v", g, err)
	}
	wrong := fakeOutcome(testSpec("lu", sim.PMS), 9)
	if _, err := c.Complete(CompleteRequest{WorkerID: w.WorkerID, LeaseID: g.Grant.LeaseID,
		Outcome: wrong}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("mismatched complete = %v, want ErrBadRequest", err)
	}
	// The lease is still live; the right outcome still lands.
	if _, err := c.Complete(CompleteRequest{WorkerID: w.WorkerID, LeaseID: g.Grant.LeaseID,
		Outcome: fakeOutcome(spec, 9)}); err != nil {
		t.Fatalf("correct complete: %v", err)
	}
	if r := <-ret; r.err != nil || !r.out[0].OK() {
		t.Fatalf("batch %+v", r)
	}
}
