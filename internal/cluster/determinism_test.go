package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asdsim/internal/farm"
	"asdsim/internal/sim"
)

// The cluster's core promise: a matrix distributed across workers —
// including a worker that dies mid-lease, forcing an expiry and a
// steal — produces byte-identical Result JSON to direct serial sim.Run
// calls. And because the segmented store is the content-addressed
// source of truth, rerunning the identical matrix re-simulates
// nothing: every cell is served read-through.
func TestMultiNodeBitIdenticalToSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	var specs []farm.Spec
	for _, bench := range []string{"GemsFDTD", "milc", "tpcc"} {
		for _, mode := range []sim.Mode{sim.NP, sim.PMS} {
			cfg := sim.Default(mode, 60_000)
			cfg.Seed = 7
			specs = append(specs, farm.Spec{Benchmark: bench, Mode: mode, Config: cfg})
		}
	}

	// Ground truth: direct serial sim.Run calls.
	serial := make([][]byte, len(specs))
	for i, s := range specs {
		res, err := sim.Run(s.Benchmark, s.Config)
		if err != nil {
			t.Fatalf("serial %s/%v: %v", s.Benchmark, s.Mode, err)
		}
		serial[i] = mustMarshal(t, &res)
	}

	store, err := farm.OpenStore(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	// Real clock: the point is surviving real expiry under -race. The
	// lease TTL comfortably exceeds one cell's runtime and the 1.5s/3
	// heartbeat cadence keeps live workers' leases extended.
	coord := New(Options{LeaseTTL: time.Second, WorkerTTL: 1500 * time.Millisecond, Store: store})

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	retCh := make(chan batchRet, 1)
	go func() {
		out, err := coord.RunBatch(ctx, specs, nil, nil)
		retCh <- batchRet{out, err}
	}()
	waitPending(t, coord, len(specs))

	// Worker A acquires the first lease, then is killed mid-run: its
	// job blocks until its context dies, so the lease is orphaned and
	// must be stolen.
	aStarted := make(chan struct{})
	var aOnce sync.Once
	aPool := farm.New(farm.Options{Workers: 1, Run: func(ctx context.Context, spec farm.Spec) (sim.Result, error) {
		aOnce.Do(func() { close(aStarted) })
		<-ctx.Done()
		return sim.Result{}, ctx.Err()
	}})
	defer aPool.Close()
	aCtx, aCancel := context.WithCancel(ctx)
	defer aCancel()
	aDone := make(chan struct{})
	go func() {
		defer close(aDone)
		(&Worker{Transport: &Loopback{C: coord}, Pool: aPool, Name: "doomed", poll: 10 * time.Millisecond}).Run(aCtx)
	}()
	<-aStarted
	aCancel() // induced worker death, lease in hand
	<-aDone

	// Worker B does the real work, including the stolen cell. Its run
	// function counts executions so the second batch can prove it ran
	// nothing at all.
	var ran atomic.Int64
	bPool := farm.New(farm.Options{Workers: 2, Run: func(ctx context.Context, spec farm.Spec) (sim.Result, error) {
		ran.Add(1)
		return sim.RunContext(ctx, spec.Benchmark, spec.Config)
	}})
	defer bPool.Close()
	bCtx, bCancel := context.WithCancel(ctx)
	defer bCancel()
	bDone := make(chan struct{})
	go func() {
		defer close(bDone)
		(&Worker{Transport: &Loopback{C: coord}, Pool: bPool, Name: "survivor", poll: 10 * time.Millisecond}).Run(bCtx)
	}()

	r := <-retCh
	if r.err != nil {
		t.Fatalf("cluster batch: %v", r.err)
	}
	for i, o := range r.out {
		if !o.OK() {
			t.Fatalf("cluster %s/%v failed: %s", specs[i].Benchmark, specs[i].Mode, o.Err)
		}
		got := mustMarshal(t, o.Result)
		if !bytes.Equal(got, serial[i]) {
			t.Errorf("cluster %s/%v diverges from serial run:\n got %s\nwant %s",
				specs[i].Benchmark, specs[i].Mode, truncate(got), truncate(serial[i]))
		}
	}
	snap := coord.ClusterSnapshot()
	if snap.LeaseExpirations < 1 {
		t.Errorf("lease expirations = %d, want >= 1 (worker A died holding one)", snap.LeaseExpirations)
	}
	if snap.Steals < 1 {
		t.Errorf("steals = %d, want >= 1 (worker B must inherit A's cell)", snap.Steals)
	}

	// The trace rendered from the transition log caught the whole story
	// — and the outcome bytes above already proved the log perturbs
	// nothing. Lease spans sit on both workers although the doomed one
	// died holding its lease, and the steal is on the timeline.
	keys := make([]string, len(specs))
	for i := range specs {
		keys[i] = specs[i].Key()
	}
	var tbuf bytes.Buffer
	if err := farm.BuildLeaseTrace(coord.LeaseEvents(keys, 0)).WriteJSON(&tbuf); err != nil {
		t.Fatalf("trace export: %v", err)
	}
	var tr chromeTrace
	if err := json.Unmarshal(tbuf.Bytes(), &tr); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	nodes, names := map[string]bool{}, map[string]bool{}
	for _, e := range tr.TraceEvents {
		if e.Ph != "M" {
			nodes[tr.node(e.Pid)] = true
			names[e.Name] = true
		}
	}
	for _, n := range []string{"coordinator", "doomed", "survivor"} {
		if !nodes[n] {
			t.Errorf("trace has no events on node %q (nodes: %v)", n, nodes)
		}
	}
	for _, n := range []string{"job", "lease", "steal", "expire"} {
		if !names[n] {
			t.Errorf("trace has no %q event (names: %v)", n, names)
		}
	}

	// Identical matrix again: the read-through store serves every cell;
	// the workers simulate nothing.
	ranBefore := ran.Load()
	out2, err := coord.RunBatch(ctx, specs, nil, nil)
	if err != nil {
		t.Fatalf("repeat batch: %v", err)
	}
	for i, o := range out2 {
		if !o.OK() || !o.Resumed {
			t.Fatalf("repeat %s/%v not resumed: %+v", specs[i].Benchmark, specs[i].Mode, o)
		}
		if got := mustMarshal(t, o.Result); !bytes.Equal(got, serial[i]) {
			t.Errorf("resumed %s/%v diverges from serial run", specs[i].Benchmark, specs[i].Mode)
		}
	}
	if now := ran.Load(); now != ranBefore {
		t.Errorf("repeat batch re-simulated %d cells, want 0 (read-through)", now-ranBefore)
	}
	if st := store.Stats(); st.CacheHits < uint64(len(specs)) {
		t.Errorf("store cache hits = %+v, want >= %d (repeat served from cache)", st, len(specs))
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func truncate(b []byte) string {
	if len(b) > 300 {
		return fmt.Sprintf("%s... (%d bytes)", b[:300], len(b))
	}
	return string(b)
}
