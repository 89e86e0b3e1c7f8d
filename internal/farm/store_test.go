package farm

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"asdsim/internal/sim"
)

// An interrupted batch must resume from its partial store: persisted
// successes are served from disk, only the remainder runs, and failures
// are retried rather than resumed.
func TestStoreResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store")

	var mu sync.Mutex
	ran := map[string]int{}
	newPool := func() *Pool {
		return New(Options{
			Workers: 2,
			Run: func(ctx context.Context, s Spec) (sim.Result, error) {
				mu.Lock()
				ran[s.Benchmark]++
				mu.Unlock()
				if s.Benchmark == "fails" {
					return sim.Result{}, context.DeadlineExceeded
				}
				return fakeResult(uint64(len(s.Benchmark))), nil
			},
		})
	}

	specs := []Spec{testSpec("a", sim.NP), testSpec("b", sim.NP),
		{Benchmark: "fails", Mode: sim.NP, Config: sim.Default(sim.NP, 10_000)}}

	// First pass: everything runs, two successes and one failure land
	// in the file.
	store, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	pool := newPool()
	if _, err := pool.RunBatch(context.Background(), specs, store, nil); err != nil {
		t.Fatal(err)
	}
	pool.Close()
	store.Close()
	if got := countRuns(ran); got != 3 {
		t.Fatalf("first pass ran %d jobs, want 3", got)
	}

	// Second pass over the same specs: the successes resume from disk,
	// only the failure reruns.
	store, err = OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if store.Completed() != 2 {
		t.Fatalf("store resumed %d successes, want 2", store.Completed())
	}
	pool = newPool()
	defer pool.Close()
	out, err := pool.RunBatch(context.Background(), specs, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ran["a"] != 1 || ran["b"] != 1 {
		t.Errorf("resumed jobs reran: a=%d b=%d, want 1 each", ran["a"], ran["b"])
	}
	if ran["fails"] != 2 {
		t.Errorf("failed job ran %d times, want 2 (not resumed)", ran["fails"])
	}
	if !out[0].Resumed || !out[1].Resumed || out[2].Resumed {
		t.Errorf("resume flags wrong: %v %v %v", out[0].Resumed, out[1].Resumed, out[2].Resumed)
	}
	if !out[0].OK() || out[0].Result.Cycles != fakeResult(1).Cycles {
		t.Errorf("resumed outcome lost its result: %+v", out[0])
	}
}

func countRuns(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// A truncated final line — a crash mid-append — must not block
// reopening; everything before it is preserved.
func TestStoreToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store")
	store, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	good := Outcome{Key: "k1", Benchmark: "a", Result: &sim.Result{Cycles: 5}, Attempts: 1}
	if err := store.Append(good); err != nil {
		t.Fatal(err)
	}
	store.Close()

	f, err := os.OpenFile(segPath(path, 1), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"k2","benchmark":"b","result":{"Cyc`) // torn write
	f.Close()

	store, err = OpenStore(path)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	defer store.Close()
	if _, ok := store.Lookup("k1"); !ok {
		t.Error("intact line lost")
	}
	if _, ok := store.Lookup("k2"); ok {
		t.Error("torn line resurrected")
	}
}

// Corruption before the final line is a real error, not silently
// skipped data.
func TestStoreRejectsMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segPath(path, 1), []byte("garbage\n{\"key\":\"k\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(path); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
}
