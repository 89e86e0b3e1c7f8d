package farm

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"asdsim/internal/sim"
)

// okOutcome builds a distinguishable successful outcome for store tests.
func okOutcome(bench string, cycles uint64) Outcome {
	spec := testSpec(bench, sim.PMS)
	res := fakeResult(cycles)
	return Outcome{Key: spec.Key(), Benchmark: bench, Mode: spec.Mode,
		Engine: spec.Config.Engine.String(), Seed: spec.Config.Seed, Result: &res, Attempts: 1}
}

func failedOutcome(bench string) Outcome {
	spec := testSpec(bench, sim.PMS)
	return Outcome{Key: spec.Key(), Benchmark: bench, Mode: spec.Mode, Err: "boom", Attempts: 1}
}

// tinySegStore opens a store with a tiny segment bound so a handful of
// appends exercises rotation; minGarbage > 0 sets the compaction
// threshold.
func tinySegStore(t *testing.T, minGarbage int) *Store {
	t.Helper()
	s, err := OpenStore(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	s.maxSegBytes = 512
	if minGarbage > 0 {
		s.minGarbage = minGarbage
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// compactNow waits out any background compaction, then runs one
// compaction cycle synchronously.
func compactNow(t *testing.T, s *Store) {
	t.Helper()
	s.wg.Wait()
	if err := s.doCompact(); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentedStoreRotatesAndReopens(t *testing.T) {
	s := tinySegStore(t, 0)
	var outs []Outcome
	for i := 0; i < 20; i++ {
		o := okOutcome(fmt.Sprintf("bench-%02d", i), uint64(1000+i))
		outs = append(outs, o)
		if err := s.Append(o); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Segments < 2 || st.Rotations == 0 {
		t.Fatalf("expected multiple segments after tiny-bound appends, stats %+v", st)
	}
	if st.Entries != 20 || st.Lines != 20 {
		t.Fatalf("entries/lines = %d/%d, want 20/20", st.Entries, st.Lines)
	}
	dir := s.Path()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the index is rebuilt by scanning segments, and every
	// outcome is still served.
	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Completed(); got != 20 {
		t.Fatalf("reopened Completed() = %d, want 20", got)
	}
	for _, want := range outs {
		got, ok := s2.Lookup(want.Key)
		if !ok || got.Result.Cycles != want.Result.Cycles {
			t.Fatalf("reopened lookup %s: ok=%v got=%+v", want.Benchmark, ok, got)
		}
	}
}

func TestSegmentedStoreLastWriteWins(t *testing.T) {
	s := tinySegStore(t, 0)
	key := okOutcome("dup", 1).Key
	for i := uint64(1); i <= 5; i++ {
		if err := s.Append(okOutcome("dup", i*100)); err != nil {
			t.Fatal(err)
		}
	}
	if o, ok := s.Lookup(key); !ok || o.Result.Cycles != 500 {
		t.Fatalf("lookup after rewrites = %+v (ok=%v), want cycles 500", o, ok)
	}
	st := s.Stats()
	if st.Entries != 1 || st.Garbage != 4 {
		t.Fatalf("entries/garbage = %d/%d, want 1/4 (four superseded)", st.Entries, st.Garbage)
	}
}

func TestSegmentedStoreCompactionDropsGarbage(t *testing.T) {
	// High threshold so compaction only runs when asked.
	s := tinySegStore(t, 1<<30)
	for i := uint64(1); i <= 6; i++ {
		if err := s.Append(okOutcome("rewritten", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		if err := s.Append(failedOutcome(fmt.Sprintf("broken-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	keep := okOutcome("kept", 777)
	if err := s.Append(keep); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	if before.Segments < 2 {
		t.Fatalf("test needs sealed segments, stats %+v", before)
	}
	compactNow(t, s)
	after := s.Stats()
	if after.Lines >= before.Lines || after.Bytes >= before.Bytes {
		t.Fatalf("compaction did not shrink the store: before %+v after %+v", before, after)
	}
	if after.Entries != 2 {
		t.Fatalf("entries after compaction = %d, want 2 (rewritten + kept)", after.Entries)
	}
	dir := s.Path()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The compacted layout must survive a reopen.
	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if o, ok := s2.Lookup(okOutcome("rewritten", 0).Key); !ok || o.Result.Cycles != 6 {
		t.Fatalf("post-compaction lookup = %+v (ok=%v), want cycles 6", o, ok)
	}
	if o, ok := s2.Lookup(keep.Key); !ok || o.Result.Cycles != 777 {
		t.Fatalf("post-compaction lookup kept = %+v (ok=%v)", o, ok)
	}
}

func TestSegmentedStoreBackgroundCompactionTriggers(t *testing.T) {
	s := tinySegStore(t, 4)
	for i := uint64(1); i <= 12; i++ {
		if err := s.Append(okOutcome("churn", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Quiesce any background compaction the appends kicked off.
	compactNow(t, s)
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction ran, stats %+v", st)
	}
	if o, ok := s.Lookup(okOutcome("churn", 0).Key); !ok || o.Result.Cycles != 12 {
		t.Fatalf("lookup after churn = %+v (ok=%v), want cycles 12", o, ok)
	}
}

func TestSegmentedStoreCacheCounters(t *testing.T) {
	s := tinySegStore(t, 0)
	o := okOutcome("cached", 42)
	if err := s.Append(o); err != nil {
		t.Fatal(err)
	}
	dir := s.Path()
	s.Close()

	// A fresh open has a cold cache: first lookup misses (and fills),
	// second hits.
	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.Lookup(o.Key); !ok {
		t.Fatal("lookup after reopen failed")
	}
	if st := s2.Stats(); st.CacheHits != 0 || st.CacheMisses != 1 {
		t.Fatalf("cold stats = hits %d misses %d, want 0/1", st.CacheHits, st.CacheMisses)
	}
	if _, ok := s2.Lookup(o.Key); !ok {
		t.Fatal("second lookup failed")
	}
	if st := s2.Stats(); st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("warm stats = hits %d misses %d, want 1/1", st.CacheHits, st.CacheMisses)
	}
	if _, ok := s2.Lookup("no-such-key"); ok {
		t.Fatal("lookup of absent key succeeded")
	}
	if st := s2.Stats(); st.CacheMisses != 2 {
		t.Fatalf("absent lookup should count a miss, stats %+v", st)
	}
}

func TestSegmentedStoreTornTailTruncated(t *testing.T) {
	s := tinySegStore(t, 0)
	o := okOutcome("survivor", 9)
	if err := s.Append(o); err != nil {
		t.Fatal(err)
	}
	dir := s.Path()
	s.Close()

	// Simulate a crash mid-append: garbage half-line at the tail of the
	// active segment.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("glob: %v %v", segs, err)
	}
	last := segs[len(segs)-1]
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"torn","benchm`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	defer s2.Close()
	if got, ok := s2.Lookup(o.Key); !ok || got.Result.Cycles != 9 {
		t.Fatalf("intact line lost: %+v ok=%v", got, ok)
	}
	// The torn bytes are gone; appends resume on a clean line.
	if err := s2.Append(okOutcome("after-crash", 10)); err != nil {
		t.Fatal(err)
	}
	if got := s2.Completed(); got != 2 {
		t.Fatalf("completed = %d, want 2", got)
	}
}

func TestSegmentedStoreRejectsMidFileCorruption(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Append(okOutcome("one", 1))
	s.Append(okOutcome("two", 2))
	s.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the FIRST line: not a torn tail, must refuse to open.
	// (Break the JSON syntax itself — encoding/json silently repairs
	// invalid UTF-8 inside strings.)
	data[0] = 'X'
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir); err == nil {
		t.Fatal("open accepted mid-file corruption")
	} else if !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("error should name the line: %v", err)
	}
}

// The store has one layout: a path naming a regular file is refused
// with a pointer to the canonical export, and a new path — even one
// ending in .jsonl — becomes a segment directory.
func TestOpenStoreRejectsRegularFile(t *testing.T) {
	file := filepath.Join(t.TempDir(), "results.jsonl")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(file); err == nil || !strings.Contains(err.Error(), "-outcomes") {
		t.Fatalf("open of a regular file: err = %v, want the single-file layout refused", err)
	}

	dir := filepath.Join(t.TempDir(), "fresh.jsonl")
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append(okOutcome("fresh", 1)); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Fatalf("new store path is not a directory: %v %v", fi, err)
	}
	if _, err := os.Stat(segPath(dir, 1)); err != nil {
		t.Fatalf("first segment missing: %v", err)
	}
}

func TestSegmentedStoreConcurrentAppendLookup(t *testing.T) {
	s := tinySegStore(t, 8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				o := okOutcome(fmt.Sprintf("g%d-i%d", g, i%10), uint64(g*1000+i))
				if err := s.Append(o); err != nil {
					t.Error(err)
					return
				}
				s.Lookup(o.Key)
			}
		}(g)
	}
	wg.Wait()
	compactNow(t, s)
	if got := s.Completed(); got != 40 {
		t.Fatalf("completed = %d, want 40 distinct keys", got)
	}
}
