package workload

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"asdsim/internal/trace"
)

// Materialize must be a pure function of (profile, seed, thread,
// budget): repeated materializations yield byte-identical records and
// the same ground-truth histogram, each record unpacks to exactly the
// one a live generator makes, and the record stream covers the budget
// exactly the way cpu.Thread's fetch condition does.
func TestMaterializeDeterministic(t *testing.T) {
	prof, err := ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 200_000
	a, err := Materialize(prof, 1, 0, budget)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Materialize(prof, 1, 0, budget)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Records) != len(b.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, a.Records[i].Record(), b.Records[i].Record())
		}
	}
	live := testGenerator(t, prof, 1, 0)
	sameAsLive(t, a, live)
	if a.TrueLengths.Total() != live.TrueLengths.Total() {
		t.Fatalf("TrueLengths total %d, a live generator's %d", a.TrueLengths.Total(), live.TrueLengths.Total())
	}
	if a.Instructions != b.Instructions {
		t.Fatalf("instruction totals differ: %d vs %d", a.Instructions, b.Instructions)
	}
	if a.Instructions < budget {
		t.Fatalf("trace covers %d instructions, want >= budget %d", a.Instructions, budget)
	}
	var sum uint64
	for _, rec := range a.Records {
		sum += uint64(rec.Gap()) + 1
	}
	if sum != a.Instructions {
		t.Fatalf("Instructions = %d, but records sum to %d", a.Instructions, sum)
	}
	// The last record must be the one that crossed the budget: without
	// it the trace would be short.
	last := uint64(a.Records[len(a.Records)-1].Gap()) + 1
	if a.Instructions-last >= budget {
		t.Fatalf("trace overshoots: %d instructions without final record already >= %d", a.Instructions-last, budget)
	}
	if a.TrueLengths == nil || b.TrueLengths == nil {
		t.Fatal("missing TrueLengths histogram")
	}
	if a.TrueLengths.Total() != b.TrueLengths.Total() {
		t.Fatalf("TrueLengths totals differ: %d vs %d", a.TrueLengths.Total(), b.TrueLengths.Total())
	}
}

// Different seeds and different threads must produce different traces —
// the cache key includes both for a reason.
func TestMaterializeKeySensitivity(t *testing.T) {
	prof, err := ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	base, err := Materialize(prof, 1, 0, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	for name, alt := range map[string]func() (*MaterializedTrace, error){
		"seed":   func() (*MaterializedTrace, error) { return Materialize(prof, 2, 0, 50_000) },
		"thread": func() (*MaterializedTrace, error) { return Materialize(prof, 1, 1, 50_000) },
	} {
		other, err := alt()
		if err != nil {
			t.Fatal(err)
		}
		same := len(other.Records) == len(base.Records)
		if same {
			for i := range base.Records {
				if base.Records[i] != other.Records[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Errorf("changing %s produced an identical trace", name)
		}
	}
}

func TestTraceCacheHitMiss(t *testing.T) {
	prof, err := ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	c := NewTraceCache(0)
	a, err := c.Get(context.Background(), prof.Name, 1, 0, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Get(context.Background(), prof.Name, 1, 0, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("second Get of the same key returned a different trace")
	}
	if _, err := c.Get(context.Background(), prof.Name, 1, 0, 60_000); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses", st)
	}
	if st.Entries != 2 || st.Bytes <= 0 {
		t.Fatalf("residency = %+v, want 2 accounted entries", st)
	}
}

// The cache charges each resident trace its records at their capacity,
// 8 bytes a record, plus its histogram, its key's profile hash and the
// fixed entry overhead; two resident streams charge the sum.
func TestTraceCacheBytes(t *testing.T) {
	if n := unsafe.Sizeof(trace.Packed(0)); n != 8 {
		t.Fatalf("a packed record takes %d bytes, want 8", n)
	}
	c := NewTraceCache(0)
	var want, records int64
	for thread := 0; thread < 2; thread++ {
		mt, err := c.Get(context.Background(), "milc", 1, thread, 200_000)
		if err != nil {
			t.Fatal(err)
		}
		records += int64(cap(mt.Records))
		want += 8*int64(cap(mt.Records)) + 8*int64(mt.TrueLengths.Buckets()) +
			int64(len(profiles["milc"].hash)) + entryBytes
	}
	if st := c.Stats(); st.Bytes != want || st.Entries != 2 {
		t.Fatalf("stats = %+v, want %d bytes for 2 entries holding %d records", st, want, records)
	}
	if fixed := want - 8*records; fixed > 2*1024 {
		t.Fatalf("%d bytes beside the records, want the records to dominate", fixed)
	}
}

// A byte budget smaller than two traces forces eviction of the older
// entry, although the two are different streams (two threads) that the
// one-seed rule would both keep; the evicted trace stays valid for
// holders, and re-Getting it counts as a miss again.
func TestTraceCacheEviction(t *testing.T) {
	prof, err := ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	c := NewTraceCache(1) // below any single trace: only the newest survives
	a, err := c.Get(context.Background(), prof.Name, 1, 0, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	wantLen := len(a.Records)
	if _, err := c.Get(context.Background(), prof.Name, 1, 1, 50_000); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Entries != 1 || st.Evictions != 1 {
		t.Fatalf("stats = %+v after over-budget insert, want 1 entry and 1 eviction", st)
	}
	// The evicted trace is immutable and still usable.
	if len(a.Records) != wantLen {
		t.Fatal("evicted trace mutated")
	}
	if _, err := c.Get(context.Background(), prof.Name, 1, 0, 50_000); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 3 {
		t.Fatalf("misses = %d, want 3 (evicted key re-materializes)", st.Misses)
	}
}

// sameRecords fails t unless got holds exactly want's records.
func sameRecords(t *testing.T, got, want *MaterializedTrace) {
	t.Helper()
	if len(got.Records) != len(want.Records) || got.Instructions != want.Instructions {
		t.Fatalf("trace has %d records / %d instructions, want %d / %d",
			len(got.Records), got.Instructions, len(want.Records), want.Instructions)
	}
	for i := range want.Records {
		if got.Records[i] != want.Records[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got.Records[i].Record(), want.Records[i].Record())
		}
	}
}

// sameAsLive fails t unless every record of mt unpacks to the record
// the live generator g makes next: byte offset, gap and op included.
func sameAsLive(t *testing.T, mt *MaterializedTrace, g *Generator) {
	t.Helper()
	for i, p := range mt.Records {
		want, _ := g.Next()
		if got := p.Record(); got != want {
			t.Fatalf("record %d unpacks to %+v, the generator made %+v", i, got, want)
		}
	}
}

// A stream (profile, thread, budget) keeps one seed: the second seed's
// trace replaces the first, which stays valid for its holder, while
// streams that differ in thread or budget coexist. Bytes counts each
// resident trace's records at their capacity.
func TestTraceCacheOneSeedPerStream(t *testing.T) {
	prof, err := ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	c := NewTraceCache(0)
	a, err := c.Get(ctx, prof.Name, 1, 0, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Get(ctx, prof.Name, 2, 0, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Entries != 1 || st.Evictions != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v after a second seed, want 1 entry, 1 eviction, 2 misses", st)
	}
	if min := int64(cap(b.Records)) * int64(unsafe.Sizeof(trace.Packed(0))); st.Bytes < min {
		t.Fatalf("bytes = %d, below the resident records' capacity %d", st.Bytes, min)
	}
	sameAsLive(t, a, testGenerator(t, prof, 1, 0))
	if again, err := c.Get(ctx, prof.Name, 2, 0, 50_000); err != nil || again != b {
		t.Fatalf("the kept seed did not hit: %v", err)
	}

	if _, err := c.Get(ctx, prof.Name, 2, 1, 50_000); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, prof.Name, 2, 0, 60_000); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Entries != 3 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want streams of other threads and budgets to coexist (3 entries, 1 eviction)", st)
	}
}

// The documented trade-off: two seeds that alternate on one stream
// regenerate each other's trace, so every Get misses.
func TestTraceCacheAlternatingSeedsMiss(t *testing.T) {
	prof, err := ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	c := NewTraceCache(0)
	for i := 0; i < 6; i++ {
		if _, err := c.Get(context.Background(), prof.Name, uint64(1+i%2), 0, 20_000); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 6 || st.Evictions != 5 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 0 hits, 6 misses, 5 evictions, 1 entry", st)
	}
}

// A getter that waited on a generation whose seed another seed of the
// stream superseded before the getter settled still gets the trace, and
// leaves the cache as the superseding seed left it. Concurrent getters
// of two seeds of one stream all get their own seed's trace.
func TestTraceCacheSupersededWaiter(t *testing.T) {
	prof, err := ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	c := NewTraceCache(0)
	a, err := c.Get(ctx, prof.Name, 1, 0, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	waitedOn := c.entries[traceKey{streamKey{ProfileHash(prof), 0, 50_000}, 1}]
	c.mu.Unlock()
	if _, err := c.Get(ctx, prof.Name, 2, 0, 50_000); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	// What the waiter does once its generation's done channel closes.
	if mt, err := c.settle(waitedOn); err != nil || mt != a {
		t.Fatalf("waiter got (%p, %v), want the superseded trace %p", mt, err, a)
	}
	if st := c.Stats(); st != before {
		t.Fatalf("the waiter's settle moved the cache: %+v, was %+v", st, before)
	}

	const n = 8
	got := make([]*MaterializedTrace, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = c.Get(ctx, prof.Name, uint64(3+i%2), 0, 100_000)
		}(i)
	}
	wg.Wait()
	for seed := uint64(3); seed <= 4; seed++ {
		want, err := Materialize(prof, seed, 0, 100_000)
		if err != nil {
			t.Fatal(err)
		}
		for i := int(seed - 3); i < n; i += 2 {
			if got[i] == nil {
				t.Fatalf("getter %d of seed %d got no trace", i, seed)
			}
			sameRecords(t, got[i], want)
		}
	}
	if st := c.Stats(); st.Entries != 2 {
		t.Fatalf("entries = %d, want one per stream (50k and 100k)", st.Entries)
	}
}

// Concurrent Gets of one key must share a single materialization: one
// miss, everyone else hits or waits, and all callers see the same
// trace pointer. Run under -race this also proves the singleflight
// publication is sound.
func TestTraceCacheConcurrentSingleflight(t *testing.T) {
	prof, err := ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	c := NewTraceCache(0)
	const n = 16
	got := make([]*MaterializedTrace, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mt, err := c.Get(context.Background(), prof.Name, 1, 0, 100_000)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = mt
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if got[i] != got[0] {
			t.Fatalf("caller %d got a different trace pointer", i)
		}
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != n-1 {
		t.Fatalf("stats = %+v, want 1 miss / %d hits", st, n-1)
	}
}

// Of two Gets of one key, cancelling the one that generates must not
// fail the one waiting on it: the waiter's own ctx is live, so it
// generates the trace anew. Run under -race this also covers the
// handover between the two generations.
func TestTraceCacheWaiterOutlivesCancelledGenerator(t *testing.T) {
	prof, err := ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 20_000_000
	// The cancel must land while the first generation is still running
	// (tens of milliseconds); a host that stalls this goroutine longer
	// than that gets another try.
	for attempt := 1; ; attempt++ {
		c := NewTraceCache(0)
		// waitFor polls the cache's counters: the generator has
		// registered once Misses is 1, the waiter has joined it once
		// Hits is 1.
		waitFor := func(what string, ok func(TraceCacheStats) bool) {
			t.Helper()
			for deadline := time.Now().Add(10 * time.Second); !ok(c.Stats()); time.Sleep(100 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Fatalf("timed out waiting for %s: %+v", what, c.Stats())
				}
			}
		}
		genCtx, cancelGen := context.WithCancel(context.Background())
		genErr := make(chan error, 1)
		go func() {
			_, err := c.Get(genCtx, prof.Name, 1, 0, budget)
			genErr <- err
		}()
		waitFor("the generator", func(st TraceCacheStats) bool { return st.Misses == 1 })
		var (
			mt     *MaterializedTrace
			mtErr  error
			waited = make(chan struct{})
		)
		go func() {
			defer close(waited)
			mt, mtErr = c.Get(context.Background(), prof.Name, 1, 0, budget)
		}()
		waitFor("the waiter", func(st TraceCacheStats) bool { return st.Hits == 1 })
		cancelGen()
		gerr := <-genErr
		<-waited
		if gerr == nil && attempt < 5 {
			continue // the first generation finished before the cancel
		}
		if !errors.Is(gerr, context.Canceled) {
			t.Fatalf("generator: got %v, want context.Canceled", gerr)
		}
		if mtErr != nil {
			t.Fatalf("waiter failed with the generator's cancellation: %v", mtErr)
		}
		if mt.Instructions < budget {
			t.Fatalf("waiter's trace covers %d instructions, want >= %d", mt.Instructions, budget)
		}
		if st := c.Stats(); st.Entries != 1 || st.Misses != 2 {
			t.Fatalf("stats = %+v, want the waiter's generation as the one entry (2 misses)", st)
		}
		return
	}
}

// ProfileHash keys the cache by profile content: equal profiles hash
// equal, any field change hashes differently (so a user-registered
// profile reusing a built-in name cannot collide).
func TestProfileHashContent(t *testing.T) {
	a, err := ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	b := a
	if ProfileHash(a) != ProfileHash(b) {
		t.Fatal("equal profiles hash differently")
	}
	// The hash taken at registration is the content hash.
	if profiles[a.Name].hash != ProfileHash(a) {
		t.Fatal("registered hash differs from the profile's content hash")
	}
	b.MeanGap++
	if ProfileHash(a) == ProfileHash(b) {
		t.Fatal("profiles with different MeanGap hash equal")
	}
	c := a
	c.Phases = slices.Clone(a.Phases)
	c.Phases[0].TailContinue /= 2
	if ProfileHash(a) == ProfileHash(c) {
		t.Fatal("profiles with different phases hash equal")
	}
}

// A ByName result's phases are the caller's: editing one in place
// leaves the registered benchmark, and so its hash and its traces' key,
// as they were, and the edited profile hashes as the new content.
func TestByNamePhasesAreTheCallers(t *testing.T) {
	a, err := ByName("GemsFDTD")
	if err != nil {
		t.Fatal(err)
	}
	registered := profiles["GemsFDTD"].hash
	a.Phases[0].StreamLen[0] += 1
	a.Phases[0].TailContinue /= 2

	b, err := ByName("GemsFDTD")
	if err != nil {
		t.Fatal(err)
	}
	if b.Phases[0].StreamLen[0] == a.Phases[0].StreamLen[0] || b.Phases[0].TailContinue == a.Phases[0].TailContinue {
		t.Fatalf("editing a ByName result's phase edited the registry: %+v", b.Phases[0])
	}
	if got := ProfileHash(b); got != registered || profiles["GemsFDTD"].hash != registered {
		t.Fatalf("registered hash moved: %s, want %s", got, registered)
	}
	if ProfileHash(a) == registered {
		t.Fatal("the edited profile hashes as the registered one")
	}
}

// No built-in benchmark's trace outgrows recordsCap, so no record array
// is copied and regrown while it is materialized, at the budgets and
// seeds the figures and the benchmark use, on either thread.
func TestMaterializeDoesNotRegrow(t *testing.T) {
	var records, slots int
	for _, bench := range Names() {
		prof, err := ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []uint64{20_000, 200_000, 1_000_000, 2_000_000} {
			for _, seed := range []uint64{1, 20061209} {
				for thread := 0; thread < 2; thread++ {
					mt, err := Materialize(prof, seed, thread, budget)
					if err != nil {
						t.Fatal(err)
					}
					if want := recordsCap(prof, budget); cap(mt.Records) != want {
						t.Errorf("%s at %d, seed %d, thread %d: %d records regrew the array to %d slots, want the %d pre-sized",
							bench, budget, seed, thread, len(mt.Records), cap(mt.Records), want)
					}
					records += len(mt.Records)
					slots += cap(mt.Records)
				}
			}
		}
	}
	t.Logf("%d records in %d slots (%.1f%% unused)", records, slots, 100*float64(slots-records)/float64(slots))
}
