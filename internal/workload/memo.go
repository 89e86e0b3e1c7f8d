package workload

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"unsafe"

	"asdsim/internal/stats"
	"asdsim/internal/trace"
)

// MaterializedTrace is one thread's workload trace generated up front
// into a reusable in-memory form: exactly the records a cpu.Thread with
// the given instruction budget would consume, plus the generator's
// ground-truth stream-length histogram at that point. The records slice
// and histogram are immutable after Materialize returns, so any number
// of concurrent simulations may replay the same MaterializedTrace
// through private trace.Cursors.
type MaterializedTrace struct {
	// Records is the trace in consumption order, each record packed
	// into 8 bytes; Record() unpacks exactly what the generator made.
	Records []trace.Packed
	// TrueLengths is the generator's TrueLengths histogram snapshot
	// after producing Records — identical to what a live generator
	// driven by the same thread would hold at the end of the run.
	TrueLengths *stats.Histogram
	// Instructions is the total instruction count of the trace
	// (sum of Gap+1 over Records); it is >= the requested budget.
	Instructions uint64
}

// entryBytes is what a cache entry holds besides its records,
// histogram buckets and profile hash: the entry, trace and histogram
// structs, plus about 192 bytes for the entry's done channel and its
// slots in the cache's two maps.
const entryBytes = int64(unsafe.Sizeof(cacheEntry{})+unsafe.Sizeof(MaterializedTrace{})+
	unsafe.Sizeof(stats.Histogram{})) + 192

// sizeBytes is the memory the cache entry e keeps reachable: the
// records' backing array at its capacity, 8 bytes a record, the
// ground-truth histogram, the key and the structs around them.
func (e *cacheEntry) sizeBytes() int64 {
	return int64(cap(e.mt.Records))*int64(unsafe.Sizeof(trace.Packed(0))) +
		int64(e.mt.TrueLengths.Buckets())*8 + int64(len(e.key.profile)) + entryBytes
}

// Materialize generates the trace a thread with the given per-thread
// instruction budget consumes: records are produced while the running
// instruction total (Gap+1 per record) is below budget, mirroring
// cpu.Thread's fetch condition exactly. The same (profile, seed,
// thread, budget) always yields byte-identical records.
func Materialize(prof Profile, seed uint64, thread int, budget uint64) (*MaterializedTrace, error) {
	return materialize(context.Background(), prof, seed, thread, budget)
}

// materializeCheckInterval is how many records pass between context
// checks during generation; a power of two so the check is a mask.
const materializeCheckInterval = 4096

// materialize is Materialize with cancellation: generation polls ctx
// every materializeCheckInterval records and returns ctx's error,
// dropping the partial trace, once it is cancelled. It packs each
// record as it is generated; Profile.Validate and the thread bound
// here keep every record within what trace.Packed holds.
func materialize(ctx context.Context, prof Profile, seed uint64, thread int, budget uint64) (*MaterializedTrace, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if last := int(trace.MaxAddr / threadAddrStride); thread < 0 || thread > last {
		return nil, fmt.Errorf("workload: thread %d outside the threads 0-%d a packed trace addresses", thread, last)
	}
	g, err := NewGenerator(prof, seed, thread)
	if err != nil {
		return nil, err
	}
	mt := &MaterializedTrace{Records: make([]trace.Packed, 0, recordsCap(prof, budget))}
	done := ctx.Done()
	for mt.Instructions < budget {
		if done != nil && len(mt.Records)%materializeCheckInterval == 0 {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		rec, _ := g.Next() // generators never end
		mt.Records = append(mt.Records, trace.Pack(rec))
		mt.Instructions += uint64(rec.Gap) + 1
	}
	mt.TrueLengths = g.TrueLengths.Clone()
	return mt, nil
}

// recordsCap pre-sizes a trace from the profile's mean gap. The bare
// estimate falls short by up to 0.5% for some benchmarks, and append
// would then grow the array by a quarter or more; the 1/64 margin keeps
// every built-in benchmark from regrowing (TestMaterializeDoesNotRegrow).
func recordsCap(prof Profile, budget uint64) int {
	est := int(budget/(uint64(prof.MeanGap)+1)) + 16
	return est + est/64
}

// ProfileHash returns a stable content hash of the profile: the SHA-256
// of its JSON encoding, in hex. A registered profile's hash, taken once
// at registration, keys its traces in a TraceCache.
func ProfileHash(prof Profile) string {
	b, err := json.Marshal(prof)
	if err != nil {
		// Profile is a tree of plain exported value fields; this cannot
		// fail for any constructible Profile.
		panic(fmt.Sprintf("workload: marshal profile: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// streamKey names a workload stream: profile content, thread and
// instruction budget. The cache keeps one seed per stream.
type streamKey struct {
	profile string
	thread  int
	budget  uint64
}

// traceKey identifies one materialized trace: its stream and seed —
// everything record generation depends on.
type traceKey struct {
	streamKey
	seed uint64
}

// cacheEntry is one cache slot. The first getter of a key generates
// the trace and closes done; concurrent getters of the same key wait on
// done and share that single materialization (the cache lock is never
// held while generating).
type cacheEntry struct {
	key  traceKey
	done chan struct{}
	mt   *MaterializedTrace
	err  error

	// LRU bookkeeping, guarded by the cache mutex. accounted marks
	// entries whose size has been added to the cache total.
	accounted  bool
	prev, next *cacheEntry
}

// TraceCacheStats is a point-in-time snapshot of cache effectiveness.
type TraceCacheStats struct {
	// Hits counts Gets that found their key cached or in generation;
	// Misses counts Gets that had to generate.
	Hits, Misses uint64
	// Evictions counts traces dropped by the LRU byte budget or
	// superseded by a newer seed of their stream.
	Evictions uint64
	// Entries and Bytes describe current residency; Bytes is the memory
	// the resident entries keep reachable.
	Entries int
	Bytes   int64
}

// TraceCache memoizes materialized traces behind (profile hash, seed,
// thread, budget) keys, so a benchmark×mode×engine sweep generates each
// benchmark's workload once instead of once per cell. It keeps one seed
// per stream (profile, thread, budget): a trace materialized for a new
// seed replaces the stream's previous one, which no cell at the new seed
// can reuse. Across streams it is bounded by bytes with
// least-recently-used eviction. Safe for concurrent use. Evicted traces
// remain valid for callers already holding them (they are immutable),
// the cache merely drops its reference.
type TraceCache struct {
	mu      sync.Mutex
	entries map[traceKey]*cacheEntry
	// streams maps each stream to its accounted entry.
	streams map[streamKey]*cacheEntry
	// head is most recently used, tail least.
	head, tail *cacheEntry
	maxBytes   int64
	bytes      int64
	hits       uint64
	misses     uint64
	evictions  uint64
}

// DefaultTraceCacheBytes bounds a default cache. A 2M-instruction
// benchmark trace is under 1 MiB, so this comfortably holds every
// registered benchmark at sweep budgets while still bounding runaway
// custom matrices.
const DefaultTraceCacheBytes = 256 << 20

// NewTraceCache returns a cache bounded to maxBytes (values <= 0 use
// DefaultTraceCacheBytes).
func NewTraceCache(maxBytes int64) *TraceCache {
	if maxBytes <= 0 {
		maxBytes = DefaultTraceCacheBytes
	}
	return &TraceCache{entries: make(map[traceKey]*cacheEntry),
		streams: make(map[streamKey]*cacheEntry), maxBytes: maxBytes}
}

// Get returns the materialized trace of the registered benchmark bench
// for (seed, thread, budget), generating and caching it on first use.
// Concurrent Gets of the same key share one generation. Get returns
// ctx's error once ctx is cancelled, whether it is generating or
// waiting; a cancelled generation caches nothing, and the getters
// waiting on it whose own ctx is still live generate the trace anew.
func (c *TraceCache) Get(ctx context.Context, bench string, seed uint64, thread int, budget uint64) (*MaterializedTrace, error) {
	r, ok := profiles[bench]
	if !ok {
		return nil, errUnknown(bench)
	}
	key := traceKey{streamKey{r.hash, thread, budget}, seed}
	for {
		c.mu.Lock()
		e := c.entries[key]
		fresh := e == nil
		if fresh {
			e = &cacheEntry{key: key, done: make(chan struct{})}
			c.entries[key] = e
			c.misses++
		} else {
			c.hits++
		}
		c.mu.Unlock()

		if fresh {
			e.generate(ctx, r.prof, seed, thread, budget)
		} else {
			select {
			case <-e.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		mt, err := c.settle(e)
		if err != nil && !fresh && ctx.Err() == nil {
			continue // its getter's cancellation, not ours: generate anew
		}
		return mt, err
	}
}

// generate materializes e's trace and releases its waiters, even if
// generation panics.
func (e *cacheEntry) generate(ctx context.Context, prof Profile, seed uint64, thread int, budget uint64) {
	defer close(e.done)
	e.mt, e.err = materialize(ctx, prof, seed, thread, budget)
}

// settle files a finished entry: a failed one is dropped so a later Get
// can retry (e.g. after a cancellation, or after the caller registers a
// fixed profile under the same content), a successful one becomes the
// most recently used, and a first-settled one replaces its stream's
// other seed.
func (c *TraceCache) settle(e *cacheEntry) (*MaterializedTrace, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.err != nil {
		if c.entries[e.key] == e {
			delete(c.entries, e.key)
		}
		return nil, e.err
	}
	if c.entries[e.key] != e {
		// Evicted or superseded while this caller was waiting on the
		// generation; the trace itself is immutable and still valid, so
		// serve it without touching the LRU accounting.
		return e.mt, nil
	}
	if !e.accounted {
		e.accounted = true
		c.bytes += e.sizeBytes()
		if old := c.streams[e.key.streamKey]; old != nil {
			c.dropLocked(old)
		}
		c.streams[e.key.streamKey] = e
	} else {
		c.unlink(e)
	}
	c.pushFront(e)
	c.evictLocked()
	return e.mt, nil
}

// Stats snapshots hit/miss counters and residency.
func (c *TraceCache) Stats() TraceCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return TraceCacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Entries: len(c.entries), Bytes: c.bytes}
}

// evictLocked drops least-recently-used accounted entries until the
// budget holds. The most recent entry always stays, so a single trace
// larger than the whole budget still caches (and evicts everything
// else).
func (c *TraceCache) evictLocked() {
	for c.bytes > c.maxBytes && c.tail != nil && c.tail != c.head {
		c.dropLocked(c.tail)
	}
}

// dropLocked evicts the accounted entry e.
func (c *TraceCache) dropLocked(e *cacheEntry) {
	c.unlink(e)
	delete(c.entries, e.key)
	delete(c.streams, e.key.streamKey)
	c.bytes -= e.sizeBytes()
	c.evictions++
}

// pushFront makes e the most recently used entry.
func (c *TraceCache) pushFront(e *cacheEntry) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// unlink removes e from the LRU list.
func (c *TraceCache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.head == e {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.tail == e {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
