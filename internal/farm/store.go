package farm

import (
	"bytes"
	"container/list"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Store persists outcomes as JSON Lines in a directory of size-bounded
// seg-NNNNNNNN.jsonl segment files, keeps an in-memory
// hash→(segment,offset) index rebuilt on open, and fronts the segments
// with a bounded read-through cache of decoded outcomes. Identity is
// the spec key (the SHA-256 spec hash), not the position, so any
// process holding the same store can serve any cached result. Failed
// outcomes are recorded for post-mortem but are not served on resume —
// a rerun retries them — and background compaction eventually drops
// them along with superseded duplicates.
//
// The last segment is the append target; when it exceeds
// maxSegmentBytes it is sealed and a new one starts. When enough sealed
// lines are droppable (superseded or failed), a background compaction
// rewrites the sealed segments into one and deletes the rest.
type Store struct {
	path string // the segment directory
	// maxSegBytes and minGarbage start at maxSegmentBytes and
	// compactMinGarbage; in-package tests shrink them to exercise
	// rotation and compaction.
	maxSegBytes int64
	minGarbage  int

	mu     sync.Mutex
	f      *os.File // active segment, opened O_APPEND
	segs   []*segment
	index  map[string]segref
	cache  *outcomeLRU
	closed bool

	compacting bool
	wg         sync.WaitGroup // in-flight background compaction

	hits, misses, rotations, compactions uint64
}

// The store's fixed tuning.
const (
	// maxSegmentBytes seals the active segment once it grows past this
	// size.
	maxSegmentBytes = 4 << 20
	// storeCacheEntries bounds the read-through outcome cache.
	storeCacheEntries = 1024
	// compactMinGarbage is how many droppable lines must accumulate in
	// sealed segments before a background compaction starts.
	compactMinGarbage = 64
)

// segment is one on-disk JSONL file.
type segment struct {
	id    int64
	path  string
	size  int64
	lines int // outcomes in the file
	dead  int // droppable lines: failed, or superseded by a later append
}

// segref locates one indexed outcome on disk.
type segref struct {
	seg int64 // segment id
	off int64
	n   int64
}

// StoreStats is a point-in-time view of the store, shaped for JSON.
type StoreStats struct {
	Path        string `json:"path"`
	Segments    int    `json:"segments"`
	Entries     int    `json:"entries"` // live successes servable on resume
	Lines       int    `json:"lines"`   // outcomes on disk, live + droppable
	Garbage     int    `json:"garbage"` // droppable lines awaiting compaction
	Bytes       int64  `json:"bytes"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	Rotations   uint64 `json:"rotations"`
	Compactions uint64 `json:"compactions"`
}

// OpenStore opens (creating if absent) the segment directory at path
// and rebuilds its index from disk. A path naming a regular file is an
// error. A truncated final line in the append target — a crash
// mid-append — is tolerated and dropped; corruption anywhere else is an
// error.
func OpenStore(path string) (*Store, error) {
	s := &Store{path: path, maxSegBytes: maxSegmentBytes, minGarbage: compactMinGarbage,
		index: make(map[string]segref), cache: newOutcomeLRU(storeCacheEntries)}
	fi, err := os.Stat(path)
	switch {
	case err == nil && !fi.IsDir():
		return nil, fmt.Errorf("farm: open store: %s is a regular file, not a segment directory: "+
			"the single-file layout is gone (-outcomes writes the canonical export)", path)
	case os.IsNotExist(err):
		if err := os.MkdirAll(path, 0o755); err != nil {
			return nil, fmt.Errorf("farm: open store: %w", err)
		}
	case err != nil:
		return nil, fmt.Errorf("farm: open store: %w", err)
	}

	if s.segs, err = listSegments(path); err != nil {
		return nil, err
	}
	if len(s.segs) == 0 {
		s.segs = []*segment{{id: 1, path: segPath(path, 1)}}
	}
	for i, seg := range s.segs {
		if err := s.loadSegment(seg, i == len(s.segs)-1); err != nil {
			return nil, err
		}
	}
	active := s.segs[len(s.segs)-1]
	if s.f, err = os.OpenFile(active.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return nil, fmt.Errorf("farm: open store: %w", err)
	}
	return s, nil
}

// segPath names segment id inside dir.
func segPath(dir string, id int64) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%08d.jsonl", id))
}

// listSegments finds the directory's segment files in id order,
// removing any *.tmp leftover from an interrupted compaction.
func listSegments(dir string) ([]*segment, error) {
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.jsonl*"))
	if err != nil {
		return nil, fmt.Errorf("farm: open store: %w", err)
	}
	var segs []*segment
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(name) // interrupted compaction; the sources are intact
			continue
		}
		var id int64
		if _, err := fmt.Sscanf(filepath.Base(name), "seg-%d.jsonl", &id); err != nil || id <= 0 {
			continue // not ours
		}
		segs = append(segs, &segment{id: id, path: name})
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a].id < segs[b].id })
	return segs, nil
}

// segEntry is one decoded segment line's index information.
type segEntry struct {
	key    string
	ok     bool // a successful outcome, servable on resume
	off, n int64
}

// scanSegment parses one segment file's bytes into index entries.
// final applies the torn-tail rule: when set, an undecodable last line
// is dropped (reported via torn) instead of failing the scan — only the
// append target can legitimately be torn by a crash.
func scanSegment(data []byte, final bool) (entries []segEntry, torn bool, err error) {
	lineNo := 0
	for off := int64(0); off < int64(len(data)); {
		rest := data[off:]
		n := int64(len(rest))
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			n = int64(i) + 1
		}
		line := bytes.TrimSpace(rest[:n])
		lineNo++
		if len(line) > 0 {
			var o Outcome
			if err := json.Unmarshal(line, &o); err != nil {
				if final && off+n >= int64(len(data)) {
					return entries, true, nil // torn tail from an interrupted write
				}
				return nil, false, fmt.Errorf("line %d: %w", lineNo, err)
			}
			entries = append(entries, segEntry{key: o.Key, ok: o.OK(), off: off, n: n})
		}
		off += n
	}
	return entries, false, nil
}

// loadSegment scans one segment file into the index.
func (s *Store) loadSegment(seg *segment, final bool) error {
	data, err := os.ReadFile(seg.path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("farm: open store: %w", err)
	}
	seg.size = int64(len(data))
	entries, torn, err := scanSegment(data, final)
	if err != nil {
		return fmt.Errorf("farm: %s: %w", seg.path, err)
	}
	if torn {
		// Drop the torn bytes so the next append starts a clean line.
		last := int64(0)
		if len(entries) > 0 {
			last = entries[len(entries)-1].off + entries[len(entries)-1].n
		}
		if err := os.Truncate(seg.path, last); err != nil {
			return fmt.Errorf("farm: open store: %w", err)
		}
		seg.size = last
	}
	for _, e := range entries {
		seg.lines++
		if !e.ok {
			seg.dead++
			continue
		}
		if prev, dup := s.index[e.key]; dup {
			s.segByID(prev.seg).dead++
		}
		s.index[e.key] = segref{seg: seg.id, off: e.off, n: e.n}
	}
	return nil
}

// segByID resolves a segment id (always present: refs only point at
// listed segments).
func (s *Store) segByID(id int64) *segment {
	for _, seg := range s.segs {
		if seg.id == id {
			return seg
		}
	}
	panic(fmt.Sprintf("farm: store index references unknown segment %d", id))
}

// Path returns the segment directory.
func (s *Store) Path() string { return s.path }

// Completed returns how many successful outcomes are available for
// resume.
func (s *Store) Completed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Stats captures the store's current shape and cache counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StoreStats{
		Path: s.path, Segments: len(s.segs),
		Entries: len(s.index), CacheHits: s.hits, CacheMisses: s.misses,
		Rotations: s.rotations, Compactions: s.compactions,
	}
	for _, seg := range s.segs {
		st.Lines += seg.lines
		st.Garbage += seg.dead
		st.Bytes += seg.size
	}
	return st
}

// Lookup returns the persisted successful outcome for a spec key,
// read-through: an in-memory cache hit costs no IO, a miss decodes the
// indexed line from its segment and caches it.
//
//asd:allow lockorder read-through miss decodes a segment line under mu by design; the index, cache, and file must be observed atomically
func (s *Store) Lookup(key string) (Outcome, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if o, ok := s.cache.get(key); ok {
		s.hits++
		return o, true
	}
	s.misses++
	ref, ok := s.index[key]
	if !ok {
		return Outcome{}, false
	}
	o, err := s.readAt(ref)
	if err != nil || o.Key != key {
		// The index and the file disagree — external truncation or
		// corruption since open. Treat as a miss; a rerun repairs it.
		return Outcome{}, false
	}
	s.cache.put(key, o)
	return o, true
}

// readAt decodes one indexed line from its segment file.
func (s *Store) readAt(ref segref) (Outcome, error) {
	f, err := os.Open(s.segByID(ref.seg).path)
	if err != nil {
		return Outcome{}, err
	}
	defer f.Close()
	buf := make([]byte, ref.n)
	if _, err := f.ReadAt(buf, ref.off); err != nil {
		return Outcome{}, err
	}
	var o Outcome
	if err := json.Unmarshal(bytes.TrimSpace(buf), &o); err != nil {
		return Outcome{}, err
	}
	return o, nil
}

// Append writes one outcome to the active segment and indexes it,
// rotating the segment when full and kicking off a background
// compaction when enough sealed garbage has accumulated.
//
//asd:allow lockorder single-writer invariant: the segment write, index update, and rotation must mutate atomically under mu
func (s *Store) Append(o Outcome) error {
	data, err := json.Marshal(o)
	if err != nil {
		return fmt.Errorf("farm: marshal outcome: %w", err)
	}
	data = append(data, '\n')

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("farm: store closed")
	}
	active := s.segs[len(s.segs)-1]
	if active.size > 0 && active.size+int64(len(data)) > s.maxSegBytes {
		next, err := s.rotateLocked(active)
		if err != nil {
			return err
		}
		active = next
	}
	if _, err := s.f.Write(data); err != nil {
		return fmt.Errorf("farm: append outcome: %w", err)
	}
	ref := segref{seg: active.id, off: active.size, n: int64(len(data))}
	active.size += ref.n
	active.lines++
	if o.OK() {
		if prev, dup := s.index[o.Key]; dup {
			s.segByID(prev.seg).dead++
		}
		s.index[o.Key] = ref
		s.cache.put(o.Key, o)
	} else {
		active.dead++
	}
	s.maybeCompactLocked()
	return nil
}

// rotateLocked seals the active segment and starts the next one.
func (s *Store) rotateLocked(active *segment) (*segment, error) {
	next := &segment{id: active.id + 1, path: segPath(s.path, active.id+1)}
	f, err := os.OpenFile(next.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("farm: rotate segment: %w", err)
	}
	s.f.Close()
	s.f = f
	s.segs = append(s.segs, next)
	s.rotations++
	return next, nil
}

// maybeCompactLocked starts a background compaction when the sealed
// segments carry enough droppable lines to be worth rewriting.
func (s *Store) maybeCompactLocked() {
	if s.compacting || len(s.segs) < 2 {
		return
	}
	dead := 0
	for _, seg := range s.segs[:len(s.segs)-1] {
		dead += seg.dead
	}
	if dead < s.minGarbage {
		return
	}
	s.compacting = true
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.doCompact()
		s.mu.Lock()
		s.compacting = false
		s.mu.Unlock()
	}()
}

// doCompact performs one compaction cycle, rewriting the sealed
// segments into one without superseded and failed lines (a no-op with
// fewer than two segments): snapshot the sealed segments' live entries
// under the lock, rewrite them (in original order) into a temp file
// without the lock — sealed segments are immutable — then atomically
// swap the file, the index and the segment list back under the lock.
//
//asd:allow lockorder the swap phase renames and unlinks sealed segments under mu so the index never points at a missing file; the heavy copy runs before mu is taken
func (s *Store) doCompact() error {
	type liveEnt struct {
		key string
		ref segref
	}
	s.mu.Lock()
	if s.closed || len(s.segs) < 2 {
		s.mu.Unlock()
		return nil
	}
	sealed := append([]*segment(nil), s.segs[:len(s.segs)-1]...)
	sealedSet := make(map[int64]bool, len(sealed))
	for _, seg := range sealed {
		sealedSet[seg.id] = true
	}
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var live []liveEnt
	for _, k := range keys {
		if ref := s.index[k]; sealedSet[ref.seg] {
			live = append(live, liveEnt{key: k, ref: ref})
		}
	}
	s.mu.Unlock()

	sort.Slice(live, func(a, b int) bool {
		if live[a].ref.seg != live[b].ref.seg {
			return live[a].ref.seg < live[b].ref.seg
		}
		return live[a].ref.off < live[b].ref.off
	})

	// Build the compacted image from the immutable sealed files.
	var buf bytes.Buffer
	newRefs := make(map[string]segref, len(live))
	bySeg := map[int64][]byte{}
	firstID := sealed[0].id
	for _, ent := range live {
		data, ok := bySeg[ent.ref.seg]
		if !ok {
			var err error
			seg := sealed[0]
			for _, sg := range sealed {
				if sg.id == ent.ref.seg {
					seg = sg
				}
			}
			if data, err = os.ReadFile(seg.path); err != nil {
				return fmt.Errorf("farm: compact: %w", err)
			}
			bySeg[ent.ref.seg] = data
		}
		line := data[ent.ref.off : ent.ref.off+ent.ref.n]
		newRefs[ent.key] = segref{seg: firstID, off: int64(buf.Len()), n: int64(len(line))}
		buf.Write(line)
	}
	tmp := segPath(s.path, firstID) + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("farm: compact: %w", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		os.Remove(tmp)
		return nil
	}
	if err := os.Rename(tmp, segPath(s.path, firstID)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("farm: compact: %w", err)
	}
	newSeg := &segment{id: firstID, path: segPath(s.path, firstID), size: int64(buf.Len())}
	for _, ent := range live {
		newSeg.lines++
		// An entry superseded while we compacted keeps its newer ref;
		// its copy in the compacted file is immediately dead.
		if cur, ok := s.index[ent.key]; ok && cur == ent.ref {
			s.index[ent.key] = newRefs[ent.key]
		} else {
			newSeg.dead++
		}
	}
	rebuilt := []*segment{newSeg}
	for _, seg := range s.segs {
		if !sealedSet[seg.id] {
			rebuilt = append(rebuilt, seg)
		}
	}
	s.segs = rebuilt
	for _, seg := range sealed {
		if seg.id != firstID {
			os.Remove(seg.path)
		}
	}
	s.compactions++
	return nil
}

// Close waits for any background compaction and releases the active
// segment file.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.wg.Wait()
	return s.f.Close()
}

// outcomeLRU is a small fixed-capacity LRU of decoded outcomes — the
// read-through layer that makes a repeated matrix query cost zero IO
// and zero simulation.
type outcomeLRU struct {
	cap int
	m   map[string]*list.Element
	l   *list.List // front = most recently used
}

type lruEntry struct {
	key string
	o   Outcome
}

func newOutcomeLRU(capacity int) *outcomeLRU {
	return &outcomeLRU{cap: capacity, m: make(map[string]*list.Element), l: list.New()}
}

func (c *outcomeLRU) get(key string) (Outcome, bool) {
	el, ok := c.m[key]
	if !ok {
		return Outcome{}, false
	}
	c.l.MoveToFront(el)
	return el.Value.(*lruEntry).o, true
}

func (c *outcomeLRU) put(key string, o Outcome) {
	if el, ok := c.m[key]; ok {
		el.Value.(*lruEntry).o = o
		c.l.MoveToFront(el)
		return
	}
	c.m[key] = c.l.PushFront(&lruEntry{key: key, o: o})
	if c.l.Len() > c.cap {
		last := c.l.Back()
		c.l.Remove(last)
		delete(c.m, last.Value.(*lruEntry).key)
	}
}
