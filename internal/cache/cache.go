// Package cache models the Power5+ cache hierarchy that filters processor
// references before they reach the memory controller: a write-back,
// write-allocate set-associative cache primitive plus a three-level
// hierarchy (L1D, shared L2, off-chip victim L3).
//
// The caches are passive structures — they answer hit/miss and track
// dirty state and evictions; all timing lives in the CPU and memory
// controller models.
package cache

import (
	"fmt"
	"math/bits"

	"asdsim/internal/mem"
)

// maxAssoc bounds associativity so a set's LRU recency order packs into
// one uint64 (4 bits per way).
const maxAssoc = 16

// Cache is one set-associative, write-back cache level with true-LRU
// replacement.
//
// Per-set replacement state is packed: order holds the set's way
// indices as nibbles, most-recently-used first, and valid/dirty are
// per-set way bitmasks. A lookup therefore touches only the set's valid
// mask and its valid ways' tags, and victim selection is pure bit
// arithmetic instead of a timestamp scan — the caches sit on the
// simulator's per-access hot path.
type Cache struct {
	name     string
	sets     int
	setMask  uint64 // sets-1 when sets is a power of two, else 0
	setShift uint   // k when sets == 3<<k (the Power5+ 3-slice geometries), else 0
	assoc    int
	fullMask uint16
	ident    uint64 // identity recency permutation for this assoc

	tags  []uint64 // per way-slot (set-major): line tag (full line number)
	order []uint64 // per set: packed way permutation, MRU nibble first
	valid []uint16 // per set: valid-way bitmask
	dirty []uint16 // per set: dirty-way bitmask

	// Stats.
	Accesses uint64
	Hits     uint64
}

// MaxLevelBytes bounds one cache level's capacity (1 GiB). Every level's
// tag array is allocated up front at 8 B per line, so the bound caps one
// level's tag array at 64 MiB.
const MaxLevelBytes = 1 << 30

// checkLevel reports why sizeBytes and assoc cannot form a cache level,
// or nil: both must be positive, assoc at most maxAssoc, sizeBytes at
// most MaxLevelBytes and a whole number of assoc-line sets.
func checkLevel(name string, sizeBytes, assoc int) error {
	switch {
	case sizeBytes <= 0 || assoc <= 0:
		return fmt.Errorf("cache %s: non-positive geometry (size %d, assoc %d)", name, sizeBytes, assoc)
	case assoc > maxAssoc:
		return fmt.Errorf("cache %s: assoc %d exceeds packed-LRU limit %d", name, assoc, maxAssoc)
	case sizeBytes > MaxLevelBytes:
		return fmt.Errorf("cache %s: size %d exceeds the limit of %d", name, sizeBytes, MaxLevelBytes)
	case sizeBytes%(assoc*mem.LineSize) != 0:
		return fmt.Errorf("cache %s: size %d is not a multiple of assoc %d x %d-byte lines", name, sizeBytes, assoc, mem.LineSize)
	}
	return nil
}

// New returns a cache of sizeBytes with the given associativity, using
// the global mem.LineSize. It panics on a geometry checkLevel rejects;
// Config.Validate reports the same problems as errors.
func New(name string, sizeBytes, assoc int) *Cache {
	if err := checkLevel(name, sizeBytes, assoc); err != nil {
		panic(err.Error())
	}
	lines := sizeBytes / mem.LineSize
	sets := lines / assoc
	c := &Cache{
		name:  name,
		sets:  sets,
		assoc: assoc,
		tags:  make([]uint64, lines),
		order: make([]uint64, sets),
		valid: make([]uint16, sets),
		dirty: make([]uint16, sets),
	}
	if sets&(sets-1) == 0 {
		c.setMask = uint64(sets - 1)
	} else if third := sets / 3; sets%3 == 0 && third&(third-1) == 0 {
		c.setShift = uint(bits.TrailingZeros(uint(third)))
	}
	c.fullMask = uint16(1)<<assoc - 1
	for w := 0; w < assoc; w++ {
		c.ident |= uint64(w) << (4 * w)
	}
	for s := range c.order {
		c.order[s] = c.ident
	}
	return c
}

// Name returns the cache's name.
func (c *Cache) Name() string { return c.name }

// setOf maps a line to its set by modulo, which accommodates the
// Power5+'s non-power-of-two L2 (three 640 KB slices, 1536 sets total);
// power-of-two geometries take the mask fast path (no hardware divide).
// The 3-slice geometries (sets = 3*2^k, both the L2 and L3 defaults)
// decompose l mod 3*2^k == (l>>k mod 3)<<k | l&(2^k-1), turning the
// runtime divide into a shift plus a constant modulo the compiler
// strength-reduces to a multiply. All three paths compute the same
// value.
func (c *Cache) setOf(l mem.Line) int {
	if c.setMask != 0 {
		return int(uint64(l) & c.setMask)
	}
	if c.setShift != 0 {
		q := uint64(l) >> c.setShift
		r := uint64(l) & (1<<c.setShift - 1)
		return int((q%3)<<c.setShift | r)
	}
	return int(uint64(l) % uint64(c.sets))
}

// find returns the set and way of line, or way -1. It walks the set's
// valid mask, lowest way first, and compares only valid ways' tags: an
// empty set costs one load of its mask and never touches the tag array,
// and a stale tag left in an invalid way by Invalidate or Reset is never
// compared. At most one valid way holds a given line.
func (c *Cache) find(l mem.Line) (set, way int) {
	set = c.setOf(l)
	base := set * c.assoc
	for vm := c.valid[set]; vm != 0; vm &= vm - 1 {
		w := bits.TrailingZeros16(vm)
		if c.tags[base+w] == uint64(l) {
			return set, w
		}
	}
	return set, -1
}

// touchMRU moves way to the front of set's recency order. The MRU way
// needs no test of its own: posOf gives it position 0, and the update
// is then the identity.
func (c *Cache) touchMRU(set, way int) {
	ord := c.order[set]
	p := posOf(ord, way)
	low := ord & (1<<(4*p) - 1)
	c.order[set] = ord&^(1<<(4*(p+1))-1) | low<<4 | uint64(way)
}

// nibbleOnes holds 1 in every nibble, so way*nibbleOnes repeats way in
// each.
const nibbleOnes = 0x1111111111111111

// posOf returns the nibble position of way within the recency order
// ord, in one SWAR step: the lowest zero nibble of x = ord ^
// way*nibbleOnes. (x-nibbleOnes)&^x flags a nibble's top bit only at a
// zero nibble or above one, where a borrow ran, so its lowest flag is
// exactly the lowest zero. The way always sits below assoc, so it is
// found before the zero nibbles past assoc, which XOR leaves zero when
// way is 0.
func posOf(ord uint64, way int) uint {
	x := ord ^ uint64(way)*nibbleOnes
	return uint(bits.TrailingZeros64((x-nibbleOnes)&^x&(nibbleOnes<<3))) / 4
}

// Lookup probes for line; on a hit it refreshes LRU state and, if store,
// marks the line dirty. It counts toward the hit/access statistics.
func (c *Cache) Lookup(l mem.Line, store bool) bool {
	c.Accesses++
	set, way := c.find(l)
	if way < 0 {
		return false
	}
	c.Hits++
	c.touchMRU(set, way)
	if store {
		c.dirty[set] |= 1 << way
	}
	return true
}

// Contains reports presence without disturbing LRU state or statistics.
func (c *Cache) Contains(l mem.Line) bool {
	_, way := c.find(l)
	return way >= 0
}

// Victim describes a line evicted by an Insert.
type Victim struct {
	Line  mem.Line
	Dirty bool
}

// Insert places line into the cache (MRU position), returning the evicted
// victim if any. Inserting a line already present just refreshes its LRU
// state (and ORs in dirty).
func (c *Cache) Insert(l mem.Line, dirty bool) (Victim, bool) {
	if set, way := c.find(l); way >= 0 {
		c.touchMRU(set, way)
		if dirty {
			c.dirty[set] |= 1 << way
		}
		return Victim{}, false
	}
	return c.InsertAbsent(l, dirty)
}

// InsertAbsent is Insert for lines the caller has proven are not in
// the cache (a lookup just missed, or a structural invariant rules
// presence out — e.g. victim-cache exclusivity). It skips Insert's
// presence scan and goes straight to victim selection. Inserting a line
// that IS present corrupts the set (two ways with one tag), so callers
// must hold a real absence proof.
//
//asd:hotpath
func (c *Cache) InsertAbsent(l mem.Line, dirty bool) (Victim, bool) {
	set := c.setOf(l)
	base := set * c.assoc
	vm := c.valid[set]
	var way int
	var v Victim
	evicted := false
	if vm != c.fullMask {
		way = bits.TrailingZeros16(^vm & c.fullMask)
	} else {
		way = int(c.order[set] >> (4 * (c.assoc - 1)) & 0xF)
		v = Victim{Line: mem.Line(c.tags[base+way]), Dirty: c.dirty[set]>>way&1 == 1}
		evicted = true
	}
	c.tags[base+way] = uint64(l)
	c.valid[set] |= 1 << way
	if dirty {
		c.dirty[set] |= 1 << way
	} else {
		c.dirty[set] &^= 1 << way
	}
	c.touchMRU(set, way)
	return v, evicted
}

// Invalidate removes line if present, returning whether it was present
// and dirty.
func (c *Cache) Invalidate(l mem.Line) (present, dirty bool) {
	set, way := c.find(l)
	if way < 0 {
		return false, false
	}
	dirty = c.dirty[set]>>way&1 == 1
	c.valid[set] &^= 1 << way
	return true, dirty
}

// HitRate returns hits/accesses (0 when unused).
func (c *Cache) HitRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Accesses)
}

// Reset clears contents and statistics. It is outcome-neutral without
// touching the tag or recency arrays: a stale tag never matches, since
// the valid mask rejects it, and a set's victim comes from its recency
// order only once the set is full again, by which time every way has
// been refilled and moved to the front, so the order is wholly
// rewritten.
func (c *Cache) Reset() {
	clear(c.valid)
	clear(c.dirty)
	c.Accesses = 0
	c.Hits = 0
}
