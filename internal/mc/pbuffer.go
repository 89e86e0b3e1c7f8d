package mc

import "asdsim/internal/mem"

// pbEntry is one Prefetch Buffer line.
type pbEntry struct {
	valid bool
	line  mem.Line
	used  uint64 // LRU stamp
	depth int    // prefetch depth that staged the line (1 = adjacent)
}

// PBuffer is the Prefetch Buffer of §3.3: a small set-associative,
// LRU-replaced store for memory-side-prefetched lines. Entries are
// invalidated on write requests to their address, and on a Read hit (the
// data moves into the processor caches, so keeping it is pointless).
type PBuffer struct {
	sets    int
	setMask uint64 // sets-1 when sets is a power of two, else 0
	assoc   int
	ways    []pbEntry
	tick    uint64

	// Inserts counts lines installed; Useful counts Read hits; Wasted
	// counts lines invalidated or evicted without ever being read.
	// WastedEvict and WastedWrite break Wasted down by cause (LRU
	// eviction vs write invalidation).
	Inserts     uint64
	Useful      uint64
	Wasted      uint64
	WastedEvict uint64
	WastedWrite uint64
}

// NewPBuffer builds a buffer of `lines` capacity with the given
// associativity. It panics on a geometry Config.Validate rejects.
func NewPBuffer(lines, assoc int) *PBuffer {
	if err := checkPBGeometry(lines, assoc); err != nil {
		panic(err.Error())
	}
	b := &PBuffer{sets: lines / assoc, assoc: assoc, ways: make([]pbEntry, lines)}
	if b.sets&(b.sets-1) == 0 {
		b.setMask = uint64(b.sets - 1)
	}
	return b
}

// Capacity returns the number of lines the buffer holds.
func (b *PBuffer) Capacity() int { return len(b.ways) }

func (b *PBuffer) setOf(l mem.Line) int {
	if b.setMask != 0 {
		return int(uint64(l) & b.setMask)
	}
	return int(uint64(l) % uint64(b.sets))
}

func (b *PBuffer) find(l mem.Line) int {
	base := b.setOf(l) * b.assoc
	for w := 0; w < b.assoc; w++ {
		// Line is compared before valid: a stale line match on an
		// invalid entry is rare, so the common path is one compare.
		if b.ways[base+w].line == l && b.ways[base+w].valid {
			return base + w
		}
	}
	return -1
}

// Contains reports presence without state change.
func (b *PBuffer) Contains(l mem.Line) bool { return b.find(l) >= 0 }

// TakeForRead removes line on a Read hit, counting it useful. It
// reports whether the line was present and, if so, the prefetch depth
// that staged it.
func (b *PBuffer) TakeForRead(l mem.Line) (hit bool, depth int) {
	i := b.find(l)
	if i < 0 {
		return false, 0
	}
	b.ways[i].valid = false
	b.Useful++
	return true, b.ways[i].depth
}

// InvalidateForWrite drops line on a Write to its address; an unused
// entry counts as wasted. It reports whether an entry was dropped and
// its staging depth.
func (b *PBuffer) InvalidateForWrite(l mem.Line) (dropped bool, depth int) {
	if i := b.find(l); i >= 0 {
		b.ways[i].valid = false
		b.Wasted++
		b.WastedWrite++
		return true, b.ways[i].depth
	}
	return false, 0
}

// Insert installs a prefetched line staged at the given depth,
// evicting the set's LRU entry if needed (an unused eviction counts as
// wasted; the victim's line and depth are reported for attribution).
func (b *PBuffer) Insert(l mem.Line, depth int) (evicted bool, evictedLine mem.Line, evictedDepth int) {
	b.tick++
	if i := b.find(l); i >= 0 {
		b.ways[i].used = b.tick
		return false, 0, 0
	}
	base := b.setOf(l) * b.assoc
	victim := base
	var oldest uint64 = ^uint64(0)
	for w := 0; w < b.assoc; w++ {
		i := base + w
		if !b.ways[i].valid {
			victim = i
			oldest = 0
			break
		}
		if b.ways[i].used < oldest {
			oldest = b.ways[i].used
			victim = i
		}
	}
	if b.ways[victim].valid {
		b.Wasted++
		b.WastedEvict++
		evicted, evictedLine, evictedDepth = true, b.ways[victim].line, b.ways[victim].depth
	}
	b.ways[victim] = pbEntry{valid: true, line: l, used: b.tick, depth: depth}
	b.Inserts++
	return evicted, evictedLine, evictedDepth
}

// Live returns the number of valid entries.
func (b *PBuffer) Live() int {
	n := 0
	for i := range b.ways {
		if b.ways[i].valid {
			n++
		}
	}
	return n
}
