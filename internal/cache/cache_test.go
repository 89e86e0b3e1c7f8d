package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"asdsim/internal/mem"
)

// sizeBytes is a cache's capacity in bytes.
func sizeBytes(c *Cache) int { return c.sets * c.assoc * mem.LineSize }

func TestNewGeometry(t *testing.T) {
	c := New("t", 1024, 2) // 8 lines, 4 sets
	if c.sets != 4 || c.assoc != 2 || sizeBytes(c) != 1024 {
		t.Errorf("geometry: sets=%d assoc=%d size=%d", c.sets, c.assoc, sizeBytes(c))
	}
	if c.Name() != "t" {
		t.Errorf("Name = %q", c.Name())
	}
}

func TestNewPanics(t *testing.T) {
	cases := map[string]func(){
		"zero size":    func() { New("x", 0, 1) },
		"zero assoc":   func() { New("x", 1024, 0) },
		"ragged":       func() { New("x", 1000, 2) },
		"indivisible ": func() { New("x", 5*128, 2) },
		"assoc > 16":   func() { New("x", 17*128, 17) },
		"above 1 GiB":  func() { New("x", MaxLevelBytes+128, 1) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestLookupMissThenHit(t *testing.T) {
	c := New("t", 1024, 2)
	if c.Lookup(5, false) {
		t.Fatal("hit in empty cache")
	}
	c.Insert(5, false)
	if !c.Lookup(5, false) {
		t.Fatal("miss after insert")
	}
	if c.Accesses != 2 || c.Hits != 1 {
		t.Errorf("stats: acc=%d hits=%d", c.Accesses, c.Hits)
	}
	if c.HitRate() != 0.5 {
		t.Errorf("HitRate = %v", c.HitRate())
	}
}

func TestLRUEviction(t *testing.T) {
	c := New("t", 2*128*4, 2) // 4 sets, 2 ways
	// Lines 0, 4, 8 all map to set 0 (sets=4).
	c.Insert(0, false)
	c.Insert(4, false)
	c.Lookup(0, false) // 0 becomes MRU; 4 is LRU
	v, ev := c.Insert(8, false)
	if !ev || v.Line != 4 {
		t.Fatalf("evicted %v (ev=%v), want line 4", v, ev)
	}
	if !c.Contains(0) || !c.Contains(8) || c.Contains(4) {
		t.Error("wrong residency after eviction")
	}
}

func TestInsertExistingRefreshes(t *testing.T) {
	c := New("t", 2*128*4, 2)
	c.Insert(0, false)
	c.Insert(4, false)
	c.Insert(0, true) // refresh 0 as MRU and dirty
	v, ev := c.Insert(8, false)
	if !ev || v.Line != 4 {
		t.Fatalf("evicted %v, want 4", v)
	}
	inv, dirty := c.Invalidate(0)
	if !inv || !dirty {
		t.Error("line 0 should be present and dirty")
	}
}

func TestDirtyEviction(t *testing.T) {
	c := New("t", 128*2, 1) // 2 sets, direct-mapped
	c.Insert(0, true)
	v, ev := c.Insert(2, false) // same set 0
	if !ev || v.Line != 0 || !v.Dirty {
		t.Fatalf("victim = %+v ev=%v, want dirty line 0", v, ev)
	}
}

func TestStoreMarksDirty(t *testing.T) {
	c := New("t", 128*4, 2)
	c.Insert(1, false)
	c.Lookup(1, true)
	_, dirty := c.Invalidate(1)
	if !dirty {
		t.Error("store hit should dirty the line")
	}
}

func TestInvalidateMissing(t *testing.T) {
	c := New("t", 128*4, 2)
	if present, _ := c.Invalidate(9); present {
		t.Error("invalidate of absent line reported present")
	}
}

func TestReset(t *testing.T) {
	c := New("t", 128*4, 2)
	c.Insert(1, true)
	c.Lookup(1, false)
	c.Reset()
	if c.Accesses != 0 || c.Hits != 0 || c.Contains(1) {
		t.Error("Reset incomplete")
	}
}

// Property: a cache never holds more distinct lines than its capacity,
// and a line just inserted is always resident.
func TestCacheCapacityProperty(t *testing.T) {
	f := func(lines []uint16) bool {
		c := New("t", 128*16, 4) // 16-line capacity
		for _, l := range lines {
			line := mem.Line(l % 256)
			c.Insert(line, false)
			if !c.Contains(line) {
				return false
			}
		}
		count := 0
		for l := mem.Line(0); l < 256; l++ {
			if c.Contains(l) {
				count++
			}
		}
		return count <= 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHierarchyBasicWalk(t *testing.T) {
	h := NewHierarchy(Config{
		L1Size: 1 << 10, L1Assoc: 2, L1Lat: 2,
		L2Size: 4 << 10, L2Assoc: 2, L2Lat: 13,
		L3Size: 16 << 10, L3Assoc: 4, L3Lat: 90,
	})
	r := h.Access(100, false, 0)
	if r.Level != Memory {
		t.Fatalf("first access level = %v, want Memory", r.Level)
	}
	if h.DemandMisses != 1 {
		t.Errorf("DemandMisses = %d", h.DemandMisses)
	}
	h.Fill(100, false)
	r = h.Access(100, false, 0)
	if r.Level != LevelL1 || r.Latency != 2 {
		t.Errorf("after fill: level=%v lat=%d", r.Level, r.Latency)
	}
}

func TestHierarchyL2HitPromotesToL1(t *testing.T) {
	h := NewHierarchy(Config{
		L1Size: 512, L1Assoc: 2, L1Lat: 2, // 4 lines
		L2Size: 4 << 10, L2Assoc: 2, L2Lat: 13,
		L3Size: 16 << 10, L3Assoc: 4, L3Lat: 90,
	})
	h.Fill(1, false)
	// Evict line 1 from the 4-line L1 by filling 4 conflicting lines
	// (sets=2, so lines 3,5,7,9 map to set 1; line 1 is in set 1).
	for _, l := range []mem.Line{3, 5, 7, 9} {
		h.Fill(l, false)
	}
	if h.L1.Contains(1) {
		t.Fatal("line 1 should have been evicted from L1")
	}
	r := h.Access(1, false, 0)
	if r.Level != LevelL2 {
		t.Fatalf("level = %v, want L2", r.Level)
	}
	if !h.L1.Contains(1) {
		t.Error("L2 hit should refill L1")
	}
}

func TestHierarchyVictimL3(t *testing.T) {
	h := NewHierarchy(Config{
		L1Size: 512, L1Assoc: 2, L1Lat: 2,
		L2Size: 1 << 10, L2Assoc: 2, L2Lat: 13, // 8 lines, 4 sets
		L3Size: 16 << 10, L3Assoc: 4, L3Lat: 90,
	})
	h.Fill(0, false)
	// Force line 0 out of L2: fill two more lines mapping to L2 set 0.
	h.Fill(4, false)
	h.Fill(8, false)
	if h.L2.Contains(0) {
		t.Fatal("line 0 should have left L2")
	}
	if !h.L3.Contains(0) {
		t.Fatal("L2 victim should land in L3")
	}
	r := h.Access(0, false, 0)
	if r.Level != LevelL3 {
		t.Fatalf("level = %v, want L3", r.Level)
	}
	if h.L3.Contains(0) {
		t.Error("L3 hit should remove the line from L3 (victim cache)")
	}
	if !h.L2.Contains(0) || !h.L1.Contains(0) {
		t.Error("L3 hit should promote into L2 and L1")
	}
}

func TestHierarchyDirtyWriteback(t *testing.T) {
	h := NewHierarchy(Config{
		L1Size: 512, L1Assoc: 2, L1Lat: 2,
		L2Size: 1 << 10, L2Assoc: 2, L2Lat: 13,
		L3Size: 1 << 10, L3Assoc: 2, L3Lat: 90, // tiny L3: 8 lines
	})
	h.Fill(0, true) // dirty fill (store miss)
	// Push 0 out of L2 into L3, then out of L3.
	var wbs []mem.Line
	for _, l := range []mem.Line{4, 8, 12, 16} {
		wbs = append(wbs, h.Fill(l, false)...)
	}
	found := false
	for _, wb := range wbs {
		if wb == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("dirty line 0 never written back; wbs=%v", wbs)
	}
	if h.WritebacksToMemory == 0 {
		t.Error("WritebacksToMemory not counted")
	}
}

func TestHierarchyFillL2Only(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	h.FillL2Only(7)
	if h.L1.Contains(7) {
		t.Error("FillL2Only touched L1")
	}
	if !h.L2.Contains(7) {
		t.Error("FillL2Only missed L2")
	}
}

func TestHierarchyContainsAndReset(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	h.Fill(3, false)
	if !h.Contains(3) {
		t.Error("Contains(3) false after fill")
	}
	h.Reset()
	if h.Contains(3) || h.DemandMisses != 0 {
		t.Error("Reset incomplete")
	}
}

func TestLevelString(t *testing.T) {
	if LevelL1.String() != "L1" || LevelL2.String() != "L2" || LevelL3.String() != "L3" || Memory.String() != "Memory" {
		t.Error("Level strings wrong")
	}
	if Level(9).String() != "Level?" {
		t.Error("unknown level string")
	}
}

func TestDefaultConfigGeometry(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	if sizeBytes(h.L1) != 32<<10 || sizeBytes(h.L2) != 1920<<10 || sizeBytes(h.L3) != 36<<20 {
		t.Errorf("sizes: %d %d %d", sizeBytes(h.L1), sizeBytes(h.L2), sizeBytes(h.L3))
	}
}

// BenchmarkHierarchyAccessHit times L1 hits in a full L1 set, cycling
// through its four lines so that every way is probed.
func BenchmarkHierarchyAccessHit(b *testing.B) {
	h := NewHierarchy(DefaultConfig())
	sets := mem.Line(h.L1.sets)
	lines := []mem.Line{1, 1 + sets, 1 + 2*sets, 1 + 3*sets}
	for _, l := range lines {
		h.Fill(l, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(lines[i&3], false, 0)
	}
}

// BenchmarkHierarchyAccessMiss times full L1/L2/L3 miss walks on a
// nearly empty hierarchy: the common case in the 36 MB L3, which runs at
// the modelled budgets seldom fill. The missing lines step through every
// set of every level.
func BenchmarkHierarchyAccessMiss(b *testing.B) {
	h := NewHierarchy(DefaultConfig())
	h.Fill(1, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(mem.Line(i)*7919, false, 0)
	}
}

// InsertAbsent must behave exactly like Insert whenever its absence
// precondition holds: drive two identical caches with a pseudo-random
// line stream, inserting through Insert on one and (absence-checked)
// InsertAbsent on the other, and require identical victims and final
// residency. The 12-set geometry exercises the 3*2^k set decomposition
// alongside the divide path correctness proven below.
func TestInsertAbsentMatchesInsert(t *testing.T) {
	a := New("a", 12*128*4, 4) // 12 sets = 3*2^2, 4 ways
	b := New("b", 12*128*4, 4)
	rng := uint64(1)
	for i := 0; i < 4096; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		l := mem.Line(rng >> 33 & 127) // 128 hot lines -> heavy set conflict
		dirty := rng>>32&1 == 1
		va, eva := a.Insert(l, dirty)
		var vb Victim
		var evb bool
		if b.Contains(l) {
			vb, evb = b.Insert(l, dirty) // refresh path; InsertAbsent forbidden
		} else {
			vb, evb = b.InsertAbsent(l, dirty)
		}
		if va != vb || eva != evb {
			t.Fatalf("step %d line %d: Insert -> (%+v,%v), InsertAbsent path -> (%+v,%v)", i, l, va, eva, vb, evb)
		}
	}
	for l := mem.Line(0); l < 128; l++ {
		if a.Contains(l) != b.Contains(l) {
			t.Fatalf("residency diverges at line %d", l)
		}
		pa, da := a.Invalidate(l)
		pb, db := b.Invalidate(l)
		if pa != pb || da != db {
			t.Fatalf("dirty state diverges at line %d", l)
		}
	}
}

// The three setOf paths (power-of-two mask, 3*2^k decomposition, plain
// modulo) must agree; exercised via residency in same-set geometries.
func TestSetOfPathsAgree(t *testing.T) {
	// sets=12 takes the 3*2^k path; an equivalent plain-modulo geometry
	// is forced by a 5-slice set count (sets=20 is neither 2^k nor
	// 3*2^k). Both must place line l in set l%sets: a direct-mapped
	// cache then evicts exactly on same-set collision.
	for _, sets := range []int{12, 20} {
		c := New("t", sets*128, 1)
		for l := 0; l < 4*sets; l++ {
			v, ev := c.Insert(mem.Line(l), false)
			if l >= sets {
				if !ev || int(v.Line) != l-sets {
					t.Fatalf("sets=%d: inserting %d evicted %+v (ev=%v), want %d", sets, l, v, ev, l-sets)
				}
			} else if ev {
				t.Fatalf("sets=%d: unexpected eviction %+v at line %d", sets, v, l)
			}
		}
	}
}

// posOf finds every way at every position of a recency order, for every
// associativity from 1 to 16: each rotation of the ways puts each way
// at each position once. Way 0 is the case where the nibbles past
// assoc, zero in the order, XOR to zero too.
func TestPosOfEveryPosition(t *testing.T) {
	for assoc := 1; assoc <= maxAssoc; assoc++ {
		for rot := 0; rot < assoc; rot++ {
			var ord uint64
			for p := 0; p < assoc; p++ {
				ord |= uint64((p+rot)%assoc) << (4 * p)
			}
			for p := 0; p < assoc; p++ {
				if way := (p + rot) % assoc; posOf(ord, way) != uint(p) {
					t.Errorf("assoc %d, order %#x: way %d at position %d, posOf says %d", assoc, ord, way, p, posOf(ord, way))
				}
			}
		}
	}
}

// cacheOp is one step of a random cache workout.
type cacheOp struct {
	kind  int // 0 Lookup, 1 Insert, 2 Lookup then InsertAbsent on a miss, 3 Invalidate
	line  mem.Line
	store bool
}

func randomOps(rng *rand.Rand, n, lines int) []cacheOp {
	ops := make([]cacheOp, n)
	for i := range ops {
		ops[i] = cacheOp{kind: rng.Intn(4), line: mem.Line(rng.Intn(lines)), store: rng.Intn(3) == 0}
	}
	return ops
}

// apply runs ops on c and logs every outcome: hits, victims with their
// dirty bits, and invalidations.
func apply(c *Cache, ops []cacheOp) []string {
	var log []string
	for _, op := range ops {
		switch op.kind {
		case 0:
			log = append(log, fmt.Sprint("lookup ", op.line, c.Lookup(op.line, op.store)))
		case 1:
			v, ev := c.Insert(op.line, op.store)
			log = append(log, fmt.Sprint("insert ", op.line, v, ev))
		case 2:
			if c.Lookup(op.line, op.store) {
				log = append(log, fmt.Sprint("fill-hit ", op.line))
				break
			}
			v, ev := c.InsertAbsent(op.line, op.store)
			log = append(log, fmt.Sprint("fill ", op.line, v, ev))
		case 3:
			present, dirty := c.Invalidate(op.line)
			log = append(log, fmt.Sprint("invalidate ", op.line, present, dirty))
		}
	}
	return append(log, fmt.Sprint("stats ", c.Accesses, c.Hits))
}

// contents lists every valid way as set/way/tag/dirty.
func contents(c *Cache) []string {
	var out []string
	for s := 0; s < c.sets; s++ {
		for w := 0; w < c.assoc; w++ {
			if c.valid[s]>>w&1 == 1 {
				out = append(out, fmt.Sprint(s, w, c.tags[s*c.assoc+w], c.dirty[s]>>w&1))
			}
		}
	}
	return out
}

// TestResetMatchesFreshCache pins Reset's claim that leaving the tag and
// recency arrays untouched is outcome-neutral: after one random workout
// and a Reset, a second workout gives exactly the hits, victims, dirty
// bits, statistics and final contents a fresh cache gives. The line
// range is a few times the capacity, so sets fill, evict and are
// invalidated back below full.
func TestResetMatchesFreshCache(t *testing.T) {
	for _, g := range []struct {
		name        string
		size, assoc int
	}{
		{"pow2-8x4", 8 * 4 * mem.LineSize, 4},
		{"3x4-sets-5way", 12 * 5 * mem.LineSize, 5},
	} {
		t.Run(g.name, func(t *testing.T) {
			lines := 4 * g.size / mem.LineSize
			for seed := int64(1); seed <= 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				first, second := randomOps(rng, 3000, lines), randomOps(rng, 3000, lines)

				reused := New("reused", g.size, g.assoc)
				apply(reused, first)
				reused.Reset()
				got := apply(reused, second)
				fresh := New("fresh", g.size, g.assoc)
				want := apply(fresh, second)

				if !slices.Equal(got, want) {
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("seed %d op %d: reused cache %q, fresh cache %q", seed, i, got[i], want[i])
						}
					}
				}
				if !slices.Equal(contents(reused), contents(fresh)) {
					t.Fatalf("seed %d: contents differ after the second workout", seed)
				}
			}
		})
	}
}

func TestConfigValidate(t *testing.T) {
	def := DefaultConfig()
	if err := def.Validate(); err != nil {
		t.Fatalf("default geometry rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"zero L1 size":     func(c *Config) { c.L1Size = 0 },
		"negative L2 size": func(c *Config) { c.L2Size = -128 },
		"zero L3 assoc":    func(c *Config) { c.L3Assoc = 0 },
		"assoc above 16":   func(c *Config) { c.L2Assoc, c.L2Size = 17, 17*mem.LineSize*64 },
		"ragged size":      func(c *Config) { c.L1Size = 1000 },
		"indivisible":      func(c *Config) { c.L2Size = 5 * mem.LineSize * 3 }, // 15 lines, 10 ways
		"L3 above 1 GiB":   func(c *Config) { c.L3Size = MaxLevelBytes + 12*mem.LineSize },
	} {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
