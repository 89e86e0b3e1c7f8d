package cache

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"asdsim/internal/mem"
)

// modelLine is one resident line of the reference model.
type modelLine struct {
	line  mem.Line
	dirty bool
}

// lruModel is a brute-force reference for Cache: each set is a list of
// its resident lines, most recently used first, and a line maps to set
// line mod sets.
type lruModel struct {
	assoc          int
	sets           [][]modelLine
	accesses, hits uint64
}

func newLRUModel(sets, assoc int) *lruModel {
	return &lruModel{assoc: assoc, sets: make([][]modelLine, sets)}
}

// find returns l's set and its position in that set's list, or -1.
func (m *lruModel) find(l mem.Line) (set, pos int) {
	set = int(uint64(l) % uint64(len(m.sets)))
	return set, slices.IndexFunc(m.sets[set], func(e modelLine) bool { return e.line == l })
}

// touch moves position pos of set to the front, ORing in dirty.
func (m *lruModel) touch(set, pos int, dirty bool) {
	e := m.sets[set][pos]
	e.dirty = e.dirty || dirty
	m.sets[set] = slices.Insert(slices.Delete(m.sets[set], pos, pos+1), 0, e)
}

func (m *lruModel) lookup(l mem.Line, store bool) bool {
	m.accesses++
	set, pos := m.find(l)
	if pos < 0 {
		return false
	}
	m.hits++
	m.touch(set, pos, store)
	return true
}

func (m *lruModel) insert(l mem.Line, dirty bool) (Victim, bool) {
	set, pos := m.find(l)
	if pos >= 0 {
		m.touch(set, pos, dirty)
		return Victim{}, false
	}
	var v Victim
	evicted := len(m.sets[set]) == m.assoc
	if evicted {
		lru := m.sets[set][m.assoc-1]
		v = Victim{Line: lru.line, Dirty: lru.dirty}
		m.sets[set] = m.sets[set][:m.assoc-1]
	}
	m.sets[set] = slices.Insert(m.sets[set], 0, modelLine{l, dirty})
	return v, evicted
}

func (m *lruModel) invalidate(l mem.Line) (present, dirty bool) {
	set, pos := m.find(l)
	if pos < 0 {
		return false, false
	}
	dirty = m.sets[set][pos].dirty
	m.sets[set] = slices.Delete(m.sets[set], pos, pos+1)
	return true, dirty
}

func (m *lruModel) contains(l mem.Line) bool {
	_, pos := m.find(l)
	return pos >= 0
}

func (m *lruModel) reset() {
	for s := range m.sets {
		m.sets[s] = m.sets[s][:0]
	}
	m.accesses, m.hits = 0, 0
}

func (m *lruModel) hitRate() float64 {
	if m.accesses == 0 {
		return 0
	}
	return float64(m.hits) / float64(m.accesses)
}

func byLine(a, b modelLine) int { return cmp.Compare(a.line, b.line) }

// setContents lists set s's resident lines of c as line/dirty pairs,
// sorted by line.
func setContents(c *Cache, s int) []modelLine {
	var out []modelLine
	for w := 0; w < c.assoc; w++ {
		if c.valid[s]>>w&1 == 1 {
			out = append(out, modelLine{mem.Line(c.tags[s*c.assoc+w]), c.dirty[s]>>w&1 == 1})
		}
	}
	slices.SortFunc(out, byLine)
	return out
}

// TestCacheMatchesLRUModel drives a Cache and the brute-force per-set
// LRU model with the same seeded random operations and requires the
// same hit for every Lookup, the same victim line and dirty bit for
// every Insert and InsertAbsent, the same answer for every Invalidate
// and Contains, the same hit rate after every step, and the same final
// contents. The geometries cover the three setOf paths (power of two,
// 3*2^k, plain modulo) and associativities 1 to 16. "sparse" draws
// lines from half the capacity, so most sets stay part-full and
// Invalidate and Reset leave stale tags in invalid ways; "full" draws
// from four times the capacity, so sets fill and evict.
func TestCacheMatchesLRUModel(t *testing.T) {
	for _, g := range []struct {
		name        string
		sets, assoc int
	}{
		{"pow2-8x4", 8, 4},
		{"pow2-4x16", 4, 16},
		{"3x2^2-12x5", 12, 5},
		{"3x2^1-6x12", 6, 12},
		{"mod-20x3", 20, 3},
		{"mod-5x1", 5, 1},
	} {
		capacity := g.sets * g.assoc
		for _, occ := range []struct {
			name  string
			lines int
		}{{"sparse", max(capacity/2, 2)}, {"full", 4 * capacity}} {
			t.Run(g.name+"/"+occ.name, func(t *testing.T) {
				for seed := int64(1); seed <= 10; seed++ {
					checkAgainstModel(t, seed, g.sets, g.assoc, occ.lines)
				}
			})
		}
	}
}

func checkAgainstModel(t *testing.T, seed int64, sets, assoc, lines int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := New("t", sets*assoc*mem.LineSize, assoc)
	m := newLRUModel(sets, assoc)
	for i := 0; i < 4000; i++ {
		l := mem.Line(rng.Intn(lines))
		store := rng.Intn(3) == 0
		var got, want string
		switch op := rng.Intn(400); {
		case op < 120:
			got, want = fmt.Sprint("lookup ", c.Lookup(l, store)), fmt.Sprint("lookup ", m.lookup(l, store))
		case op < 220:
			v, ev := c.Insert(l, store)
			mv, mev := m.insert(l, store)
			got, want = fmt.Sprint("insert ", v, ev), fmt.Sprint("insert ", mv, mev)
		case op < 300:
			// The hierarchy's demand fill: InsertAbsent only on a proven
			// miss.
			if hit := c.Lookup(l, store); hit != m.lookup(l, store) {
				got, want = fmt.Sprint("fill lookup ", hit), fmt.Sprint("fill lookup ", !hit)
			} else if !hit {
				v, ev := c.InsertAbsent(l, store)
				mv, mev := m.insert(l, store)
				got, want = fmt.Sprint("fill ", v, ev), fmt.Sprint("fill ", mv, mev)
			}
		case op < 360:
			p, d := c.Invalidate(l)
			mp, md := m.invalidate(l)
			got, want = fmt.Sprint("invalidate ", p, d), fmt.Sprint("invalidate ", mp, md)
		case op < 399:
			got, want = fmt.Sprint("contains ", c.Contains(l)), fmt.Sprint("contains ", m.contains(l))
		default:
			c.Reset()
			m.reset()
		}
		if got != want {
			t.Fatalf("seed %d step %d line %d: cache %q, model %q", seed, i, l, got, want)
		}
		if c.Accesses != m.accesses || c.Hits != m.hits || c.HitRate() != m.hitRate() {
			t.Fatalf("seed %d step %d: cache %d/%d hits (rate %v), model %d/%d (rate %v)",
				seed, i, c.Hits, c.Accesses, c.HitRate(), m.hits, m.accesses, m.hitRate())
		}
	}
	for s := range m.sets {
		want := slices.Clone(m.sets[s])
		slices.SortFunc(want, byLine)
		if got := setContents(c, s); !slices.Equal(got, want) {
			t.Fatalf("seed %d set %d: cache holds %v, model %v", seed, s, got, want)
		}
	}
}

// TestStaleTagMisses is the directed case for tags left behind: after
// Invalidate, or a Reset that clears only the valid masks, the line's
// tag still sits in an invalid way and must not be found. Line 0 is
// also the value of every never-written tag slot. An Insert of such a
// line must allocate it afresh, clean, rather than refresh the stale
// way and keep its old dirty bit.
func TestStaleTagMisses(t *testing.T) {
	for _, drop := range []struct {
		name string
		fn   func(*Cache, mem.Line)
	}{
		{"invalidate", func(c *Cache, l mem.Line) { c.Invalidate(l) }},
		{"reset", func(c *Cache, _ mem.Line) { c.Reset() }},
	} {
		for _, l := range []mem.Line{0, 9} {
			c := New("t", 4*2*mem.LineSize, 2) // 4 sets x 2 ways
			if c.Contains(l) {
				t.Fatalf("line %d found in a fresh cache", l)
			}
			c.Insert(l, true)
			drop.fn(c, l)
			if c.Contains(l) || c.Lookup(l, false) {
				t.Errorf("%s: line %d still found through its stale tag", drop.name, l)
			}
			if present, _ := c.Invalidate(l); present {
				t.Errorf("%s: line %d invalidated twice", drop.name, l)
			}
			if _, ev := c.Insert(l, false); ev {
				t.Errorf("%s: re-inserting line %d into an empty set evicted", drop.name, l)
			}
			if present, dirty := c.Invalidate(l); !present || dirty {
				t.Errorf("%s: re-inserted line %d present=%v dirty=%v, want present and clean", drop.name, l, present, dirty)
			}
		}
	}
}
