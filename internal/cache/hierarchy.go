package cache

import (
	"asdsim/internal/mem"
	"asdsim/internal/obs"
)

// Level identifies where in the hierarchy an access was satisfied.
type Level int

// Hierarchy levels; Memory means the access missed every cache.
const (
	LevelL1 Level = 1
	LevelL2 Level = 2
	LevelL3 Level = 3
	Memory  Level = 4
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelL3:
		return "L3"
	case Memory:
		return "Memory"
	default:
		return "Level?"
	}
}

// Config holds hierarchy geometry and hit latencies (CPU cycles). The
// defaults model the Power5+ of the paper's §4.2.
type Config struct {
	L1Size  int
	L1Assoc int
	L1Lat   uint64

	L2Size  int
	L2Assoc int
	L2Lat   uint64

	L3Size  int
	L3Assoc int
	L3Lat   uint64
}

// DefaultConfig returns the Power5+ geometry: 32 KB 4-way L1D, 1920 KB
// 10-way shared L2 (the paper's 3x640 KB), 36 MB 12-way off-chip L3, with
// 128-byte lines throughout.
func DefaultConfig() Config {
	return Config{
		L1Size: 32 << 10, L1Assoc: 4, L1Lat: 2,
		L2Size: 1920 << 10, L2Assoc: 10, L2Lat: 13,
		L3Size: 36 << 20, L3Assoc: 12, L3Lat: 90,
	}
}

// Validate reports the first level whose geometry New would reject:
// a non-positive size or associativity, associativity above 16, a size
// above MaxLevelBytes, or a size that is not a multiple of associativity
// times the line size.
func (c *Config) Validate() error {
	for _, l := range [...]struct {
		name        string
		size, assoc int
	}{{"L1D", c.L1Size, c.L1Assoc}, {"L2", c.L2Size, c.L2Assoc}, {"L3", c.L3Size, c.L3Assoc}} {
		if err := checkLevel(l.name, l.size, l.assoc); err != nil {
			return err
		}
	}
	return nil
}

// Hierarchy is the three-level Power5+ data-cache hierarchy. The L3 acts
// as a victim cache of the L2: L2 evictions land in L3 and L3 hits are
// promoted back into L2/L1.
type Hierarchy struct {
	L1, L2, L3 *Cache
	cfg        Config

	// DemandMisses counts accesses that went to memory.
	DemandMisses uint64
	// WritebacksToMemory counts dirty lines pushed out of the L3.
	WritebacksToMemory uint64

	bus *obs.Bus // nil when no observer is attached

	// wbs is the reusable writeback scratch returned by Access/Fill/
	// FillL2Only; it is valid only until the next hierarchy call.
	wbs []mem.Line
}

// NewHierarchy builds a hierarchy from cfg.
func NewHierarchy(cfg Config) *Hierarchy {
	return &Hierarchy{
		L1:  New("L1D", cfg.L1Size, cfg.L1Assoc),
		L2:  New("L2", cfg.L2Size, cfg.L2Assoc),
		L3:  New("L3", cfg.L3Size, cfg.L3Assoc),
		cfg: cfg,
	}
}

// Result describes the outcome of one access walk.
type Result struct {
	// Level where the access hit (Memory on a full miss).
	Level Level
	// Latency is the hit latency in CPU cycles; meaningful only when
	// Level != Memory (memory latency is decided by the MC/DRAM model).
	Latency uint64
	// Writebacks lists dirty lines that must be written to memory as a
	// consequence of this access (L3 victim-cache spills). The slice
	// aliases a scratch buffer owned by the Hierarchy and is valid only
	// until the next Access/Fill/FillL2Only call.
	Writebacks []mem.Line
}

// SetObserver attaches a probe bus (nil detaches).
func (h *Hierarchy) SetObserver(b *obs.Bus) { h.bus = b }

// Access walks the hierarchy for a load or store to line at CPU cycle
// now (used only for probe timestamps). Hits refresh LRU state and
// promote the line up to L1 (and into L2 on an L3 hit, victim-cache
// style). A full miss performs no fill: callers must invoke Fill when
// the memory system returns the line.
//
//asd:hotpath
func (h *Hierarchy) Access(line mem.Line, store bool, now uint64) Result {
	res := h.access(line, store)
	if h.bus.On(obs.KindCacheAccess) {
		var st int64
		if store {
			st = 1
		}
		h.bus.Emit(obs.Event{Kind: obs.KindCacheAccess, Cycle: now, Line: line,
			V1: int64(res.Level), V2: st})
	}
	return res
}

func (h *Hierarchy) access(line mem.Line, store bool) Result {
	if h.L1.Lookup(line, store) {
		return Result{Level: LevelL1, Latency: h.cfg.L1Lat}
	}
	if h.L2.Lookup(line, store) {
		h.wbs = h.wbs[:0]
		h.fillL1(line, false)
		return Result{Level: LevelL2, Latency: h.cfg.L2Lat, Writebacks: h.wbs}
	}
	if h.L3.Lookup(line, false) {
		// Victim hit: promote into L2+L1 and drop from L3.
		_, dirty := h.L3.Invalidate(line)
		h.wbs = h.wbs[:0]
		h.fillL2(line, dirty || store)
		return Result{Level: LevelL3, Latency: h.cfg.L3Lat, Writebacks: h.wbs}
	}
	h.DemandMisses++
	return Result{Level: Memory}
}

// Fill installs a line arriving from memory into L2 and L1 (the Power5+
// demand-fill path), returning any dirty lines spilled to memory. store
// marks the line dirty on arrival (write-allocate). The returned slice
// aliases a scratch buffer and is valid only until the next hierarchy
// call.
//
//asd:hotpath
func (h *Hierarchy) Fill(line mem.Line, store bool) []mem.Line {
	h.wbs = h.wbs[:0]
	h.fillL2(line, store)
	return h.wbs
}

// FillL2Only installs a prefetched line into the L2 without touching the
// L1, which is how the Power5+ processor-side prefetcher stages its
// further-ahead lines. Callers must only fill lines that are not
// already L2 resident (the prefetch launch checks Contains and the
// flight table dedups in-flight lines). The returned slice aliases a
// scratch buffer and is valid only until the next hierarchy call.
//
//asd:hotpath
func (h *Hierarchy) FillL2Only(line mem.Line) []mem.Line {
	h.wbs = h.wbs[:0]
	if v, ev := h.L2.InsertAbsent(line, false); ev {
		h.spillToL3(v)
	}
	return h.wbs
}

// fillL2 inserts into L2 (spilling its victim to L3) and then into L1,
// appending any memory writebacks to h.wbs. Every caller holds an L2
// absence proof — the line either just missed the L2 (demand fill) or
// was just invalidated out of the L3 after missing the L2 (victim
// promote) — so the scan-free insert applies.
func (h *Hierarchy) fillL2(line mem.Line, dirty bool) {
	if v, ev := h.L2.InsertAbsent(line, dirty); ev {
		h.spillToL3(v)
	}
	h.fillL1(line, false)
}

// fillL1 inserts into L1 (callers have seen the line miss it); L1
// victims are write-through into L2 here because the modelled L1 is
// store-in: dirty victims merge into L2. Memory writebacks are
// appended to h.wbs.
func (h *Hierarchy) fillL1(line mem.Line, dirty bool) {
	if v, ev := h.L1.InsertAbsent(line, dirty); ev && v.Dirty {
		// Dirty L1 victim merges into L2 (it is normally present;
		// if it was evicted from L2 first, reinstall it dirty). No
		// absence proof here, so the scanning Insert stays.
		if v2, ev2 := h.L2.Insert(v.Line, true); ev2 {
			h.spillToL3(v2)
		}
	}
}

// spillToL3 pushes an L2 victim into the L3; dirty L3 victims become
// memory writebacks appended to h.wbs. The L3 is a strict victim
// cache — lines enter it only when leaving the L2 and are invalidated
// out of it when promoted back — so an L2 victim is never already L3
// resident and the scan-free insert applies.
func (h *Hierarchy) spillToL3(v Victim) {
	if v3, ev3 := h.L3.InsertAbsent(v.Line, v.Dirty); ev3 && v3.Dirty {
		h.WritebacksToMemory++
		h.wbs = append(h.wbs, v3.Line)
	}
}

// Contains reports whether any level holds the line (no state change).
//
//asd:hotpath
func (h *Hierarchy) Contains(line mem.Line) bool {
	return h.L1.Contains(line) || h.L2.Contains(line) || h.L3.Contains(line)
}

// Reset clears all levels and counters.
func (h *Hierarchy) Reset() {
	h.L1.Reset()
	h.L2.Reset()
	h.L3.Reset()
	h.DemandMisses = 0
	h.WritebacksToMemory = 0
}
