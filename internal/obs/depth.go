package obs

import (
	"fmt"
	"io"
)

// MaxTrackedDepth bounds the per-depth breakdown; deeper prefetches
// (multi-line runs past this) aggregate into the last bucket.
const MaxTrackedDepth = 8

// DepthStats is a Sink accumulating per-depth prefetch efficiency over
// a run: for each prefetch depth d (1 = the line adjacent to the
// trigger), how many prefetches were nominated, issued to DRAM, hit in
// the Prefetch Buffer (timely), merged in flight (late) and discarded
// unused. The paper evaluates degree 1 only; this sink is the
// instrument for judging the MaxDegree>1 extension.
type DepthStats struct {
	Nominated [MaxTrackedDepth + 1]uint64
	Issued    [MaxTrackedDepth + 1]uint64
	Timely    [MaxTrackedDepth + 1]uint64
	Late      [MaxTrackedDepth + 1]uint64
	Wasted    [MaxTrackedDepth + 1]uint64
	Dropped   [MaxTrackedDepth + 1]uint64
}

func depthBucket(v int64) int {
	if v < 0 {
		return 0
	}
	if v > MaxTrackedDepth {
		return MaxTrackedDepth
	}
	return int(v)
}

// Kinds implements the bus's routing: DepthStats reads the six
// prefetch-outcome kinds its Emit counts.
func (d *DepthStats) Kinds() KindSet {
	return KindsOf(KindMCPFNominate, KindMCPFIssue, KindMCPBHit, KindMCPFLate, KindMCPFWasted, KindMCPFDrop)
}

// Emit implements Sink.
//
//asd:hotpath
func (d *DepthStats) Emit(e Event) {
	switch e.Kind {
	case KindMCPFNominate:
		d.Nominated[depthBucket(e.V1)]++
	case KindMCPFIssue:
		d.Issued[depthBucket(e.V1)]++
	case KindMCPBHit:
		d.Timely[depthBucket(e.V2)]++
	case KindMCPFLate:
		d.Late[depthBucket(e.V1)]++
	case KindMCPFWasted:
		d.Wasted[depthBucket(e.V1)]++
	case KindMCPFDrop:
		d.Dropped[depthBucket(e.V1)]++
	}
}

// MaxDepthSeen returns the deepest bucket with any activity (0 when
// the run issued no prefetches).
func (d *DepthStats) MaxDepthSeen() int {
	deepest := 0
	for i := 1; i <= MaxTrackedDepth; i++ {
		if d.Nominated[i]+d.Issued[i]+d.Timely[i]+d.Late[i]+d.Wasted[i]+d.Dropped[i] > 0 {
			deepest = i
		}
	}
	return deepest
}

// Fprint renders the per-depth table, one row per active depth.
func (d *DepthStats) Fprint(w io.Writer) {
	deepest := d.MaxDepthSeen()
	if deepest == 0 {
		fmt.Fprintln(w, "no memory-side prefetch activity")
		return
	}
	fmt.Fprintf(w, "%-6s %10s %10s %10s %10s %10s %10s\n",
		"depth", "nominated", "issued", "timely", "late", "wasted", "dropped")
	for i := 1; i <= deepest; i++ {
		label := fmt.Sprint(i)
		if i == MaxTrackedDepth {
			label += "+"
		}
		fmt.Fprintf(w, "%-6s %10d %10d %10d %10d %10d %10d\n",
			label, d.Nominated[i], d.Issued[i], d.Timely[i], d.Late[i], d.Wasted[i], d.Dropped[i])
	}
}
