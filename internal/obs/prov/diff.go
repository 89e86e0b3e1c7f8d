package prov

import (
	"fmt"
	"io"

	"asdsim/internal/mem"
)

// The diff engine attributes an outcome delta between two runs to the
// decision-level divergences recorded in their provenance streams: the
// first SLH epoch whose tables differ (everything before it is
// decision-identical by construction), and per-stream-length deltas in
// what was nominated, issued and how it ended.

// maxDiffLen is the highest stream length bucketed individually; longer
// streams fold into the final overflow bucket.
const maxDiffLen = 16

// LengthTally counts one run's lineage stages attributed to one stream
// length k (the length at decision time).
type LengthTally struct {
	K         int    `json:"k"`
	Decisions uint64 `json:"decisions,omitempty"`
	Nominates uint64 `json:"nominates,omitempty"`
	Drops     uint64 `json:"drops,omitempty"`
	Issues    uint64 `json:"issues,omitempty"`
	Installs  uint64 `json:"installs,omitempty"`
	PBHits    uint64 `json:"pb_hits,omitempty"`
	Late      uint64 `json:"late,omitempty"`
	Wasted    uint64 `json:"wasted,omitempty"`
}

func (t *LengthTally) any() bool {
	return t.Decisions|t.Nominates|t.Drops|t.Issues|t.Installs|t.PBHits|t.Late|t.Wasted != 0
}

// LengthDelta pairs one stream length's tallies from both runs.
type LengthDelta struct {
	K int         `json:"k"`
	A LengthTally `json:"a"`
	B LengthTally `json:"b"`
}

// DiffReport is the result of diffing two provenance streams. The
// cycles/IPC fields are zero unless the caller fills them from the
// runs' results before rendering.
type DiffReport struct {
	TraceA, TraceB string
	// DroppedA/DroppedB count the records each stream's ring lost; the
	// tallies of a side that lost any undercount it.
	DroppedA, DroppedB uint64

	// FirstDiverge is the index (within the thread-0 snapshot sequence)
	// of the first epoch whose LHT tables differ between the runs; -1
	// when every comparable snapshot matches. DivergeA/DivergeB are the
	// diverging pair when FirstDiverge >= 0.
	FirstDiverge int
	DivergeA     *EpochSnap
	DivergeB     *EpochSnap
	// SnapsA/SnapsB count the thread-0 snapshots compared.
	SnapsA, SnapsB int

	Lengths []LengthDelta

	// Caller-supplied outcome context (optional).
	CyclesA, CyclesB uint64
	IPCA, IPCB       float64
}

// lengthBucket clamps a stream length into a tally index.
func lengthBucket(k int64) int {
	if k < 1 {
		return 1
	}
	if k > maxDiffLen {
		return maxDiffLen
	}
	return int(k)
}

// tallyLengths attributes s's records to stream lengths. Decisions and
// their same-cycle nominations/drops carry k directly; later lifecycle
// stages are attributed through the line the most recent nomination for
// it belonged to.
func tallyLengths(s *Stream) [maxDiffLen + 1]LengthTally {
	var out [maxDiffLen + 1]LengthTally
	lineK := make(map[mem.Line]int, 1024)
	for _, r := range s.Records {
		switch r.Op {
		case OpDecision:
			out[lengthBucket(r.V1)].Decisions++
		case OpNominate:
			k := lengthBucket(r.V3)
			out[k].Nominates++
			lineK[r.Line] = k
		case OpDrop:
			if r.V3 > 0 {
				out[lengthBucket(r.V3)].Drops++
			} else if k, ok := lineK[r.Line]; ok {
				out[k].Drops++
			} else {
				out[1].Drops++
			}
		case OpIssue:
			out[lookupK(lineK, r.Line)].Issues++
		case OpInstall:
			out[lookupK(lineK, r.Line)].Installs++
		case OpPBHit:
			out[lookupK(lineK, r.Line)].PBHits++
		case OpLate:
			out[lookupK(lineK, r.Line)].Late++
		case OpWasted:
			out[lookupK(lineK, r.Line)].Wasted++
		case OpEpochRoll, OpSlotBirth, OpSlotExtend, OpSlotEnd:
			// Not per-prefetch stages.
		}
	}
	for k := range out {
		out[k].K = k
	}
	return out
}

func lookupK(lineK map[mem.Line]int, l mem.Line) int {
	if k, ok := lineK[l]; ok {
		return k
	}
	return 1
}

// thread0Snaps filters a stream's snapshots to thread 0, the diff's
// comparison spine (all threads share the tables' epoch cadence; thread
// 0 is the stable representative).
func thread0Snaps(s *Stream) []*EpochSnap {
	var out []*EpochSnap
	for i := range s.Epochs {
		if s.Epochs[i].Thread == 0 {
			out = append(out, &s.Epochs[i])
		}
	}
	return out
}

func tablesEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func snapsEqual(a, b *EpochSnap) bool {
	return tablesEqual(a.UpCurr, b.UpCurr) && tablesEqual(a.UpNext, b.UpNext) &&
		tablesEqual(a.DownCurr, b.DownCurr) && tablesEqual(a.DownNext, b.DownNext)
}

// Diff compares two provenance streams: the first diverging SLH epoch
// and the per-stream-length lifecycle deltas.
func Diff(a, b *Stream) *DiffReport {
	rep := &DiffReport{TraceA: a.TraceID, TraceB: b.TraceID,
		DroppedA: a.Dropped, DroppedB: b.Dropped, FirstDiverge: -1}

	sa, sb := thread0Snaps(a), thread0Snaps(b)
	rep.SnapsA, rep.SnapsB = len(sa), len(sb)
	n := len(sa)
	if len(sb) < n {
		n = len(sb)
	}
	for i := 0; i < n; i++ {
		if !snapsEqual(sa[i], sb[i]) {
			rep.FirstDiverge = i
			rep.DivergeA, rep.DivergeB = sa[i], sb[i]
			break
		}
	}

	ta, tb := tallyLengths(a), tallyLengths(b)
	for k := 1; k <= maxDiffLen; k++ {
		if ta[k].any() || tb[k].any() {
			rep.Lengths = append(rep.Lengths, LengthDelta{K: k, A: ta[k], B: tb[k]})
		}
	}
	return rep
}

// delta renders a signed difference, omitting zero.
func delta(name string, a, b uint64) string {
	if a == b {
		return ""
	}
	return fmt.Sprintf(" %s%+d", name, int64(b)-int64(a))
}

// WriteReport renders the diff. The labels ("first diverging SLH
// epoch", "per-stream-length deltas") are stable — tests and CI grep
// them.
func (rep *DiffReport) WriteReport(w io.Writer) {
	fmt.Fprintf(w, "provenance diff: A=%s B=%s\n", rep.TraceA, rep.TraceB)
	if rep.CyclesA != 0 || rep.CyclesB != 0 {
		fmt.Fprintf(w, "cycles: A=%d B=%d (%+d)\n",
			rep.CyclesA, rep.CyclesB, int64(rep.CyclesB)-int64(rep.CyclesA))
	}
	if rep.IPCA != 0 || rep.IPCB != 0 {
		fmt.Fprintf(w, "ipc: A=%.4f B=%.4f (%+.4f)\n", rep.IPCA, rep.IPCB, rep.IPCB-rep.IPCA)
	}
	if rep.DroppedA != 0 || rep.DroppedB != 0 {
		fmt.Fprintf(w, "dropped records: A=%d B=%d (the oldest; the tallies below undercount)\n",
			rep.DroppedA, rep.DroppedB)
	}
	switch {
	case rep.FirstDiverge >= 0:
		a, b := rep.DivergeA, rep.DivergeB
		fmt.Fprintf(w, "first diverging SLH epoch: %d (A epoch %d @cycle %d, B epoch %d @cycle %d)\n",
			rep.FirstDiverge, a.Epoch, a.Cycle, b.Epoch, b.Cycle)
		if !tablesEqual(a.UpNext, b.UpNext) {
			fmt.Fprintf(w, "  up LHT   A=%s\n           B=%s\n", fmtTable(a.UpNext), fmtTable(b.UpNext))
		}
		if !tablesEqual(a.DownNext, b.DownNext) {
			fmt.Fprintf(w, "  down LHT A=%s\n           B=%s\n", fmtTable(a.DownNext), fmtTable(b.DownNext))
		}
	case rep.SnapsA != rep.SnapsB:
		fmt.Fprintf(w, "first diverging SLH epoch: none in the common prefix (A recorded %d snapshots, B %d)\n",
			rep.SnapsA, rep.SnapsB)
	default:
		fmt.Fprintf(w, "first diverging SLH epoch: none (all %d snapshots identical)\n", rep.SnapsA)
	}

	fmt.Fprintf(w, "per-stream-length deltas (B - A):\n")
	any := false
	for _, d := range rep.Lengths {
		line := delta("decisions", d.A.Decisions, d.B.Decisions) +
			delta("nominates", d.A.Nominates, d.B.Nominates) +
			delta("drops", d.A.Drops, d.B.Drops) +
			delta("issues", d.A.Issues, d.B.Issues) +
			delta("installs", d.A.Installs, d.B.Installs) +
			delta("pb-hits", d.A.PBHits, d.B.PBHits) +
			delta("late", d.A.Late, d.B.Late) +
			delta("wasted", d.A.Wasted, d.B.Wasted)
		if line == "" {
			continue
		}
		any = true
		label := fmt.Sprintf("k=%d", d.K)
		if d.K == maxDiffLen {
			label = fmt.Sprintf("k>=%d", maxDiffLen)
		}
		fmt.Fprintf(w, "  %s:%s\n", label, line)
	}
	if !any {
		fmt.Fprintf(w, "  (no per-length differences)\n")
	}
}
