package flightrec

import (
	"encoding/json"
	"fmt"
	"io"

	"asdsim/internal/obs"
)

// EventRecord is one ring event in wire form, with the kind spelled
// out so bundles read without the source handy.
type EventRecord struct {
	Kind   string `json:"kind"`
	Cycle  uint64 `json:"cycle"`
	Thread int32  `json:"thread,omitempty"`
	ID     uint64 `json:"id,omitempty"`
	Line   uint64 `json:"line,omitempty"`
	V1     int64  `json:"v1,omitempty"`
	V2     int64  `json:"v2,omitempty"`
	V3     int64  `json:"v3,omitempty"`
}

// DepthRow is one prefetch depth's efficiency counts.
type DepthRow struct {
	Depth     string `json:"depth"`
	Nominated uint64 `json:"nominated"`
	Issued    uint64 `json:"issued"`
	Timely    uint64 `json:"timely"`
	Late      uint64 `json:"late"`
	Wasted    uint64 `json:"wasted"`
	Dropped   uint64 `json:"dropped"`
}

// Bundle is a self-contained triage artifact, the state of a run at its
// trigger as a replay captures it (see Replay): everything needed to
// reason about the anomaly without tracing the run.
type Bundle struct {
	Label string `json:"label"`
	// Key and TraceID carry the farm job identity and the distributed
	// trace this run belonged to. The farm stamps them, and Config, on
	// the bundles it serves; the recorder leaves all three empty.
	Key     string `json:"key,omitempty"`
	TraceID string `json:"trace_id,omitempty"`
	// Epoch is the SLH epoch index (completed rolls) at capture time,
	// aligning the bundle with the run's provenance epoch timeline; 0
	// when no epoch had rolled (or no memory-side engine ran).
	Epoch   uint64  `json:"epoch,omitempty"`
	Trigger Trigger `json:"trigger"`
	// Windows is the recent closed-window history, oldest first; the
	// last entry is the window that tripped the detector.
	Windows []Window `json:"windows"`
	// SLH is the decision-time stream-length histogram (bucket i holds
	// streams of length i+1; the last bucket is open-ended), the
	// recorder's in-flight approximation of the paper's SLH.
	SLH []uint64 `json:"slh_buckets"`
	// Depths is the per-depth prefetch efficiency table at capture.
	Depths []DepthRow `json:"depth_table"`
	// Events is the ring's retained probe events, oldest first.
	Events []EventRecord `json:"events"`
	// EventsSeen counts all ring writes before capture; when it
	// exceeds len(Events) the ring has wrapped.
	EventsSeen uint64 `json:"events_seen"`
	// Config is the run's serialized configuration, when stamped.
	Config json.RawMessage `json:"config,omitempty"`
}

// snapshot copies a capturing recorder's state into a bundle for
// trigger t.
func (r *Recorder) snapshot(t Trigger) *Bundle {
	c := r.replay
	// The retained events are the newest min(head, len) ring slots,
	// read oldest first.
	n := min(c.head, uint64(len(c.ring)))
	recs := make([]EventRecord, 0, n)
	for i := c.head - n; i < c.head; i++ {
		e := &c.ring[int(i)&(len(c.ring)-1)]
		recs = append(recs, EventRecord{
			Kind: e.Kind.String(), Cycle: e.Cycle, Thread: e.Thread,
			ID: e.ID, Line: uint64(e.Line), V1: e.V1, V2: e.V2, V3: e.V3,
		})
	}
	slh := make([]uint64, slhBuckets)
	for v := 1; v <= slhBuckets; v++ {
		slh[v-1] = c.slh.Count(v)
	}
	return &Bundle{
		Label:      r.opts.Label,
		Epoch:      c.lastEpoch,
		Trigger:    t,
		Windows:    append([]Window(nil), c.recent...),
		SLH:        slh,
		Depths:     depthRows(&r.depths),
		Events:     recs,
		EventsSeen: c.head,
	}
}

// depthRows flattens a DepthStats into the bundle's table form,
// covering every depth with any activity.
func depthRows(d *obs.DepthStats) []DepthRow {
	rows := make([]DepthRow, 0, d.MaxDepthSeen())
	for i := 1; i <= d.MaxDepthSeen(); i++ {
		label := fmt.Sprint(i)
		if i == obs.MaxTrackedDepth {
			label += "+"
		}
		rows = append(rows, DepthRow{
			Depth: label, Nominated: d.Nominated[i], Issued: d.Issued[i],
			Timely: d.Timely[i], Late: d.Late[i], Wasted: d.Wasted[i],
			Dropped: d.Dropped[i],
		})
	}
	return rows
}

// WriteJSON writes the bundle as indented JSON.
func (b *Bundle) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// reportTailEvents bounds the per-event lines in the text report; the
// full ring lives in the JSON bundle.
const reportTailEvents = 24

// WriteReport renders the human-readable triage report: the trigger,
// the recent window table, the SLH, the depth table, and a tail of the
// event ring.
func (b *Bundle) WriteReport(w io.Writer) error {
	fmt.Fprintf(w, "flight recorder: %s — %s at window %d (cycle %d)\n",
		b.Label, b.Trigger.Detector, b.Trigger.Window, b.Trigger.Cycle)
	fmt.Fprintf(w, "  %s\n", b.Trigger.Detail)
	if b.Key != "" || b.TraceID != "" {
		fmt.Fprintf(w, "  job=%s trace=%s\n", b.Key, b.TraceID)
	}
	if b.Epoch > 0 {
		fmt.Fprintf(w, "  slh epoch at capture: %d\n", b.Epoch)
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "recent windows (oldest first; * marks the trigger window):\n")
	fmt.Fprintf(w, "  %-8s %8s %7s %7s %7s %8s %7s %7s %6s %7s %7s %6s\n",
		"window", "caqMean", "caqMax", "issues", "compl", "bankConf",
		"pfIss", "timely", "late", "install", "wasted", "epoch")
	for _, win := range b.Windows {
		mark := " "
		if win.Index == b.Trigger.Window {
			mark = "*"
		}
		fmt.Fprintf(w, " %s%-8d %8.3f %7d %7d %7d %8d %7d %7d %6d %7d %7d %6d\n",
			mark, win.Index, win.CAQMean, win.CAQMax, win.Issues, win.Completions,
			win.BankConflicts, win.PFIssued, win.PFTimely, win.PFLate,
			win.PFInstalled, win.PFWasted, win.EpochRolls)
	}

	var slhTotal uint64
	for _, n := range b.SLH {
		slhTotal += n
	}
	fmt.Fprintf(w, "\nstream-length histogram at capture (%d decisions):\n  ", slhTotal)
	for i, n := range b.SLH {
		if n == 0 {
			continue
		}
		label := fmt.Sprint(i + 1)
		if i == len(b.SLH)-1 {
			label += "+"
		}
		fmt.Fprintf(w, "%s:%d ", label, n)
	}
	fmt.Fprintln(w)

	if len(b.Depths) > 0 {
		fmt.Fprintf(w, "\nper-depth prefetch table:\n")
		fmt.Fprintf(w, "  %-6s %10s %10s %10s %10s %10s %10s\n",
			"depth", "nominated", "issued", "timely", "late", "wasted", "dropped")
		for _, row := range b.Depths {
			fmt.Fprintf(w, "  %-6s %10d %10d %10d %10d %10d %10d\n",
				row.Depth, row.Nominated, row.Issued, row.Timely, row.Late,
				row.Wasted, row.Dropped)
		}
	}

	counts := map[string]int{}
	for _, e := range b.Events {
		counts[e.Kind]++
	}
	fmt.Fprintf(w, "\nevent ring: %d retained of %d seen; by kind:", len(b.Events), b.EventsSeen)
	for k := obs.Kind(0); int(k) < obs.NumKinds; k++ {
		if n := counts[k.String()]; n > 0 {
			fmt.Fprintf(w, " %s=%d", k, n)
		}
	}
	fmt.Fprintln(w)

	tail := b.Events
	if len(tail) > reportTailEvents {
		tail = tail[len(tail)-reportTailEvents:]
	}
	fmt.Fprintf(w, "last %d events (newest last):\n", len(tail))
	for _, e := range tail {
		fmt.Fprintf(w, "  cycle=%-10d %-16s thread=%d line=%#x v1=%d v2=%d v3=%d\n",
			e.Cycle, e.Kind, e.Thread, e.Line, e.V1, e.V2, e.V3)
	}
	if len(b.Config) > 0 {
		fmt.Fprintf(w, "\nrun config: embedded in the JSON bundle (%d bytes)\n", len(b.Config))
	}
	return nil
}
