package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"asdsim/internal/mem"
)

// TraceBuilder is a Sink that reconstructs command lifetimes from the
// MC probe stream and renders them as Chrome trace-event JSON — the
// format chrome://tracing and Perfetto (ui.perfetto.dev) open
// directly.
//
// Each demand Read becomes up to three "X" (complete) slices on its
// originating thread's track: "queued" (enqueue to reorder-queue
// exit), "caq" (CAQ residency) and "dram" (issue to data return).
// Reads satisfied without DRAM render as a single "pb-hit" or "merge"
// slice. Memory-side prefetches get their own track per depth. Queue
// occupancy becomes Perfetto counter tracks; SLH epoch rollovers and
// Adaptive Scheduling policy changes appear as instant events.
//
// Timestamps are microseconds of simulated time (ts = cycle / CPU GHz)
// with sub-cycle precision carried in the fractional part.
//
// Call StartProcess before each run publishes its first event; every
// later event lands in that process until the next call. One builder
// may thus accumulate several serial runs (e.g. asdsim's mode sweep)
// into one trace for side-by-side viewing. A builder must not be
// shared by concurrently running simulations.
type TraceBuilder struct {
	events []traceEvent
	pid    int
	open   map[uint64]*cmdLife

	// lastQueues dedups counter samples: a counter event is written
	// only when a depth changes.
	lastQueues [3]int64
	haveQueues bool
}

// cmdLife is one demand Read's reconstructed lifetime.
type cmdLife struct {
	thread    int32
	line      mem.Line
	enqueue   uint64
	schedule  uint64
	issue     uint64
	scheduled bool
	issued    bool
}

// traceEvent is one Chrome trace-event object. Fields follow the
// Trace Event Format spec; optional ones are omitted when zero.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// NewTraceBuilder returns an empty builder; call StartProcess before
// emitting events into it.
func NewTraceBuilder() *TraceBuilder {
	return &TraceBuilder{pid: -1}
}

// cyclesPerMicro converts CPU cycles to trace microseconds.
const cyclesPerMicro = float64(mem.CPUHz) / 1e6

func ts(cycle uint64) float64 { return float64(cycle) / cyclesPerMicro }

// Track ids: threads occupy 0..63, prefetch tracks 64+depth, counters
// and instants sit on dedicated tracks.
const (
	tidPrefetchBase = 64
	tidMeta         = 99
)

// StartProcess begins a new process group (one simulation run) named
// name. Subsequent events land in it until the next call.
func (t *TraceBuilder) StartProcess(name string) {
	t.pid++
	t.open = make(map[uint64]*cmdLife)
	t.haveQueues = false
	t.events = append(t.events, traceEvent{
		Name: "process_name", Ph: "M", Pid: t.pid,
		Args: map[string]any{"name": name},
	})
}

// Kinds implements the bus's routing: the TraceBuilder reads the eight
// kinds its Emit renders.
func (t *TraceBuilder) Kinds() KindSet {
	return KindsOf(KindMCEnqueue, KindMCSchedule, KindMCIssue, KindMCComplete,
		KindMCPFIssue, KindMCQueues, KindASDEpochRoll, KindSchedPolicy)
}

// Emit implements Sink.
//
//asd:hotpath
func (t *TraceBuilder) Emit(e Event) {
	if t.pid < 0 {
		// No StartProcess yet: drop rather than corrupt the trace.
		return
	}
	//asd:exhaustive
	switch e.Kind {
	case KindMCEnqueue:
		if e.V1 == 0 { // lifetimes are tracked for Reads only
			t.open[e.ID] = &cmdLife{thread: e.Thread, line: e.Line, enqueue: e.Cycle}
		}
	case KindMCSchedule:
		if c := t.open[e.ID]; c != nil {
			c.schedule = e.Cycle
			c.scheduled = true
		}
	case KindMCIssue:
		if c := t.open[e.ID]; c != nil {
			c.issue = e.Cycle
			c.issued = true
		}
	case KindMCComplete:
		c := t.open[e.ID]
		if c == nil {
			return
		}
		delete(t.open, e.ID)
		args := map[string]any{"line": uint64(c.line), "id": e.ID}
		switch {
		case c.issued:
			t.slice("queued", "mc", c.enqueue, c.schedule, int(c.thread), args)
			t.slice("caq", "mc", c.schedule, c.issue, int(c.thread), args)
			t.slice("dram", "dram", c.issue, e.Cycle, int(c.thread), args)
		case c.scheduled:
			// Satisfied at the CAQ head (late PB check).
			t.slice("queued", "mc", c.enqueue, c.schedule, int(c.thread), args)
			t.slice("pb-hit", "pb", c.schedule, e.Cycle, int(c.thread), args)
		default:
			// Entry PB hit or merge onto an in-flight prefetch.
			name := "pb-hit"
			if e.V2 == 1 {
				name = "merge"
			}
			t.slice(name, "pb", c.enqueue, e.Cycle, int(c.thread), args)
		}
	case KindMCPFIssue:
		// Prefetch DRAM occupancy: one slice per issued prefetch on the
		// depth's track; V2 carries the completion cycle.
		t.slice("prefetch", "pf", e.Cycle, uint64(e.V2), tidPrefetchBase+int(e.V1),
			map[string]any{"line": uint64(e.Line), "depth": e.V1})
	case KindMCQueues:
		q := [3]int64{e.V1, e.V2, e.V3}
		if t.haveQueues && q == t.lastQueues {
			return
		}
		t.lastQueues, t.haveQueues = q, true
		t.events = append(t.events, traceEvent{
			Name: "mc-queues", Cat: "mc", Ph: "C", Ts: ts(e.Cycle), Pid: t.pid, Tid: 0,
			Args: map[string]any{"reorder": e.V1, "caq": e.V2, "lpq": e.V3},
		})
	case KindASDEpochRoll:
		t.instant(fmt.Sprintf("slh-epoch-%d", e.V1), "asd", e.Cycle)
	case KindSchedPolicy:
		if e.V1 != e.V3 {
			t.instant(fmt.Sprintf("policy->%d", e.V1), "sched", e.Cycle)
		}
	case KindMCPBHit, KindMCBankConflict, KindMCPFNominate, KindMCPFDrop,
		KindMCPFLate, KindMCPFInstall, KindMCPFWasted, KindDRAMAccess,
		KindDRAMRefresh, KindCacheAccess, KindCPUStall, KindASDPrefetchDecision:
		// Too fine-grained for a per-command timeline, and outside
		// Kinds: PB hits and merges already render from the MCComplete
		// lifetime, per-access DRAM/cache/stall detail belongs to the
		// sampler, and nominate/drop/install/wasted bookkeeping belongs
		// to DepthStats.
	}
}

// slice appends one complete ("X") event; zero-length slices are given
// a minimal duration so Perfetto keeps them selectable.
func (t *TraceBuilder) slice(name, cat string, from, to uint64, tid int, args map[string]any) {
	if to < from {
		to = from
	}
	d := ts(to) - ts(from)
	if d <= 0 {
		d = 0.001
	}
	t.events = append(t.events, traceEvent{
		Name: name, Cat: cat, Ph: "X", Ts: ts(from), Dur: &d, Pid: t.pid, Tid: tid, Args: args,
	})
}

// instant appends one instant ("i") event on the meta track.
func (t *TraceBuilder) instant(name, cat string, cycle uint64) {
	t.events = append(t.events, traceEvent{
		Name: name, Cat: cat, Ph: "i", Ts: ts(cycle), Pid: t.pid, Tid: tidMeta, S: "t",
	})
}

// Len returns the number of trace events accumulated so far.
func (t *TraceBuilder) Len() int { return len(t.events) }

// NameThread attaches a thread_name metadata record to track tid of the
// current process, so viewers label the track instead of showing a bare
// number.
func (t *TraceBuilder) NameThread(tid int, name string) {
	if t.pid < 0 {
		return
	}
	t.events = append(t.events, traceEvent{
		Name: "thread_name", Ph: "M", Pid: t.pid, Tid: tid,
		Args: map[string]any{"name": name},
	})
}

// AddSlice appends one complete ("X") slice with explicit microsecond
// timestamps, for callers — such as obs/span — whose events live in
// wall- or injected-clock time rather than the simulated cycle domain.
// Zero-length slices get a minimal duration so they stay selectable.
func (t *TraceBuilder) AddSlice(name, cat string, tsMicro, durMicro float64, tid int, args map[string]any) {
	if t.pid < 0 {
		return
	}
	if durMicro <= 0 {
		durMicro = 0.001
	}
	d := durMicro
	t.events = append(t.events, traceEvent{
		Name: name, Cat: cat, Ph: "X", Ts: tsMicro, Dur: &d, Pid: t.pid, Tid: tid, Args: args,
	})
}

// AddInstant appends one instant ("i") event at an explicit microsecond
// timestamp on track tid.
func (t *TraceBuilder) AddInstant(name, cat string, tsMicro float64, tid int, args map[string]any) {
	if t.pid < 0 {
		return
	}
	t.events = append(t.events, traceEvent{
		Name: name, Cat: cat, Ph: "i", Ts: tsMicro, Pid: t.pid, Tid: tid, S: "t", Args: args,
	})
}

// Merge appends every event from other into t, renumbering other's
// process ids to follow t's so the two never collide. other should be
// discarded afterwards.
func (t *TraceBuilder) Merge(other *TraceBuilder) {
	if other == nil || len(other.events) == 0 {
		return
	}
	base := t.pid + 1
	maxPid := t.pid
	for _, e := range other.events {
		e.Pid += base
		if e.Pid > maxPid {
			maxPid = e.Pid
		}
		t.events = append(t.events, e)
	}
	t.pid = maxPid
}

// WriteJSON writes the accumulated trace as a JSON object in the Chrome
// trace-event format, events sorted by timestamp as the viewers
// prefer. The builder remains usable (more runs may be appended).
func (t *TraceBuilder) WriteJSON(w io.Writer) error {
	evs := make([]traceEvent, len(t.events))
	copy(evs, t.events)
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Pid != evs[j].Pid {
			return evs[i].Pid < evs[j].Pid
		}
		// Metadata first within a process, then by time.
		if m := evs[i].Ph == "M"; m != (evs[j].Ph == "M") {
			return m
		}
		return evs[i].Ts < evs[j].Ts
	})
	doc := struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{evs, "ns"}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}
