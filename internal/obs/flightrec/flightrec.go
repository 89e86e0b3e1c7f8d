// Package flightrec is the simulator's always-on flight recorder: a
// fixed-size ring of probe-bus events plus a set of pluggable anomaly
// detectors evaluated over fixed-width cycle windows. While a run is
// healthy the recorder costs one ring write per retained event and a
// handful of counter updates; when a detector trips it captures a
// self-contained triage bundle — the last-N events, the recent window
// series, a decision-time stream-length histogram and the per-depth
// prefetch table (the farm adds the run's configuration and job
// identity to the bundles it keeps) — so a pathological run can be
// diagnosed without re-running it under a full trace.
//
// The recorder is an obs.Sink; it reuses the bus's nil fast path, so a
// run without a recorder attached pays only the usual one-branch probe
// guard (~0% overhead). A Recorder belongs to one run and is not safe
// for concurrent use.
package flightrec

import (
	"sync"

	"asdsim/internal/obs"
	"asdsim/internal/stats"
)

// slhBuckets sizes the decision-time stream-length histogram (matches
// the paper's n_s = 16 SLH width).
const slhBuckets = 16

// recentWindows bounds the closed-window history kept for bundles.
const recentWindows = 64

// Options configures a Recorder. The zero value is usable: every field
// defaults sensibly.
type Options struct {
	// RingSize is the number of probe events retained, rounded up to a
	// power of two; default 4096.
	RingSize int
	// WindowCycles is the detector evaluation window width in CPU
	// cycles; default obs.DefaultSampleInterval.
	WindowCycles uint64
	// MaxBundles bounds captured triage bundles; default 4.
	MaxBundles int
	// Detectors are the anomaly detectors to arm; nil means
	// DefaultDetectors(0). Each detector fires at most once per run.
	Detectors []Detector
	// Label names the run in bundles and reports ("GemsFDTD/MS").
	Label string
}

// Window is one closed detector-evaluation window's aggregate of the
// event stream.
type Window struct {
	Index uint64 `json:"window"`
	Start uint64 `json:"start_cycle"`

	// Queue occupancy from the controller's gauge probe: readings
	// taken in the window, and the CAQ's time-weighted mean and max
	// (see obs.QueueGauge).
	QueueObs uint64  `json:"queue_obs"`
	CAQMean  float64 `json:"caq_mean"`
	CAQMax   int64   `json:"caq_max"`

	Issues        uint64 `json:"issues"`
	Completions   uint64 `json:"completions"`
	BankConflicts uint64 `json:"bank_conflicts"`

	PFIssued    uint64 `json:"pf_issued"`
	PFTimely    uint64 `json:"pf_timely"`
	PFLate      uint64 `json:"pf_late"`
	PFInstalled uint64 `json:"pf_installed"`
	PFWasted    uint64 `json:"pf_wasted"`

	EpochRolls uint64 `json:"epoch_rolls"`

	queues obs.QueueLevels
}

// Trigger records one detector firing.
type Trigger struct {
	Detector string `json:"detector"`
	Detail   string `json:"detail"`
	// Window and Cycle locate the offending window (Cycle is its start).
	Window uint64 `json:"window"`
	Cycle  uint64 `json:"cycle"`
}

// Recorder implements obs.Sink. Attach it to a run's bus, then read
// Triggers/Bundles after calling Finish.
type Recorder struct {
	opts Options

	ring []obs.Event
	mask uint64
	head uint64 // total ring writes; ring[(head-1)&mask] is newest

	cur     Window
	winEnd  uint64 // cur.Start + WindowCycles, cached for the hot path
	started bool
	recent  []Window
	queues  obs.QueueGauge

	slh    *stats.Histogram
	depths obs.DepthStats

	// lastEpoch is the most recent completed SLH epoch index seen on the
	// bus (KindASDEpochRoll), stamped into bundles so a triage artifact
	// aligns with the provenance stream's epoch timeline.
	lastEpoch uint64

	armed    []Detector // fired detectors are nilled out
	triggers []Trigger
	bundles  []*Bundle
}

// New returns a recorder with the given options, detectors armed.
func New(opts Options) *Recorder {
	if opts.RingSize <= 0 {
		opts.RingSize = 4096
	}
	size := 1
	for size < opts.RingSize {
		size <<= 1
	}
	if opts.WindowCycles == 0 {
		opts.WindowCycles = obs.DefaultSampleInterval
	}
	if opts.MaxBundles <= 0 {
		opts.MaxBundles = 4
	}
	if opts.Detectors == nil {
		opts.Detectors = DefaultDetectors(0)
	}
	return &Recorder{
		opts:  opts,
		ring:  takeRing(size),
		mask:  uint64(size - 1),
		slh:   stats.NewHistogram(slhBuckets),
		armed: append([]Detector(nil), opts.Detectors...),
	}
}

// Emit implements obs.Sink. The per-event cost is one switch, a few
// counter updates, and (for forensically interesting kinds) one ring
// write; the highest-frequency gauge probes are aggregated but not
// retained, keeping a recorded run's overhead small.
//
//asd:hotpath
func (r *Recorder) Emit(e obs.Event) {
	if !r.started {
		r.started = true
		idx := e.Cycle / r.opts.WindowCycles
		r.cur = Window{Index: idx, Start: idx * r.opts.WindowCycles}
		r.winEnd = r.cur.Start + r.opts.WindowCycles
	} else if e.Cycle >= r.winEnd {
		r.roll(e.Cycle)
	}
	// The queue gauge is a frequent event: fast-path it ahead of the
	// full dispatch. Aggregate only, never ring-stored.
	if e.Kind == obs.KindMCQueues {
		r.cur.QueueObs++
		r.queues.Read(&r.cur.queues, r.cur.Start, e)
		return
	}
	//asd:exhaustive
	switch e.Kind {
	case obs.KindCacheAccess:
		// L1 hits are the bulk of all demand traffic and carry no
		// MC-level forensic value; keep only the misses.
		if e.V1 == 1 {
			return
		}
	case obs.KindMCIssue:
		r.cur.Issues++
	case obs.KindMCComplete:
		r.cur.Completions++
	case obs.KindMCBankConflict:
		r.cur.BankConflicts++
	case obs.KindMCPBHit:
		r.cur.PFTimely++
		r.depths.Emit(e)
	case obs.KindMCPFIssue:
		r.cur.PFIssued++
		r.depths.Emit(e)
	case obs.KindMCPFLate:
		r.cur.PFLate++
		r.depths.Emit(e)
	case obs.KindMCPFInstall:
		r.cur.PFInstalled++
	case obs.KindMCPFWasted:
		r.cur.PFWasted++
		r.depths.Emit(e)
	case obs.KindMCPFNominate, obs.KindMCPFDrop:
		r.depths.Emit(e)
	case obs.KindASDPrefetchDecision:
		r.slh.Observe(int(e.V1))
	case obs.KindASDEpochRoll:
		r.cur.EpochRolls++
		r.lastEpoch = uint64(e.V1)
	case obs.KindMCQueues, obs.KindMCEnqueue, obs.KindMCSchedule,
		obs.KindDRAMAccess, obs.KindDRAMRefresh, obs.KindCPUStall,
		obs.KindSchedPolicy:
		// KindMCQueues is consumed by the aggregate-only fast path
		// above (unreachable here); the rest carry no window counters
		// and flow straight to the forensic ring below.
	}
	// Masking with len-1 (a power of two) lets the compiler drop the
	// bounds check on this store.
	r.ring[int(r.head)&(len(r.ring)-1)] = e
	r.head++
}

// roll closes the current window, evaluates the armed detectors on it,
// and opens the window containing cycle (empty windows are skipped).
// The held queue reading is charged to the window's end first: a queue
// reading that trails the close (the MC clock may lag the CPU's) then
// holds from the next window on.
func (r *Recorder) roll(cycle uint64) {
	r.queues.Charge(&r.cur.queues, r.cur.Start, r.winEnd)
	r.close()
	idx := cycle / r.opts.WindowCycles
	r.cur = Window{Index: idx, Start: idx * r.opts.WindowCycles}
	r.winEnd = r.cur.Start + r.opts.WindowCycles
}

// close finalizes the in-progress window into the recent history and
// runs the detectors.
func (r *Recorder) close() {
	w := r.cur
	w.CAQMean, w.CAQMax = w.queues.Mean(1), w.queues.Max[1]
	r.recent = append(r.recent, w)
	if len(r.recent) > recentWindows {
		copy(r.recent, r.recent[len(r.recent)-recentWindows:])
		r.recent = r.recent[:recentWindows]
	}
	for i, d := range r.armed {
		if d == nil {
			continue
		}
		detail, fired := d.Check(&w)
		if !fired {
			continue
		}
		r.armed[i] = nil
		t := Trigger{Detector: d.Name(), Detail: detail, Window: w.Index, Cycle: w.Start}
		r.triggers = append(r.triggers, t)
		if len(r.bundles) < r.opts.MaxBundles {
			r.bundles = append(r.bundles, r.capture(t))
		}
	}
}

// Finish closes the final (partial) window so detectors see it. Call
// once when the run ends; further Emits reopen recording.
func (r *Recorder) Finish() {
	if r.started {
		r.close()
		r.started = false
	}
}

// ringPool recycles released event rings (4096 events, ~229 KB, at
// the default size) across recorders.
var ringPool sync.Pool

// takeRing returns a pooled ring of size events, or a new one. A pooled
// ring keeps its previous recorder's events; the snapshot reads only
// the newest min(head, len) slots, which the new recorder has written.
func takeRing(size int) []obs.Event {
	if p, ok := ringPool.Get().(*[]obs.Event); ok && len(*p) == size {
		return *p
	}
	return make([]obs.Event, size)
}

// Release returns the recorder's event ring to a package pool for a
// later recorder to reuse. Call it once the run is over and its
// bundles have been read: bundles are copies and stay valid, but the
// recorder must receive no further events.
func (r *Recorder) Release() {
	if r.ring == nil {
		return
	}
	ring := r.ring
	r.ring = nil
	ringPool.Put(&ring)
}

// Triggers returns every detector firing, in order.
func (r *Recorder) Triggers() []Trigger { return r.triggers }

// Bundles returns the captured triage bundles (at most MaxBundles).
func (r *Recorder) Bundles() []*Bundle { return r.bundles }

// EventsSeen returns the number of events retained in (or aged out of)
// the ring over the run.
func (r *Recorder) EventsSeen() uint64 { return r.head }

// Depths returns the run's per-depth prefetch table so far.
func (r *Recorder) Depths() *obs.DepthStats { return &r.depths }

// ringSnapshot returns the retained events, oldest first.
func (r *Recorder) ringSnapshot() []obs.Event {
	n := r.head
	if n > uint64(len(r.ring)) {
		n = uint64(len(r.ring))
	}
	out := make([]obs.Event, 0, n)
	for i := r.head - n; i < r.head; i++ {
		out = append(out, r.ring[i&r.mask])
	}
	return out
}
