// Package flightrec is the simulator's flight recorder: a set of
// pluggable anomaly detectors evaluated over fixed-width cycle windows,
// plus a fixed-size ring of probe-bus events. While a run is healthy
// the recorder costs a handful of counter updates per event and one
// ring write per retained event; when a detector trips it captures a
// self-contained triage bundle — the last-N events, the recent window
// series, a decision-time stream-length histogram and the per-depth
// prefetch table (the farm adds the run's configuration and job
// identity to the bundles it keeps) — so a pathological run can be
// diagnosed without re-running it under a full trace.
//
// A detect-only recorder (Options.DetectOnly) keeps the detectors, the
// CAQ series and the depth table and drops the capture: it reads only
// the nine kinds those count, takes no ring and captures no bundle.
// Since only those kinds open and roll windows, it closes the same
// windows and records the same triggers as a capturing recorder on the
// same run, so a deterministic run's bundle can be rebuilt by running
// it again with a capturing recorder.
//
// The recorder is an obs.Sink; it reuses the bus's nil fast path, so a
// run without a recorder attached pays only the usual one-branch probe
// guard (~0% overhead). A Recorder belongs to one run and is not safe
// for concurrent use.
package flightrec

import (
	"asdsim/internal/freelist"
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
	// DetectOnly records triggers without capturing bundles: the
	// recorder reads only the kinds its windows count, takes no ring,
	// and leaves the bundle-only window counters (completions,
	// installs, epoch rolls) at zero, so its detectors must not read
	// them. The zero value captures bundles inline.
	DetectOnly bool
}

// detectKinds are the kinds the detectors, the CAQ series and the depth
// table read: all a detect-only recorder takes. Only they open and roll
// windows; any other kind counts in the window open when it arrives, so
// a capturing recorder's windows are a detect-only one's.
const detectKinds = obs.KindSet(1)<<obs.KindMCQueues | 1<<obs.KindMCIssue |
	1<<obs.KindMCBankConflict | 1<<obs.KindMCPBHit | 1<<obs.KindMCPFNominate |
	1<<obs.KindMCPFDrop | 1<<obs.KindMCPFIssue | 1<<obs.KindMCPFLate |
	1<<obs.KindMCPFWasted

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
// Triggers/Bundles/CAQSeries after calling Finish. A capturing
// recorder's event ring comes from a process-wide free list and goes
// back there at Finish.
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
	// caq holds the closed windows' CAQ means, oldest first: at least
	// the newest obs.DefaultMaxWindows, which CAQSeries returns.
	caq []float64

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
	r := &Recorder{opts: opts, armed: append([]Detector(nil), opts.Detectors...)}
	if !opts.DetectOnly {
		r.ring, r.mask = takeRing(size), uint64(size-1)
		r.slh = stats.NewHistogram(slhBuckets)
	}
	return r
}

// Kinds implements the bus's routing: a capturing recorder reads every
// kind, since its ring keeps everything but L1 hits; a detect-only one
// reads only detectKinds.
func (r *Recorder) Kinds() obs.KindSet {
	if r.opts.DetectOnly {
		return detectKinds
	}
	return obs.AllKinds
}

// Emit implements obs.Sink. The per-event cost is one switch, a few
// counter updates, and, when capturing, one ring write for each
// forensically interesting kind; the highest-frequency gauge probes are
// aggregated but not retained, keeping a recorded run's overhead small.
//
//asd:hotpath
func (r *Recorder) Emit(e obs.Event) {
	// Only a detect kind opens or rolls a window.
	switch {
	case !detectKinds.Has(e.Kind):
		// Counted in the window open when it arrives (in none before
		// the first detect kind), however far its cycle runs ahead. A
		// detect-only recorder handed one anyway ignores it.
		if r.opts.DetectOnly {
			return
		}
	case !r.started:
		r.started = true
		idx := e.Cycle / r.opts.WindowCycles
		r.cur = Window{Index: idx, Start: idx * r.opts.WindowCycles}
		r.winEnd = r.cur.Start + r.opts.WindowCycles
	case e.Cycle >= r.winEnd:
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
	if r.opts.DetectOnly {
		return
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

// close finalizes the in-progress window into the CAQ series and, when
// capturing, the recent history, and runs the detectors.
func (r *Recorder) close() {
	w := r.cur
	w.CAQMean, w.CAQMax = w.queues.Mean(1), w.queues.Max[1]
	if !r.opts.DetectOnly {
		r.recent = append(r.recent, w)
		if len(r.recent) > recentWindows {
			copy(r.recent, r.recent[len(r.recent)-recentWindows:])
			r.recent = r.recent[:recentWindows]
		}
	}
	// Dropping the oldest windows in bulk, once the series holds twice
	// its bound, moves each window O(1) times.
	r.caq = append(r.caq, w.CAQMean)
	if len(r.caq) == 2*obs.DefaultMaxWindows {
		r.caq = r.caq[:copy(r.caq, r.caq[obs.DefaultMaxWindows:])]
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
		if !r.opts.DetectOnly && len(r.bundles) < r.opts.MaxBundles {
			r.bundles = append(r.bundles, r.capture(t))
		}
	}
}

// Finish closes the final (partial) window so detectors see it, and
// ends the recording: the event ring goes back to the free list for a
// later recorder, so the recorder must receive no further events.
// Triggers, Bundles (copies of the ring taken at capture), CAQSeries
// and Depths stay valid. Later calls do nothing.
func (r *Recorder) Finish() {
	if r.started {
		r.close()
		r.started = false
	}
	if r.ring != nil {
		rings.Put(len(r.ring), r.ring)
		r.ring = nil
	}
}

// rings holds the event rings of finished recorders by size (4096
// events, ~229 KB, at the default).
var rings freelist.List[int, []obs.Event]

// takeRing returns an idle ring of size events, or a new one. An idle
// ring keeps its previous recorder's events; a bundle's capture reads
// only the newest min(head, len) slots, which the new recorder has
// written.
func takeRing(size int) []obs.Event {
	if ring, ok := rings.Take(size); ok {
		return ring
	}
	return make([]obs.Event, size)
}

// Triggers returns every detector firing, in order.
func (r *Recorder) Triggers() []Trigger { return r.triggers }

// Bundles returns the captured triage bundles (at most MaxBundles; none
// when DetectOnly).
func (r *Recorder) Bundles() []*Bundle { return r.bundles }

// EventsSeen returns the number of events retained in (or aged out of)
// the ring over the run.
func (r *Recorder) EventsSeen() uint64 { return r.head }

// Depths returns the run's per-depth prefetch table so far.
func (r *Recorder) Depths() *obs.DepthStats { return &r.depths }

// CAQSeries returns the CAQ mean occupancy of each closed window, oldest
// first: the last obs.DefaultMaxWindows windows the detectors checked,
// including the partial window Finish closes. The slice is the
// recorder's own and callers must not modify it.
func (r *Recorder) CAQSeries() []float64 {
	return r.caq[max(0, len(r.caq)-obs.DefaultMaxWindows):]
}
