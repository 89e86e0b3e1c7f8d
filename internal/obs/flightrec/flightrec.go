// Package flightrec is the simulator's flight recorder: a set of
// pluggable anomaly detectors evaluated over fixed-width cycle windows.
// A live recorder (New) only detects: it reads the nine probe kinds its
// detectors, CAQ series and depth table count, costs a handful of
// counter updates per event, and records each trigger. A triage bundle
// — the last-N probe events, the recent window series, a decision-time
// stream-length histogram and the per-depth prefetch table (the farm
// adds the run's configuration and job identity to the bundles it
// serves) — is built afterwards by Replay, which runs the deterministic
// run again with a capturing recorder and stops it at the last wanted
// trigger, so a pathological run is diagnosed without ever keeping a
// full trace.
//
// Only the detect kinds open and roll windows, so a capturing recorder,
// which reads every kind, closes the windows and records the triggers
// that a live one does on the same run.
//
// The recorder is an obs.Sink; it reuses the bus's nil fast path, so a
// run without a recorder attached pays only the usual one-branch probe
// guard (~0% overhead). A Recorder belongs to one run and is not safe
// for concurrent use.
package flightrec

import (
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
	// RingSize is the number of probe events a replay's capture keeps,
	// rounded up to a power of two; default 4096.
	RingSize int
	// WindowCycles is the detector evaluation window width in CPU
	// cycles; default obs.DefaultSampleInterval.
	WindowCycles uint64
	// Detectors are the anomaly detectors to arm; nil means
	// DefaultDetectors(0). Each detector fires at most once per run.
	// A live recorder leaves the bundle-only window counters
	// (completions, installs, epoch rolls) at zero, so a detector must
	// not read them.
	Detectors []Detector
	// Label names the run in bundles and reports ("GemsFDTD/MS").
	Label string
}

// detectKinds are the kinds the detectors, the CAQ series and the depth
// table read: all a live recorder takes. Only they open and roll
// windows; any other kind counts in the window open when it arrives, so
// a capturing recorder's windows are a live one's.
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
// Triggers/CAQSeries/Depths after calling Finish.
type Recorder struct {
	opts Options

	cur     Window
	winEnd  uint64 // cur.Start + WindowCycles, cached for the hot path
	started bool
	queues  obs.QueueGauge
	// caq holds the closed windows' CAQ means, oldest first: at least
	// the newest obs.DefaultMaxWindows, which CAQSeries returns.
	caq    []float64
	depths obs.DepthStats

	armed    []Detector // fired detectors are nilled out
	triggers []Trigger

	// replay is a replay's capture state; nil on a live recorder.
	replay *capture
}

// capture is what a replay's recorder keeps beside the detectors so it
// can bundle the triggers it wants (see Replay).
type capture struct {
	ring []obs.Event
	head uint64 // total ring writes; ring[(head-1)&(len(ring)-1)] is newest

	recent []Window
	slh    *stats.Histogram
	// lastEpoch is the most recent completed SLH epoch index seen on the
	// bus (KindASDEpochRoll), stamped into bundles so a triage artifact
	// aligns with the provenance stream's epoch timeline.
	lastEpoch uint64

	want    []Trigger
	bundles []*Bundle // bundles[i] is want[i]'s, nil until captured
	left    int       // wanted triggers not yet bundled
	stop    func()    // ends the replayed run; called once, at the last capture
}

// New returns a live recorder with the given options, detectors armed:
// each detector that keeps state across windows is Reset, so a replay
// armed with a live run's detectors starts as that run did.
func New(opts Options) *Recorder {
	if opts.WindowCycles == 0 {
		opts.WindowCycles = obs.DefaultSampleInterval
	}
	if opts.Detectors == nil {
		opts.Detectors = DefaultDetectors(0)
	}
	for _, d := range opts.Detectors {
		if s, ok := d.(interface{ Reset() }); ok {
			s.Reset()
		}
	}
	return &Recorder{opts: opts, armed: append([]Detector(nil), opts.Detectors...)}
}

// Kinds implements the bus's routing: a live recorder reads only
// detectKinds; a capturing one reads every kind, since its ring keeps
// everything but L1 hits.
func (r *Recorder) Kinds() obs.KindSet {
	if r.replay == nil {
		return detectKinds
	}
	return obs.AllKinds
}

// Emit implements obs.Sink. The per-event cost is one switch and a few
// counter updates, plus, when capturing, one ring write for each
// forensically interesting kind; the highest-frequency gauge probes are
// aggregated but not retained.
//
//asd:hotpath
func (r *Recorder) Emit(e obs.Event) {
	// Only a detect kind opens or rolls a window.
	switch {
	case !detectKinds.Has(e.Kind):
		// Counted in the window open when it arrives (in none before
		// the first detect kind), however far its cycle runs ahead. A
		// live recorder handed one anyway ignores it.
		if r.replay == nil {
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
		r.replay.slh.Observe(int(e.V1))
	case obs.KindASDEpochRoll:
		r.cur.EpochRolls++
		r.replay.lastEpoch = uint64(e.V1)
	case obs.KindMCQueues, obs.KindMCEnqueue, obs.KindMCSchedule,
		obs.KindDRAMAccess, obs.KindDRAMRefresh, obs.KindCPUStall,
		obs.KindSchedPolicy:
		// KindMCQueues is consumed by the aggregate-only fast path
		// above (unreachable here); the rest carry no window counters
		// and flow straight to the forensic ring below.
	}
	c := r.replay
	if c == nil {
		return
	}
	// Masking with len-1 (a power of two) lets the compiler drop the
	// bounds check on this store.
	c.ring[int(c.head)&(len(c.ring)-1)] = e
	c.head++
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
	if c := r.replay; c != nil {
		c.recent = append(c.recent, w)
		if len(c.recent) > recentWindows {
			copy(c.recent, c.recent[len(c.recent)-recentWindows:])
			c.recent = c.recent[:recentWindows]
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
		if r.replay != nil {
			r.take(t)
		}
	}
}

// Finish closes the final (partial) window so detectors see it, and
// ends the recording: the recorder must receive no further events.
// Triggers, CAQSeries and Depths stay valid. Later calls do nothing.
func (r *Recorder) Finish() {
	if r.started {
		r.close()
		r.started = false
	}
}

// Triggers returns every detector firing, in order.
func (r *Recorder) Triggers() []Trigger { return r.triggers }

// Depths returns the run's per-depth prefetch table so far.
func (r *Recorder) Depths() *obs.DepthStats { return &r.depths }

// CAQSeries returns the CAQ mean occupancy of each closed window, oldest
// first: the last obs.DefaultMaxWindows windows the detectors checked,
// including the partial window Finish closes. The slice is the
// recorder's own and callers must not modify it.
func (r *Recorder) CAQSeries() []float64 {
	return r.caq[max(0, len(r.caq)-obs.DefaultMaxWindows):]
}
