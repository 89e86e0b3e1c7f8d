package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Sample is one fixed-width time window's aggregate of the event
// stream: queue-occupancy statistics, prefetch and DRAM activity
// counts, cache level mix and CPU stall time. Queue depths aggregate as
// time-weighted mean and max over the window (see QueueGauge), the
// policy as its last value; everything else is a count or a sum.
type Sample struct {
	// Window is the sample's index: it covers CPU cycles
	// [Window*Interval, (Window+1)*Interval).
	Window uint64 `json:"window"`
	Start  uint64 `json:"start_cycle"`

	// Queue occupancy (from KindMCQueues gauges): QueueObs readings
	// taken in the window, which held for QueueCycles cycles of it.
	QueueObs    uint64  `json:"queue_obs"`
	QueueCycles uint64  `json:"queue_cycles"`
	CAQMean     float64 `json:"caq_mean"`
	CAQMax      int64   `json:"caq_max"`
	ReorderMean float64 `json:"reorder_mean"`
	ReorderMax  int64   `json:"reorder_max"`
	LPQMean     float64 `json:"lpq_mean"`
	LPQMax      int64   `json:"lpq_max"`

	// Demand traffic.
	Reads       uint64  `json:"reads"`
	Writes      uint64  `json:"writes"`
	Completions uint64  `json:"completions"`
	MeanReadLat float64 `json:"mean_read_lat"`
	PBHits      uint64  `json:"pb_hits"`
	BankConf    uint64  `json:"bank_conflicts"`

	// Memory-side prefetcher activity.
	PFNominated uint64 `json:"pf_nominated"`
	PFDropped   uint64 `json:"pf_dropped"`
	PFIssued    uint64 `json:"pf_issued"`
	PFLate      uint64 `json:"pf_late"`
	PFWasted    uint64 `json:"pf_wasted"`

	// DRAM activity.
	RowHits      uint64 `json:"row_hits"`
	RowMisses    uint64 `json:"row_misses"`
	RowConflicts uint64 `json:"row_conflicts"`
	Refreshes    uint64 `json:"refreshes"`

	// Cache level mix and CPU stall time.
	L1Hits      uint64 `json:"l1_hits"`
	L2Hits      uint64 `json:"l2_hits"`
	L3Hits      uint64 `json:"l3_hits"`
	MemAccesses uint64 `json:"mem_accesses"`
	StallCycles uint64 `json:"stall_cycles"`

	// ASD / scheduler state.
	EpochRolls uint64 `json:"epoch_rolls"`
	Policy     int64  `json:"policy"` // last seen; 0 until first epoch closes

	queues QueueLevels
	latSum uint64
}

// Sampler is a Sink aggregating events into fixed-interval windows,
// ring-buffered: when more than MaxWindows windows have been opened the
// oldest are discarded, keeping memory bounded on arbitrarily long
// runs. Windows are keyed by absolute cycle (Window = Cycle/Interval),
// so slightly out-of-order events across clock domains still land in
// the right window; events older than the ring are counted in Dropped.
type Sampler struct {
	// Interval is the window width in CPU cycles.
	Interval uint64
	// MaxWindows bounds retained windows (ring buffer); 0 means the
	// DefaultMaxWindows.
	MaxWindows int

	// samples[lo:] are the retained windows in ascending Window order;
	// samples[:lo] were evicted and are compacted away in bulk.
	samples    []Sample
	lo         int
	policy     int64 // carried into new windows
	queues     QueueGauge
	evictedAny bool // the ring has wrapped at least once
	// Dropped counts events that arrived for windows already evicted
	// from the ring.
	Dropped uint64
}

// samplerIgnored are the kinds a Sampler skips: pipeline-stage
// transitions (schedule, issue, PF install) and per-decision probes
// carry no window-level aggregate beyond what the other kinds count.
const samplerIgnored = KindSet(1<<KindMCSchedule | 1<<KindMCIssue | 1<<KindMCPFInstall | 1<<KindASDPrefetchDecision)

// Kinds implements the bus's routing: the Sampler reads every kind it
// does not skip.
func (s *Sampler) Kinds() KindSet { return AllKinds &^ samplerIgnored }

// DefaultSampleInterval is the default window width: 50k CPU cycles,
// ~23 us of simulated time, a few hundred windows per million-cycle
// run.
const DefaultSampleInterval = 50_000

// DefaultMaxWindows bounds the ring at 4096 windows.
const DefaultMaxWindows = 4096

// NewSampler returns a sampler with the given window width in CPU
// cycles (0 means DefaultSampleInterval).
func NewSampler(interval uint64) *Sampler {
	if interval == 0 {
		interval = DefaultSampleInterval
	}
	return &Sampler{Interval: interval, MaxWindows: DefaultMaxWindows}
}

// window returns the sample for the event's window, opening (and
// evicting) as needed; nil if the window predates the ring.
func (s *Sampler) window(cycle uint64) *Sample {
	n := len(s.samples)
	if n == s.lo {
		return s.insertAt(n, cycle/s.Interval)
	}
	// Hot path: the event lands in the newest window.
	last := &s.samples[n-1]
	if cycle >= last.Start && cycle-last.Start < s.Interval {
		return last
	}
	idx := cycle / s.Interval
	if last.Window < idx {
		return s.insertAt(n, idx)
	}
	// Out-of-order event for an older window (the rare path;
	// cross-clock-domain probes trail only a little). The retained
	// windows samples[lo:] ascend by Window: pos is the first one at or
	// after idx. Check the window before the newest, then binary-search
	// the rest, keeping samples[pos].Window >= idx; an exact hit ends
	// the search.
	pos := n - 1
	if prev := n - 2; prev >= s.lo && s.samples[prev].Window >= idx {
		pos = prev
		for lo := s.lo; lo < pos && s.samples[pos].Window != idx; {
			mid := int(uint(lo+pos) >> 1)
			if s.samples[mid].Window < idx {
				lo = mid + 1
			} else {
				pos = mid
			}
		}
	}
	if s.samples[pos].Window == idx {
		return &s.samples[pos]
	}
	if pos == s.lo && s.evictedAny {
		// Older than every retained window: evicted territory.
		s.Dropped++
		return nil
	}
	// A window that was skipped over opens in place.
	return s.insertAt(pos, idx)
}

// insertAt opens window idx at position i (keeping ascending order) and
// evicts from the front past the ring limit. Eviction only advances lo;
// the evicted prefix is compacted away once it reaches a quarter of the
// limit, so each window moves O(1) times on average.
func (s *Sampler) insertAt(i int, idx uint64) *Sample {
	s.samples = append(s.samples, Sample{})
	copy(s.samples[i+1:], s.samples[i:])
	s.samples[i] = Sample{Window: idx, Start: idx * s.Interval, Policy: s.policy}
	limit := s.MaxWindows
	if limit <= 0 {
		limit = DefaultMaxWindows
	}
	if excess := len(s.samples) - s.lo - limit; excess > 0 {
		s.evictedAny = true
		s.lo += excess
		if i < s.lo {
			// The new window itself fell off the front.
			s.Dropped++
			return nil
		}
		if s.lo >= (limit+3)/4 {
			n := copy(s.samples, s.samples[s.lo:])
			s.samples = s.samples[:n]
			i -= s.lo
			s.lo = 0
		}
	}
	return &s.samples[i]
}

// Emit implements Sink.
//
//asd:hotpath
func (s *Sampler) Emit(e Event) {
	if e.Kind == KindMCQueues {
		s.emitQueues(e)
		return
	}
	if samplerIgnored.Has(e.Kind) {
		// A skipped kind opens no window either, so the output depends
		// only on the kinds the Sampler reads.
		return
	}
	w := s.window(e.Cycle)
	if w == nil {
		return
	}
	//asd:exhaustive
	switch e.Kind {
	case KindMCEnqueue:
		if e.V1 != 0 {
			w.Writes++
		} else {
			w.Reads++
		}
	case KindMCComplete:
		w.Completions++
		w.latSum += uint64(e.V1)
	case KindMCPBHit:
		w.PBHits++
	case KindMCBankConflict:
		w.BankConf++
	case KindMCPFNominate:
		w.PFNominated++
	case KindMCPFDrop:
		w.PFDropped++
	case KindMCPFIssue:
		w.PFIssued++
	case KindMCPFLate:
		w.PFLate++
	case KindMCPFWasted:
		w.PFWasted++
	case KindDRAMAccess:
		switch e.V1 {
		case 0:
			w.RowHits++
		case 1:
			w.RowMisses++
		default:
			w.RowConflicts++
		}
	case KindDRAMRefresh:
		w.Refreshes++
	case KindCacheAccess:
		switch e.V1 {
		case 1:
			w.L1Hits++
		case 2:
			w.L2Hits++
		case 3:
			w.L3Hits++
		default:
			w.MemAccesses++
		}
	case KindCPUStall:
		w.StallCycles += uint64(e.V1)
	case KindASDEpochRoll:
		w.EpochRolls++
	case KindSchedPolicy:
		w.Policy = e.V1
		s.policy = e.V1
	case KindMCSchedule, KindMCIssue, KindMCPFInstall, KindASDPrefetchDecision:
		// In samplerIgnored: returned above.
	case KindMCQueues:
		// Aggregated by emitQueues before the window lookup.
	}
}

// emitQueues charges the held queue reading to the windows it covered
// up to e's cycle, then takes e as the held reading.
func (s *Sampler) emitQueues(e Event) {
	g := &s.queues
	for end := e.Cycle - e.Cycle%s.Interval; g.held && g.at < end; {
		start := g.at - g.at%s.Interval
		var l *QueueLevels
		if w := s.window(start); w != nil {
			l = &w.queues
		}
		g.Charge(l, start, min(end, start+s.Interval))
	}
	w := s.window(e.Cycle)
	if w == nil {
		g.Read(nil, 0, e)
		return
	}
	w.QueueObs++
	g.Read(&w.queues, w.Start, e)
}

// finalize computes the derived means on a copy of w.
func finalize(w Sample) Sample {
	w.QueueCycles = w.queues.Cycles
	w.ReorderMean, w.CAQMean, w.LPQMean = w.queues.Mean(0), w.queues.Mean(1), w.queues.Mean(2)
	w.ReorderMax, w.CAQMax, w.LPQMax = w.queues.Max[0], w.queues.Max[1], w.queues.Max[2]
	if w.Completions > 0 {
		w.MeanReadLat = float64(w.latSum) / float64(w.Completions)
	}
	return w
}

// Samples returns the retained windows in chronological order with
// derived means computed.
func (s *Sampler) Samples() []Sample {
	kept := s.samples[s.lo:]
	out := make([]Sample, len(kept))
	for i := range kept {
		out[i] = finalize(kept[i])
	}
	return out
}

// csvHeader lists the CSV column order; the run column is prepended by
// WriteCSV so several runs can share one file.
var csvHeader = []string{
	"run", "window", "start_cycle",
	"caq_mean", "caq_max", "reorder_mean", "reorder_max", "lpq_mean", "lpq_max",
	"reads", "writes", "completions", "mean_read_lat", "pb_hits", "bank_conflicts",
	"pf_nominated", "pf_dropped", "pf_issued", "pf_late", "pf_wasted",
	"row_hits", "row_misses", "row_conflicts", "refreshes",
	"l1_hits", "l2_hits", "l3_hits", "mem_accesses", "stall_cycles",
	"epoch_rolls", "policy",
}

// CSVHeader writes the column header line.
func CSVHeader(w io.Writer) error {
	_, err := fmt.Fprintln(w, join(csvHeader))
	return err
}

// WriteCSV appends one row per retained window, tagged with the run
// label in the first column. Call CSVHeader once per file first.
func (s *Sampler) WriteCSV(w io.Writer, run string) error {
	for _, sm := range s.Samples() {
		row := []string{
			run,
			strconv.FormatUint(sm.Window, 10), strconv.FormatUint(sm.Start, 10),
			ffmt(sm.CAQMean), strconv.FormatInt(sm.CAQMax, 10),
			ffmt(sm.ReorderMean), strconv.FormatInt(sm.ReorderMax, 10),
			ffmt(sm.LPQMean), strconv.FormatInt(sm.LPQMax, 10),
			strconv.FormatUint(sm.Reads, 10), strconv.FormatUint(sm.Writes, 10),
			strconv.FormatUint(sm.Completions, 10), ffmt(sm.MeanReadLat),
			strconv.FormatUint(sm.PBHits, 10), strconv.FormatUint(sm.BankConf, 10),
			strconv.FormatUint(sm.PFNominated, 10), strconv.FormatUint(sm.PFDropped, 10),
			strconv.FormatUint(sm.PFIssued, 10), strconv.FormatUint(sm.PFLate, 10),
			strconv.FormatUint(sm.PFWasted, 10),
			strconv.FormatUint(sm.RowHits, 10), strconv.FormatUint(sm.RowMisses, 10),
			strconv.FormatUint(sm.RowConflicts, 10), strconv.FormatUint(sm.Refreshes, 10),
			strconv.FormatUint(sm.L1Hits, 10), strconv.FormatUint(sm.L2Hits, 10),
			strconv.FormatUint(sm.L3Hits, 10), strconv.FormatUint(sm.MemAccesses, 10),
			strconv.FormatUint(sm.StallCycles, 10),
			strconv.FormatUint(sm.EpochRolls, 10), strconv.FormatInt(sm.Policy, 10),
		}
		if _, err := fmt.Fprintln(w, join(row)); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSONL writes one JSON object per retained window, each with a
// "run" field carrying the label.
func (s *Sampler) WriteJSONL(w io.Writer, run string) error {
	enc := json.NewEncoder(w)
	for _, sm := range s.Samples() {
		if err := enc.Encode(struct {
			Run string `json:"run"`
			Sample
		}{run, sm}); err != nil {
			return err
		}
	}
	return nil
}

func ffmt(f float64) string { return strconv.FormatFloat(f, 'f', 3, 64) }

func join(cells []string) string { return strings.Join(cells, ",") }
