package farm

import (
	"sort"
	"sync"

	prom "asdsim/internal/metrics"
	"asdsim/internal/obs/prov"
	"asdsim/internal/obs/span"
	"asdsim/internal/sim"
)

// maxTimelines bounds the per-run decision timelines retained in memory
// for the dashboard; the oldest run's timeline is evicted first. The
// full streams live in the sidecar store regardless.
const maxTimelines = 8

// maxTimelinePoints bounds each retained timeline's epoch points for
// the SSE payload; the newest epochs win. The sidecar keeps them all.
const maxTimelinePoints = 256

// TimelinePoint aggregates one SLH epoch's provenance activity: how
// many prefetch decisions fired and what became of the prefetches
// stamped with that epoch.
type TimelinePoint struct {
	Epoch     uint32 `json:"epoch"`
	Decisions uint64 `json:"decisions"`
	Nominates uint64 `json:"nominates"`
	Issues    uint64 `json:"issues"`
	PBHits    uint64 `json:"pb_hits"`
	Late      uint64 `json:"late"`
	Wasted    uint64 `json:"wasted"`
	Drops     uint64 `json:"drops"`
}

// Timeline is one run's per-epoch decision activity — the dashboard's
// decision-timeline panel feed.
type Timeline struct {
	Label   string          `json:"label"`
	Key     string          `json:"key"`
	Records int             `json:"records"`
	Dropped uint64          `json:"dropped,omitempty"`
	Points  []TimelinePoint `json:"points"`
}

// BuildTimeline folds a provenance stream's records into per-epoch
// activity, epochs ascending.
func BuildTimeline(st *prov.Stream) []TimelinePoint {
	byEpoch := map[uint32]*TimelinePoint{}
	for i := range st.Records {
		r := &st.Records[i]
		p := byEpoch[r.Epoch]
		if p == nil {
			p = &TimelinePoint{Epoch: r.Epoch}
			byEpoch[r.Epoch] = p
		}
		switch r.Op {
		case prov.OpDecision:
			p.Decisions++
		case prov.OpNominate:
			p.Nominates++
		case prov.OpIssue:
			p.Issues++
		case prov.OpPBHit:
			p.PBHits++
		case prov.OpLate:
			p.Late++
		case prov.OpWasted:
			p.Wasted++
		case prov.OpDrop:
			p.Drops++
		}
	}
	epochs := make([]int, 0, len(byEpoch))
	for e := range byEpoch {
		epochs = append(epochs, int(e))
	}
	sort.Ints(epochs)
	pts := make([]TimelinePoint, 0, len(epochs))
	for _, e := range epochs {
		pts = append(pts, *byEpoch[uint32(e)])
	}
	if len(pts) > maxTimelinePoints {
		pts = pts[len(pts)-maxTimelinePoints:]
	}
	return pts
}

// Provenance wires per-attempt prefetch-provenance recording into a
// pool (plug Attach into Options.Provenance) and persists each
// successful run's stream as a sidecar keyed by the spec key, so
// `asdfarm explain`/`diff` and the server's /explain and /diff routes
// can reconstruct any stored run's decisions. It also keeps a bounded
// set of per-run decision timelines for the dashboard. Safe for
// concurrent use.
type Provenance struct {
	store *prov.Store // nil: record timelines only, persist nothing

	mu        sync.Mutex
	runs      uint64
	saved     uint64
	saveErrs  uint64
	timelines map[string]*Timeline // key → newest timeline
	order     []string             // insertion order for eviction/display
}

// NewProvenance returns a collector persisting streams into store
// (which may be nil for in-memory timelines only).
func NewProvenance(store *prov.Store) *Provenance {
	return &Provenance{store: store, timelines: map[string]*Timeline{}}
}

// Store returns the sidecar store (nil when not persisting).
func (f *Provenance) Store() *prov.Store { return f.store }

// Attach implements the farm Options.Provenance contract: every attempt
// gets a fresh recorder whose trace ID is derived from the spec key,
// and the finish callback folds the stream into the collector and — for
// successful attempts — saves the sidecar.
func (f *Provenance) Attach(spec Spec) (*prov.Recorder, func(res *sim.Result, err error)) {
	key := spec.Key()
	rec := prov.New(prov.Options{TraceID: span.TraceIDFromKey(key)})
	label := spec.Benchmark + "/" + spec.Mode.String()
	return rec, func(res *sim.Result, err error) {
		st := rec.Stream()
		tl := &Timeline{Label: label, Key: key, Records: len(st.Records),
			Dropped: st.Dropped, Points: BuildTimeline(st)}
		f.mu.Lock()
		defer f.mu.Unlock()
		f.runs++
		if _, seen := f.timelines[key]; !seen {
			f.order = append(f.order, key)
		}
		f.timelines[key] = tl
		for len(f.order) > maxTimelines {
			delete(f.timelines, f.order[0])
			f.order = f.order[1:]
		}
		if err != nil || f.store == nil {
			return
		}
		if serr := f.store.Save(key, st); serr != nil {
			f.saveErrs++
		} else {
			f.saved++
		}
	}
}

// Timelines returns the retained per-run decision timelines, oldest
// run first.
func (f *Provenance) Timelines() []Timeline {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Timeline, 0, len(f.order))
	for _, k := range f.order {
		out = append(out, *f.timelines[k])
	}
	return out
}

// addTo folds the collector's counters into a Prometheus registry.
func (f *Provenance) addTo(reg *prom.Registry) {
	f.mu.Lock()
	runs, saved, errs := f.runs, f.saved, f.saveErrs
	f.mu.Unlock()
	reg.Counter("farm_prov_runs_total",
		"Attempts executed with a provenance recorder attached.").With().Add(float64(runs))
	reg.Counter("farm_prov_streams_saved_total",
		"Provenance streams persisted to the sidecar store.").With().Add(float64(saved))
	reg.Counter("farm_prov_save_errors_total",
		"Provenance sidecar writes that failed.").With().Add(float64(errs))
}
