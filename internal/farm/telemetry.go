package farm

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sync"

	prom "asdsim/internal/metrics"
	"asdsim/internal/obs"
	"asdsim/internal/obs/flightrec"
	"asdsim/internal/sim"
)

// Telemetry is the farm's per-run observability aggregator. Its
// Instrument method plugs into Options.Instrument: every attempt gets a
// private probe bus carrying one live flight recorder, the run's only
// windowed sink, and when the attempt ends the run's depth table, the
// CAQ means of the recorder's windows (the sparkline) and anomaly
// triggers are folded into the shared state served by /metrics,
// /events, /dashboard and /flightrec. Per-attempt sinks are private to
// their worker goroutine, so the simulation hot path takes no locks;
// only the end-of-run merge does.
//
// A live recorder only detects. Telemetry retains the newest triggers
// with their specs, and builds a trigger's bundle on its first request
// with flightrec.Replay, which runs the spec again up to the trigger
// (see bundle).
type Telemetry struct {
	mu        sync.Mutex
	runs      uint64
	depths    obs.DepthStats
	sparks    map[string]Spark // keyed by "bench/mode"; last run wins
	order     []string         // spark insertion order
	anomalies []Anomaly
	bundles   []*TriageBundle // oldest first
	bundleSeq int
}

// Spark is one run's downsampled CAQ-occupancy time series.
type Spark struct {
	Label  string    `json:"label"`
	Points []float64 `json:"points"` // mean CAQ occupancy per bucket
	Max    float64   `json:"max"`
}

// Anomaly is one flight-recorder trigger in farm context.
type Anomaly struct {
	Benchmark string            `json:"benchmark"`
	Mode      string            `json:"mode"`
	Engine    string            `json:"engine"`
	Trigger   flightrec.Trigger `json:"trigger"`
	BundleID  string            `json:"bundle_id,omitempty"`
}

// TriageBundle is a retained trigger with a stable ID for
// /flightrec/{id}: the run's identity, stamped at retention, and the
// spec that replays it.
type TriageBundle struct {
	ID      string
	Label   string
	Key     string
	TraceID string
	Trigger flightrec.Trigger

	spec Spec
	// bundle is the capture, built on the first request; guarded by
	// Telemetry.mu.
	bundle *flightrec.Bundle
}

// Telemetry's retention bounds.
const (
	// sparkPoints bounds each run's CAQ sparkline (downsampled).
	sparkPoints = 60
	// maxBundles bounds retained triage bundles across all runs; the
	// newest are kept.
	maxBundles = 16
	// maxAnomalies bounds the retained trigger list.
	maxAnomalies = 256
)

// NewTelemetry returns an empty telemetry aggregator.
func NewTelemetry() *Telemetry {
	return &Telemetry{sparks: make(map[string]Spark)}
}

// recorderOptions are the flight recorder's options for a run of spec:
// an attempt's live recorder and a replay's are armed alike.
func recorderOptions(spec Spec, label string) flightrec.Options {
	return flightrec.Options{
		Label:     label,
		Detectors: flightrec.DefaultDetectors(spec.Config.MC.CAQCap),
	}
}

// Instrument implements the farm Options.Instrument contract. absorb
// reads the attempt's recorder's CAQ series, triggers and depth table.
func (t *Telemetry) Instrument(spec Spec) (*obs.Bus, func(res *sim.Result, err error)) {
	label := spec.Benchmark + "/" + spec.Mode.String()
	rec := flightrec.New(recorderOptions(spec, label))
	fin := func(res *sim.Result, err error) {
		rec.Finish()
		t.absorb(spec, label, rec)
	}
	return obs.NewBus(rec), fin
}

// absorb merges one finished attempt's recorder into the shared state.
func (t *Telemetry) absorb(spec Spec, label string, rec *flightrec.Recorder) {
	spark := downsampleCAQ(rec.CAQSeries(), sparkPoints)
	d := rec.Depths()

	t.mu.Lock()
	defer t.mu.Unlock()
	t.runs++
	for i := 0; i <= obs.MaxTrackedDepth; i++ {
		t.depths.Nominated[i] += d.Nominated[i]
		t.depths.Issued[i] += d.Issued[i]
		t.depths.Timely[i] += d.Timely[i]
		t.depths.Late[i] += d.Late[i]
		t.depths.Wasted[i] += d.Wasted[i]
		t.depths.Dropped[i] += d.Dropped[i]
	}
	if _, seen := t.sparks[label]; !seen {
		t.order = append(t.order, label)
	}
	t.sparks[label] = spark

	for _, tr := range rec.Triggers() {
		if len(t.bundles) == maxBundles {
			t.dropOldestBundle()
		}
		t.bundleSeq++
		a := Anomaly{Benchmark: spec.Benchmark, Mode: spec.Mode.String(),
			Engine: spec.Config.Engine.String(), Trigger: tr, BundleID: fmt.Sprintf("b%d", t.bundleSeq)}
		key := spec.Key()
		t.bundles = append(t.bundles, &TriageBundle{ID: a.BundleID, Label: label,
			Key: key, TraceID: TraceID(key), Trigger: tr, spec: spec})
		t.anomalies = append(t.anomalies, a)
	}
	if len(t.anomalies) > maxAnomalies {
		t.anomalies = append(t.anomalies[:0:0], t.anomalies[len(t.anomalies)-maxAnomalies:]...)
	}
}

// dropOldestBundle forgets the oldest retained trigger and any bundle
// built for it, and unlinks its anomaly: its ID is then unknown.
func (t *Telemetry) dropOldestBundle() {
	id := t.bundles[0].ID
	t.bundles = slices.Delete(t.bundles, 0, 1)
	for i := range t.anomalies {
		if t.anomalies[i].BundleID == id {
			t.anomalies[i].BundleID = ""
		}
	}
}

// downsampleCAQ buckets a series of per-window CAQ means into at most n
// points.
func downsampleCAQ(caq []float64, n int) Spark {
	s := Spark{Label: ""}
	if len(caq) == 0 {
		return s
	}
	if n < 1 {
		n = 1
	}
	if len(caq) < n {
		n = len(caq)
	}
	s.Points = make([]float64, n)
	for i := 0; i < n; i++ {
		lo, hi := i*len(caq)/n, (i+1)*len(caq)/n
		if hi <= lo {
			hi = lo + 1
		}
		var sum float64
		for _, m := range caq[lo:hi] {
			sum += m
		}
		s.Points[i] = sum / float64(hi-lo)
		if s.Points[i] > s.Max {
			s.Max = s.Points[i]
		}
	}
	return s
}

// Sparks returns the per-run-label CAQ sparklines in first-seen order.
func (t *Telemetry) Sparks() []Spark {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Spark, 0, len(t.order))
	for _, label := range t.order {
		sp := t.sparks[label]
		sp.Label = label
		out = append(out, sp)
	}
	return out
}

// Anomalies returns the retained trigger list, oldest first.
func (t *Telemetry) Anomalies() []Anomaly {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Anomaly(nil), t.anomalies...)
}

// Bundles returns the retained triage bundles' identities and triggers.
func (t *Telemetry) Bundles() []TriageBundle {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TriageBundle, len(t.bundles))
	for i, tb := range t.bundles {
		out[i] = *tb
	}
	return out
}

// bundle returns the bundle with the given ID, or nil and no error when
// no retained trigger has that ID. The first request builds the bundle
// by replaying the trigger's run inside gate, and keeps it; a request
// that waits on another's replay of the same bundle gets that replay's
// bundle. ctx cancels the wait and the replay.
func (t *Telemetry) bundle(ctx context.Context, id string, gate replayGate) (*flightrec.Bundle, error) {
	tb, b := t.retained(id)
	if tb == nil || b != nil {
		return b, nil
	}
	if err := gate.enter(ctx); err != nil {
		return nil, err
	}
	defer gate.leave()
	if tb, b = t.retained(id); tb == nil || b != nil {
		return b, nil
	}
	b, err := replay(ctx, tb)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	tb.bundle = b
	t.mu.Unlock()
	return b, nil
}

// retained returns the retained trigger with the given ID and its
// bundle, nil until built.
func (t *Telemetry) retained(id string) (*TriageBundle, *flightrec.Bundle) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, tb := range t.bundles {
		if tb.ID == id {
			return tb, tb.bundle
		}
	}
	return nil, nil
}

// replay builds the bundle of tb's trigger with flightrec.Replay, which
// runs tb's spec again up to the trigger, and stamps it with the run's
// key, trace and config. ctx, not Spec.Timeout, bounds the replay. A
// trigger that does not recur is an error naming it, never another
// bundle.
func replay(ctx context.Context, tb *TriageBundle) (*flightrec.Bundle, error) {
	bundles, err := flightrec.Replay(ctx, recorderOptions(tb.spec, tb.Label),
		[]flightrec.Trigger{tb.Trigger}, rerun(tb.spec))
	if err != nil {
		return nil, err
	}
	b := bundles[0]
	b.Key, b.TraceID = tb.Key, tb.TraceID
	b.Config, _ = json.Marshal(tb.spec.Config)
	return b, nil
}

// rerun is a replay's run of spec: as Pool.attempt runs it, with the
// replay's sink alone on its probe bus.
func rerun(spec Spec) func(context.Context, obs.Sink) error {
	return func(ctx context.Context, sink obs.Sink) error {
		spec.Config.Obs = obs.NewBus(sink)
		_, err := runOnce(ctx, spec)
		return err
	}
}

// Depths returns a copy of the farm-wide per-depth prefetch table.
func (t *Telemetry) Depths() obs.DepthStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.depths
}

// addTo folds the telemetry families into a Prometheus registry: the
// aggregated per-depth prefetch table, anomaly counts by detector, and
// retained-bundle/instrumented-run gauges.
func (t *Telemetry) addTo(reg *prom.Registry) {
	t.mu.Lock()
	runs := t.runs
	depths := t.depths
	counts := map[string]uint64{}
	for _, a := range t.anomalies {
		counts[a.Trigger.Detector]++
	}
	nBundles := len(t.bundles)
	t.mu.Unlock()

	reg.Counter("farm_instrumented_runs_total",
		"Attempts that ran with telemetry attached.").With().Add(float64(runs))
	reg.Gauge("farm_flightrec_bundles",
		"Triage bundles currently retained.").With().Set(float64(nBundles))
	anom := reg.Counter("farm_anomalies_total",
		"Flight-recorder detector firings by detector.", "detector")
	for det, n := range counts {
		anom.With(det).Add(float64(n))
	}
	prom.AddDepthStats(reg, &depths, nil, nil)
}
