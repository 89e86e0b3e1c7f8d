package farm

import (
	"encoding/json"
	"fmt"
	"sync"

	prom "asdsim/internal/metrics"
	"asdsim/internal/obs"
	"asdsim/internal/obs/flightrec"
	"asdsim/internal/obs/span"
	"asdsim/internal/sim"
)

// Telemetry is the farm's per-run observability aggregator. Its
// Instrument method plugs into Options.Instrument: every attempt gets a
// private probe bus carrying a cycle-window sampler and a flight
// recorder, and when the attempt ends the run's depth table, CAQ
// occupancy series, anomaly triggers and triage bundles are folded into
// the shared state served by /metrics, /events, /dashboard and
// /flightrec. Per-attempt sinks are private to their worker goroutine,
// so the simulation hot path takes no locks; only the end-of-run merge
// does.
type Telemetry struct {
	// Node names the executing node ("w1") in triage bundles so a
	// bundle pulled off a cluster worker says where it was captured.
	// Optional; empty for standalone farms.
	Node string

	mu        sync.Mutex
	runs      uint64
	depths    obs.DepthStats
	sparks    map[string]Spark // keyed by "bench/mode"; last run wins
	order     []string         // spark insertion order
	anomalies []Anomaly
	bundles   []TriageBundle
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

// TriageBundle is a retained flight-recorder bundle with a stable ID
// for /flightrec/{id}.
type TriageBundle struct {
	ID     string
	Bundle *flightrec.Bundle
}

// Telemetry's retention bounds.
const (
	// sparkPoints bounds each run's CAQ sparkline (downsampled).
	sparkPoints = 60
	// maxBundles bounds retained triage bundles across all runs.
	maxBundles = 16
	// maxAnomalies bounds the retained trigger list.
	maxAnomalies = 256
)

// NewTelemetry returns an empty telemetry aggregator.
func NewTelemetry() *Telemetry {
	return &Telemetry{sparks: make(map[string]Spark)}
}

// Instrument implements the farm Options.Instrument contract. The
// attempt's flight recorder returns its ring at Finish, before the
// absorb, which reads only its bundles, triggers and depth table.
func (t *Telemetry) Instrument(spec Spec) (*obs.Bus, func(res *sim.Result, err error)) {
	label := spec.Benchmark + "/" + spec.Mode.String()
	rec := flightrec.New(flightrec.Options{
		Label:     label,
		Detectors: flightrec.DefaultDetectors(spec.Config.MC.CAQCap),
	})
	sampler := obs.NewSampler(0)
	fin := func(res *sim.Result, err error) {
		rec.Finish()
		t.absorb(spec, label, sampler, rec)
	}
	return obs.NewBus(sampler, rec), fin
}

// absorb merges one finished attempt's sinks into the shared state.
func (t *Telemetry) absorb(spec Spec, label string, sampler *obs.Sampler, rec *flightrec.Recorder) {
	spark := downsampleCAQ(sampler.Samples(), sparkPoints)
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

	bundles := rec.Bundles()
	for _, tr := range rec.Triggers() {
		a := Anomaly{Benchmark: spec.Benchmark, Mode: spec.Mode.String(),
			Engine: spec.Config.Engine.String(), Trigger: tr}
		// Pair the trigger with its bundle when one was captured and we
		// still have room to retain it.
		for _, b := range bundles {
			if b.Trigger == tr && len(t.bundles) < maxBundles {
				t.bundleSeq++
				a.BundleID = fmt.Sprintf("b%d", t.bundleSeq)
				// Only a retained bundle pays for the run's identity:
				// spec key, node, trace and serialized config.
				b.Key, b.Node = spec.Key(), t.Node
				b.TraceID = span.TraceIDFromKey(b.Key)
				b.Config, _ = json.Marshal(spec.Config)
				t.bundles = append(t.bundles, TriageBundle{ID: a.BundleID, Bundle: b})
				break
			}
		}
		t.anomalies = append(t.anomalies, a)
	}
	if len(t.anomalies) > maxAnomalies {
		t.anomalies = append(t.anomalies[:0:0], t.anomalies[len(t.anomalies)-maxAnomalies:]...)
	}
}

// downsampleCAQ buckets the samples' CAQ means into at most n points.
func downsampleCAQ(samples []obs.Sample, n int) Spark {
	s := Spark{Label: ""}
	if len(samples) == 0 {
		return s
	}
	if n < 1 {
		n = 1
	}
	if len(samples) < n {
		n = len(samples)
	}
	s.Points = make([]float64, n)
	for i := 0; i < n; i++ {
		lo, hi := i*len(samples)/n, (i+1)*len(samples)/n
		if hi <= lo {
			hi = lo + 1
		}
		var sum float64
		for _, sm := range samples[lo:hi] {
			sum += sm.CAQMean
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

// Bundles returns the retained triage bundles' IDs and trigger lines.
func (t *Telemetry) Bundles() []TriageBundle {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]TriageBundle(nil), t.bundles...)
}

// Bundle returns the bundle with the given ID, or nil.
func (t *Telemetry) Bundle(id string) *flightrec.Bundle {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, b := range t.bundles {
		if b.ID == id {
			return b.Bundle
		}
	}
	return nil
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
