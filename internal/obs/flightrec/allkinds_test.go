package flightrec_test

import (
	"strings"
	"testing"

	"asdsim/internal/obs"
	"asdsim/internal/obs/flightrec"
)

// TestEveryKindFlowsThroughTheChain is the runtime counterpart of the
// exhaustive-events vet pass: every declared probe kind is pushed
// through a bus fanning out to the Sampler, the Chrome-trace exporter,
// the per-depth stats, a Counter and the flight recorder, and every
// sink must accept every kind without panicking or losing events. A
// kind added to obs without wiring fails the vet gate first; this test
// catches a sink whose handling is wired but broken.
func TestEveryKindFlowsThroughTheChain(t *testing.T) {
	sampler := obs.NewSampler(0)
	tb := obs.NewTraceBuilder()
	tb.StartProcess("allkinds")
	var depths obs.DepthStats
	var counter obs.Counter
	rec := flightrec.New(flightrec.Options{Label: "allkinds"})
	bus := obs.NewBus(sampler, tb, &depths, &counter, rec)

	for k := 0; k < obs.NumKinds; k++ {
		if !bus.On(obs.Kind(k)) {
			t.Fatalf("kind %d is off on a bus whose Counter reads every kind", k)
		}
	}
	for k := 0; k < obs.NumKinds; k++ {
		e := obs.Event{
			Kind:  obs.Kind(k),
			Cycle: uint64(k+1) * 1000,
			ID:    uint64(k),
			V1:    1, V2: 2, V3: 3,
		}
		bus.Emit(e)
	}
	rec.Finish()

	if got := counter.Total(); got != uint64(obs.NumKinds) {
		t.Errorf("counter saw %d events, want %d", got, obs.NumKinds)
	}
	for k := 0; k < obs.NumKinds; k++ {
		if counter.Count(obs.Kind(k)) != 1 {
			t.Errorf("kind %d: counter %d, want 1", k, counter.Count(obs.Kind(k)))
		}
	}
}

// TestEveryKindHasAName locks Kind.String to the kindNames table: a
// name for every kind, no placeholder fallbacks, no duplicates.
func TestEveryKindHasAName(t *testing.T) {
	seen := map[string]obs.Kind{}
	for k := 0; k < obs.NumKinds; k++ {
		name := obs.Kind(k).String()
		if name == "" || strings.HasPrefix(name, "Kind(") {
			t.Errorf("kind %d has no name: %q", k, name)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, name)
		}
		seen[name] = obs.Kind(k)
	}
	if got := obs.Kind(obs.NumKinds).String(); !strings.HasPrefix(got, "Kind(") {
		t.Errorf("out-of-range kind renders %q, want the Kind(n) fallback", got)
	}
}
