package obs_test

import (
	"testing"

	"asdsim/internal/obs"
	"asdsim/internal/obs/flightrec"
	"asdsim/internal/obs/prov"
	"asdsim/internal/sim"
)

// benchConfig is the overhead benchmark's workload: the full PMS hot
// loop (caches + MC + ASD + adaptive scheduler + DRAM) on GemsFDTD.
func benchConfig() sim.Config { return sim.Default(sim.PMS, 200_000) }

// BenchmarkObsDisabledHotLoop measures the full simulation hot loop
// with no observer attached — every probe site reduced to its nil
// check. Compare against BenchmarkObsEnabledHotLoop to price the
// instrumentation; the disabled figure is the one held to the <2%
// regression budget vs the pre-instrumentation baseline.
func BenchmarkObsDisabledHotLoop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run("GemsFDTD", benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsEnabledHotLoop is the same workload with a bus and a
// counting sink attached: the fully-instrumented path.
func BenchmarkObsEnabledHotLoop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchConfig()
		cfg.Obs = obs.NewBus(&obs.Counter{})
		if _, err := sim.Run("GemsFDTD", cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsEnabledSampler prices the realistic observer stack:
// sampler plus per-depth stats, as asdsim -obs attaches.
func BenchmarkObsEnabledSampler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchConfig()
		cfg.Obs = obs.NewBus(obs.NewSampler(0), &obs.DepthStats{})
		if _, err := sim.Run("GemsFDTD", cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsEnabledRecorded prices the recorded stack that
// asdsim -obs -flightrec -explain attaches to its live run: sampler,
// per-depth stats and the detect-only flight recorder on the bus plus
// the provenance recorder, finished as after a run (Finish, then
// Stream). A run that trips a detector also pays for the replay that
// builds its bundles; this benchmark does not time it.
func BenchmarkObsEnabledRecorded(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchConfig()
		flight := flightrec.New(flightrec.Options{Label: "GemsFDTD/PMS",
			Detectors: flightrec.DefaultDetectors(cfg.MC.CAQCap)})
		rec := prov.New(prov.Options{TraceID: "GemsFDTD/PMS"})
		cfg.Obs = obs.NewBus(obs.NewSampler(obs.DefaultSampleInterval), &obs.DepthStats{}, flight)
		cfg.Prov = rec
		if _, err := sim.Run("GemsFDTD", cfg); err != nil {
			b.Fatal(err)
		}
		flight.Finish()
		rec.Stream()
	}
}

// BenchmarkObsBusEmit isolates one Emit through a single cheap sink.
func BenchmarkObsBusEmit(b *testing.B) {
	bus := obs.NewBus(&obs.Counter{})
	e := obs.Event{Kind: obs.KindMCQueues, V1: 1, V2: 2, V3: 3}
	for i := 0; i < b.N; i++ {
		bus.Emit(e)
	}
}
