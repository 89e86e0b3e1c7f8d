// BenchmarkSimThroughput measures raw simulation-kernel speed — simulated
// CPU cycles per wall second and heap allocations per run — for each of
// the paper's four configurations. It is the guard benchmark for the
// allocation-free kernel work: CI runs it with `-benchtime=1x -benchmem`
// and BENCH_throughput.json records the tracked baseline.
package asdsim_test

import (
	"testing"

	"asdsim"
	"asdsim/internal/obs"
	"asdsim/internal/obs/flightrec"
	"asdsim/internal/obs/prov"
)

// throughputBudget is large enough that per-run setup (generator tables,
// cache directories) is amortised and the steady-state MC/DRAM loop
// dominates, while keeping `-benchtime=1x` smoke runs under a second.
const throughputBudget = 300_000

func benchThroughput(b *testing.B, bench string, mode asdsim.Mode) {
	b.Helper()
	cfg := asdsim.DefaultConfig(mode, throughputBudget)
	var cycles uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := asdsim.Run(bench, cfg)
		if err != nil {
			b.Fatalf("%s/%v: %v", bench, mode, err)
		}
		cycles += res.Cycles
	}
	b.StopTimer()
	secs := b.Elapsed().Seconds()
	if secs > 0 {
		b.ReportMetric(float64(cycles)/secs, "cycles/sec")
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "cycles/op")
}

func BenchmarkSimThroughput(b *testing.B) {
	// GemsFDTD is the paper's most stream-heavy workload: every MC
	// subsystem (reorder queues, CAQ, LPQ, PB, ASD engine) is exercised.
	for _, mode := range []asdsim.Mode{asdsim.NP, asdsim.PS, asdsim.MS, asdsim.PMS} {
		b.Run(mode.String(), func(b *testing.B) {
			benchThroughput(b, "GemsFDTD", mode)
		})
	}
}

// BenchmarkSimThroughputFlightrec is the recorded-run companion: the
// same workloads with the live, detect-only anomaly flight recorder
// attached to the probe bus. The gap between the two benchmarks is the
// cost of always-on anomaly detection; the replay that builds a
// trigger's bundle afterwards is not timed. Acceptance is tracked
// against BENCH_throughput.json: the bare run must stay within 2% of the
// recorded baseline (a nil bus keeps every probe behind a single branch)
// and the recorded run within 10% of it. Its "flightrec" section was
// measured with a recorder that captured inline, before live recorders
// became detect-only.
func BenchmarkSimThroughputFlightrec(b *testing.B) {
	for _, mode := range []asdsim.Mode{asdsim.NP, asdsim.PS, asdsim.MS, asdsim.PMS} {
		b.Run(mode.String(), func(b *testing.B) {
			cfg := asdsim.DefaultConfig(mode, throughputBudget)
			var cycles uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := flightrec.New(flightrec.Options{
					Label:     "GemsFDTD/" + mode.String(),
					Detectors: flightrec.DefaultDetectors(cfg.MC.CAQCap),
				})
				cfg.Obs = obs.NewBus(rec)
				res, err := asdsim.Run("GemsFDTD", cfg)
				if err != nil {
					b.Fatalf("GemsFDTD/%v: %v", mode, err)
				}
				rec.Finish()
				cycles += res.Cycles
			}
			b.StopTimer()
			secs := b.Elapsed().Seconds()
			if secs > 0 {
				b.ReportMetric(float64(cycles)/secs, "cycles/sec")
			}
			b.ReportMetric(float64(cycles)/float64(b.N), "cycles/op")
		})
	}
}

// BenchmarkSimThroughputProv measures the same workloads with the
// prefetch-provenance recorder attached (default ring, epoch
// snapshots, decision/slot hooks live). The gap against
// BenchmarkSimThroughput is the full cost of per-decision attribution;
// acceptance holds it within 1.10x — see the "provenance" section of
// BENCH_throughput.json for current numbers.
func BenchmarkSimThroughputProv(b *testing.B) {
	for _, mode := range []asdsim.Mode{asdsim.NP, asdsim.PS, asdsim.MS, asdsim.PMS} {
		b.Run(mode.String(), func(b *testing.B) {
			cfg := asdsim.DefaultConfig(mode, throughputBudget)
			var cycles, records uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := prov.New(prov.Options{TraceID: "GemsFDTD/" + mode.String()})
				cfg.Prov = rec
				res, err := asdsim.Run("GemsFDTD", cfg)
				if err != nil {
					b.Fatalf("GemsFDTD/%v: %v", mode, err)
				}
				st := rec.Stream()
				records += uint64(len(st.Records)) + st.Dropped
				cycles += res.Cycles
			}
			b.StopTimer()
			secs := b.Elapsed().Seconds()
			if secs > 0 {
				b.ReportMetric(float64(cycles)/secs, "cycles/sec")
			}
			b.ReportMetric(float64(cycles)/float64(b.N), "cycles/op")
			b.ReportMetric(float64(records)/float64(b.N), "records/op")
		})
	}
}
