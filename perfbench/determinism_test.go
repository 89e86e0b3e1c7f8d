package main

import (
	"strings"
	"testing"
)

// tinySpec returns the benchmark spec with every budget cut down, so a
// whole workload runs in about a second.
func tinySpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range spec.Workloads {
		w.Budget = 200_000
		w.SetupReps = 1
		spec.Workloads[name] = w
	}
	return spec
}

// deterministic reports whether a metric must repeat bit for bit: the
// accuracy metrics and every simulated counter.
func deterministic(name string) bool {
	switch name {
	case "paper_gap_pp", "paper_power_gap_pp", "sampled_err_pct", "obs.prov_records_per_cell":
		return true
	}
	for _, p := range []string{"cache.l", "cpu.stall", "prefetch.ps", "mc.", "dram.row", "dram.energy"} {
		if strings.HasPrefix(name, p) && !strings.HasSuffix(name, ".cpu_pct") {
			return true
		}
	}
	return false
}

// TestAccuracyAndCountersRepeat runs each in-process workload twice at a
// tiny budget with different seeds: the accuracy metrics and simulated
// counters must be bit-identical, and no output check may fail.
func TestAccuracyAndCountersRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two workloads twice")
	}
	spec := tinySpec(t)
	for _, name := range []string{"matrix-exact", "recorded"} {
		t.Run(name, func(t *testing.T) {
			var runs [2]map[string]float64
			for i := range runs {
				b := newBench(spec, name, uint64(i+1), 1, false)
				b.outDir = t.TempDir()
				if err := workloads[name](b); err != nil {
					t.Fatal(err)
				}
				if b.failed > 0 {
					t.Fatalf("seed %d: %d of %d failed", i+1, b.failed, b.attempted)
				}
				runs[i] = b.values
			}
			n := 0
			for k, v := range runs[0] {
				if !deterministic(k) {
					continue
				}
				n++
				if w, ok := runs[1][k]; !ok || w != v {
					t.Errorf("%s: %v then %v", k, v, w)
				}
			}
			if n < 17 {
				t.Errorf("only %d deterministic metrics compared", n)
			}
		})
	}
}
