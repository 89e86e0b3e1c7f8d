package asdsim_test

import (
	"testing"

	"asdsim"
)

func TestBenchmarksListing(t *testing.T) {
	all := asdsim.Benchmarks()
	if len(all) < 30 {
		t.Fatalf("Benchmarks() = %d entries, want >= 30", len(all))
	}
	spec := asdsim.SuiteBenchmarks(asdsim.SPEC2006FP)
	nas := asdsim.SuiteBenchmarks(asdsim.NAS)
	com := asdsim.SuiteBenchmarks(asdsim.Commercial)
	if len(spec) != 17 || len(nas) != 8 || len(com) != 5 {
		t.Errorf("suite sizes: %d/%d/%d", len(spec), len(nas), len(com))
	}
	if len(asdsim.FocusBenchmarks()) != 8 {
		t.Errorf("focus set size = %d", len(asdsim.FocusBenchmarks()))
	}
}

func TestRunAndGain(t *testing.T) {
	cfg := asdsim.DefaultConfig(asdsim.NP, 100_000)
	np, err := asdsim.Run("milc", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mode = asdsim.PMS
	pms, err := asdsim.Run("milc", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g := asdsim.Gain(np, pms); g <= 0 {
		t.Errorf("PMS gain over NP = %v, want positive on milc", g)
	}
	if asdsim.Gain(np, asdsim.Result{}) != 0 {
		t.Error("Gain with zero cycles should be 0")
	}
}

func TestCompareDefaultsToAllModes(t *testing.T) {
	cmp, err := asdsim.Compare("tonto", asdsim.DefaultConfig(asdsim.NP, 60_000))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []asdsim.Mode{asdsim.NP, asdsim.PS, asdsim.MS, asdsim.PMS} {
		if _, ok := cmp.ByMode[m]; !ok {
			t.Errorf("mode %v missing from comparison", m)
		}
	}
	if cmp.GainOver(asdsim.NP, asdsim.NP) != 0 {
		t.Error("self-gain should be 0")
	}
}

func TestCompareUnknownBenchmark(t *testing.T) {
	if _, err := asdsim.Compare("nosuch", asdsim.DefaultConfig(asdsim.NP, 1000)); err == nil {
		t.Error("expected error")
	}
}
