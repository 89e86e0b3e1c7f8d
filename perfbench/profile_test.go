package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"asdsim/internal/mc.(*Controller).Step":                        "asdsim/internal/mc",
		"asdsim/internal/mc.(*ring[go.shape.*asdsim/internal/mc.x]).p": "asdsim/internal/mc",
		"asdsim/internal/obs/prov.(*Recorder).Emit":                    "asdsim/internal/obs/prov",
		"runtime.mallocgc":       "runtime",
		"net/http.(*conn).serve": "net/http",
		"main.main":              "main",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
	if l := layerOfPackage("asdsim/internal/obs/flightrec", "other"); l != "obs" {
		t.Errorf("flightrec is in layer %q, want obs", l)
	}
}

// spin burns CPU in package main outside the probe.
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1
		}
	}
	return x
}

// profileOf returns a CPU profile of fn.
func profileOf(t *testing.T, fn func()) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	fn()
	pprof.StopCPUProfile()
	return buf.Bytes()
}

// TestLayerSharesOwnProfile decodes real CPU profiles: time spent in
// the probe is left out, the rest lands on the main package's layer.
func TestLayerSharesOwnProfile(t *testing.T) {
	c := newCalibrator(2)
	probeOnly := profileOf(t, func() {
		for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
			c.probe()
		}
	})
	var sink uint64
	spinning := profileOf(t, func() { sink = spin(300 * time.Millisecond) })

	shares, err := layerShares([][]byte{probeOnly}, "farm")
	if err != nil {
		t.Fatal(err)
	}
	for l, v := range shares {
		if v > 5 {
			t.Errorf("probe-only profile: layer %s has %.1f%%, want the probe left out", l, v)
		}
	}
	shares, err = layerShares([][]byte{probeOnly, spinning}, "farm")
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if sum < 99.9 || sum > 100.1 || shares["farm"] < 80 {
		t.Errorf("shares %v (sum %v): want the spin loop's main package, mapped to farm, to dominate (%d)", shares, sum, sink&1)
	}
}
