package main

import "testing"

// TestProbeKernelFrozen pins the probe kernel: the calibration
// reference in spec.json is a time for exactly this work, so any change
// to the kernel must show up here.
func TestProbeKernelFrozen(t *testing.T) {
	tab := newProbeBuf()
	if got, want := len(tab)*8, 2<<20; got != want {
		t.Fatalf("probe table is %d bytes, want %d", got, want)
	}
	// A fresh table misses on every lookup; the second call walks the
	// same sequence and hits what the first inserted.
	first := probeKernel(tab)
	var fold uint64
	for i, v := range tab {
		fold = fold*31 + v ^ uint64(i)
	}
	second := probeKernel(tab)
	const wantFold, wantSecond = 0x65ce57da0de48cad, 0x739ebe9f40
	if first != 0 || fold != wantFold || second != wantSecond {
		t.Fatalf("probe checksums %#x, table %#x, %#x; pinned 0, %#x, %#x",
			first, fold, second, uint64(wantFold), uint64(wantSecond))
	}
}

func TestCalibrationFactor(t *testing.T) {
	c := &calibrator{refMS: 2, readings: []float64{1, 4, 4, 4, 100}}
	if f := c.factor(0, 5); f != 0.5 {
		t.Errorf("factor over median 4 ms = %v, want 0.5", f)
	}
	if f := c.window(0, 1); f != 2/2.5 {
		t.Errorf("window at 0 = %v, want %v", f, 2/2.5)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.9, 3.7}} {
		if got := quantile(xs, tc.q); got < tc.want-1e-12 || got > tc.want+1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}
