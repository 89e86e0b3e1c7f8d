package stats

import (
	"math"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Add(1)
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("Value = %d, want 10", c.Value())
	}
	if got := c.Ratio(Counter(40)); got != 0.25 {
		t.Errorf("Ratio = %v, want 0.25", got)
	}
	if got := c.Ratio(0); got != 0 {
		t.Errorf("Ratio with zero denom = %v, want 0", got)
	}
}

func TestHistogramObserveAndClamp(t *testing.T) {
	h := NewHistogram(4)
	h.Observe(1)
	h.Observe(2)
	h.Observe(2)
	h.Observe(9)  // clamps to 4
	h.Observe(0)  // clamps to 1
	h.Observe(-3) // clamps to 1
	if h.Total() != 6 {
		t.Fatalf("Total = %d, want 6", h.Total())
	}
	if h.Count(1) != 3 || h.Count(2) != 2 || h.Count(3) != 0 || h.Count(4) != 1 {
		t.Errorf("counts = %v", h)
	}
	if h.Count(0) != 0 || h.Count(5) != 0 {
		t.Errorf("out-of-range Count should be 0")
	}
}

func TestHistogramFracAndFractions(t *testing.T) {
	h := NewHistogram(2)
	h.ObserveN(1, 3)
	h.ObserveN(2, 1)
	if got := h.Frac(1); got != 0.75 {
		t.Errorf("Frac(1) = %v, want 0.75", got)
	}
	fr := h.Fractions()
	if fr[0] != 0.75 || fr[1] != 0.25 {
		t.Errorf("Fractions = %v", fr)
	}
	empty := NewHistogram(2)
	if empty.Frac(1) != 0 {
		t.Errorf("empty Frac should be 0")
	}
}

func TestHistogramResetClone(t *testing.T) {
	h := NewHistogram(3)
	h.ObserveN(2, 7)
	c := h.Clone()
	h.Reset()
	if h.Total() != 0 || h.Count(2) != 0 {
		t.Errorf("Reset failed: %v", h)
	}
	if c.Total() != 7 || c.Count(2) != 7 {
		t.Errorf("Clone affected by Reset: %v", c)
	}
}

func TestHistogramL1Distance(t *testing.T) {
	a := NewHistogram(2)
	b := NewHistogram(2)
	a.ObserveN(1, 10)
	b.ObserveN(2, 10)
	if got := a.L1Distance(b); math.Abs(got-2) > 1e-12 {
		t.Errorf("L1 = %v, want 2", got)
	}
	if got := a.L1Distance(a.Clone()); got != 0 {
		t.Errorf("self L1 = %v, want 0", got)
	}
}

func TestHistogramMean(t *testing.T) {
	h := NewHistogram(10)
	h.ObserveN(2, 2)
	h.ObserveN(4, 2)
	if got := h.Mean(); got != 3 {
		t.Errorf("Mean = %v, want 3", got)
	}
	if NewHistogram(3).Mean() != 0 {
		t.Errorf("empty Mean should be 0")
	}
}

func TestNewHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("NewHistogram(0) should panic")
		}
	}()
	NewHistogram(0)
}

func TestMeanAndGeoMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(10)
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile(0.5) = %d, want 0", got)
	}
	// 10 observations of 1..10: the q-quantile is ceil(10q).
	for v := 1; v <= 10; v++ {
		h.Observe(v)
	}
	cases := []struct {
		q    float64
		want int
	}{{0, 1}, {0.1, 1}, {0.5, 5}, {0.95, 10}, {1, 10}, {1.5, 10}, {-1, 1}}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	// Skewed: everything in bucket 3.
	h.Reset()
	h.ObserveN(3, 100)
	for _, q := range []float64{0.01, 0.5, 0.99} {
		if got := h.Quantile(q); got != 3 {
			t.Errorf("skewed Quantile(%v) = %d, want 3", q, got)
		}
	}
}
