// Package stats provides the measurement substrate used throughout the
// simulator: event counters, bounded integer histograms, and simple
// derived-rate helpers. All types are deterministic and allocation-light
// so they can live on hot simulation paths.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// Counter is a monotonically increasing event count.
type Counter uint64

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { *c += Counter(n) }

// Value returns the current count.
func (c Counter) Value() uint64 { return uint64(c) }

// Ratio returns c / denom as a float, or 0 when denom is zero.
func (c Counter) Ratio(denom Counter) float64 {
	if denom == 0 {
		return 0
	}
	return float64(c) / float64(denom)
}

// Histogram is a bounded histogram over the integers [1, N]; values above
// N accumulate in the final bucket, matching the paper's Stream Length
// Histogram convention where the rightmost bar is "length >= n_s".
type Histogram struct {
	buckets []uint64
	total   uint64
}

// NewHistogram returns a histogram with n buckets covering values 1..n.
func NewHistogram(n int) *Histogram {
	if n < 1 {
		panic(fmt.Sprintf("stats: histogram needs at least 1 bucket, got %d", n))
	}
	return &Histogram{buckets: make([]uint64, n)}
}

// Buckets returns the number of buckets.
func (h *Histogram) Buckets() int { return len(h.buckets) }

// Observe records one occurrence of value v (v < 1 is clamped to 1,
// v > N to N).
//
//asd:hotpath
func (h *Histogram) Observe(v int) { h.ObserveN(v, 1) }

// ObserveN records n occurrences of value v.
//
//asd:hotpath
func (h *Histogram) ObserveN(v int, n uint64) {
	if v < 1 {
		v = 1
	}
	if v > len(h.buckets) {
		v = len(h.buckets)
	}
	h.buckets[v-1] += n
	h.total += n
}

// Count returns the number of observations of value v.
func (h *Histogram) Count(v int) uint64 {
	if v < 1 || v > len(h.buckets) {
		return 0
	}
	return h.buckets[v-1]
}

// Total returns the number of observations.
func (h *Histogram) Total() uint64 { return h.total }

// Frac returns the fraction of observations equal to v.
func (h *Histogram) Frac(v int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Count(v)) / float64(h.total)
}

// Reset zeroes all buckets.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i] = 0
	}
	h.total = 0
}

// Clone returns a deep copy.
func (h *Histogram) Clone() *Histogram {
	c := NewHistogram(len(h.buckets))
	copy(c.buckets, h.buckets)
	c.total = h.total
	return c
}

// Fractions returns the per-bucket fractions as a slice indexed by value-1.
func (h *Histogram) Fractions() []float64 {
	out := make([]float64, len(h.buckets))
	if h.total == 0 {
		return out
	}
	for i, b := range h.buckets {
		out[i] = float64(b) / float64(h.total)
	}
	return out
}

// L1Distance returns the L1 distance between the fraction vectors of two
// histograms; used to quantify SLH-approximation accuracy (paper Fig. 16).
func (h *Histogram) L1Distance(o *Histogram) float64 {
	a, b := h.Fractions(), o.Fractions()
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	var d float64
	for i := 0; i < n; i++ {
		var av, bv float64
		if i < len(a) {
			av = a[i]
		}
		if i < len(b) {
			bv = b[i]
		}
		d += math.Abs(av - bv)
	}
	return d
}

// histogramWire is the JSON form of Histogram; total is derived from
// the buckets on decode, so only the buckets travel.
type histogramWire struct {
	Buckets []uint64 `json:"buckets"`
}

// MarshalJSON implements json.Marshaler, so results embedding
// histograms persist faithfully (the zero-value struct would otherwise
// serialize as "{}" and silently drop the data).
func (h *Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(histogramWire{Buckets: h.buckets})
}

// UnmarshalJSON implements json.Unmarshaler.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var w histogramWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if len(w.Buckets) == 0 {
		return fmt.Errorf("stats: histogram needs at least 1 bucket")
	}
	h.buckets = w.Buckets
	h.total = 0
	for _, b := range w.Buckets {
		h.total += b
	}
	return nil
}

// String renders the histogram as "v:count" pairs for debugging.
func (h *Histogram) String() string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i, b := range h.buckets {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d:%d", i+1, b)
	}
	sb.WriteByte(']')
	return sb.String()
}

// Mean returns the mean observed value (values clamped into [1,N]).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var sum float64
	for i, b := range h.buckets {
		sum += float64(i+1) * float64(b)
	}
	return sum / float64(h.total)
}

// Quantile returns the smallest bucket value v in [1, N] such that at
// least q (0..1) of all observations are <= v; 0 when the histogram is
// empty. With bucketed data this is the conservative (upper-bound)
// quantile — the true q-quantile lies at or below the returned bucket.
func (h *Histogram) Quantile(q float64) int {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	need := q * float64(h.total)
	var cum uint64
	for i, b := range h.buckets {
		cum += b
		if float64(cum) >= need && cum > 0 {
			return i + 1
		}
	}
	return len(h.buckets)
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
