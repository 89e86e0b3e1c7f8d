package workload

import (
	"errors"
	"fmt"
	"math"
)

// RNG is a small, fast, deterministic pseudo-random generator
// (splitmix64). The simulator must be reproducible bit-for-bit across
// runs and configurations, so all stochastic choices in workload
// generation flow through this type with explicit seeds.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("workload: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Dist is a discrete distribution over values 1..len(weights) with an
// optional geometric tail hanging off the last bucket (so "16+" can mean
// a real spread of long stream lengths).
type Dist struct {
	cum []float64
	// tailContinue is the per-step continuation probability once a
	// sample lands in the final bucket; 0 means the final bucket is
	// exact.
	tailContinue float64
}

// NewDist builds a distribution from non-negative weights (they need not
// sum to one). tailContinue extends samples beyond the final bucket
// geometrically: a sample that lands in bucket N keeps incrementing with
// probability tailContinue per step.
func NewDist(weights []float64, tailContinue float64) *Dist {
	sum, err := checkDist(weights, tailContinue)
	if err != nil {
		panic("workload: " + err.Error())
	}
	cum := make([]float64, len(weights))
	var acc float64
	for i, w := range weights {
		acc += w / sum
		cum[i] = acc
	}
	cum[len(cum)-1] = 1 // guard against rounding
	return &Dist{cum: cum, tailContinue: tailContinue}
}

// checkDist returns the weights' sum, or why weights and tailContinue
// make no distribution: no weights, a tailContinue outside [0,1), a
// weight that is negative, NaN or infinite, or weights whose sum is zero
// or overflows. NewDist panics on the error and Profile.Validate returns
// it. Each test is written so that NaN fails it.
func checkDist(weights []float64, tailContinue float64) (float64, error) {
	if len(weights) == 0 {
		return 0, errors.New("empty distribution")
	}
	if !(tailContinue >= 0 && tailContinue < 1) {
		return 0, fmt.Errorf("tailContinue %v outside [0,1)", tailContinue)
	}
	var sum float64
	for _, w := range weights {
		if !(w >= 0 && w <= math.MaxFloat64) {
			return 0, fmt.Errorf("weight %v is not finite and non-negative", w)
		}
		sum += w
	}
	if !(sum > 0 && sum <= math.MaxFloat64) {
		return 0, fmt.Errorf("weights sum to %v, not to a positive finite total", sum)
	}
	return sum, nil
}

// Sample draws a value >= 1.
func (d *Dist) Sample(r *RNG) int {
	u := r.Float64()
	// Linear scan: distributions here have <= 16 buckets and the scan is
	// branch-predictable; binary search buys nothing.
	v := len(d.cum)
	for i, c := range d.cum {
		if u < c {
			v = i + 1
			break
		}
	}
	if v == len(d.cum) && d.tailContinue > 0 {
		for r.Bool(d.tailContinue) {
			v++
			if v > 1<<12 {
				break // safety bound; streams this long are indistinguishable
			}
		}
	}
	return v
}

// Mean returns the expected value of the distribution (tail included).
func (d *Dist) Mean() float64 {
	var mean, prev float64
	for i, c := range d.cum {
		p := c - prev
		prev = c
		v := float64(i + 1)
		if i == len(d.cum)-1 && d.tailContinue > 0 {
			// Geometric continuation adds tc/(1-tc) expected steps.
			v += d.tailContinue / (1 - d.tailContinue)
		}
		mean += p * v
	}
	return mean
}
