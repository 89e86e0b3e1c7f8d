package main

import (
	"slices"
	"time"
)

// The host probe is a frozen kernel shaped like the simulator's own
// inner loop: random lookups in a 2 MiB, 8-way set-associative tag
// table, scanning a set for a tag and inserting it on a miss, about
// 2 ms on the reference host. It runs only while the program under
// test is idle (between cells or jobs), and its time next to a piece of
// work is what every host-time metric is calibrated by: the host's core
// speed drifts in phases of seconds to minutes, and this kernel slows
// with it. Of the candidates tried on the reference host (random
// read-modify-write over 1, 4 and 32 MiB, a pointer chase, pure
// compute, a 256 KiB table), it tracked the matrix cells' time best.
//
// Do not edit the constants or probeKernel: the calibration reference
// (spec.json reference_probe_ms) and the pinned checksum in
// probe_test.go are only valid for this exact kernel.
const (
	probeSets  = 1 << 15 // 32768 sets x 8 ways x 8 bytes = 2 MiB
	probeWays  = 8
	probeIters = 80_000
)

// probeKernel runs the frozen kernel over tab and returns a checksum.
// Every call walks the same lookup sequence, so from the second call
// on the work per call is fixed.
func probeKernel(tab []uint64) uint64 {
	x := uint64(7)
	var sum uint64
	for i := 0; i < probeIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		set := (x & (probeSets - 1)) * probeWays
		tag := x >> 40
		hit := false
		for w := uint64(0); w < probeWays; w++ {
			if tab[set+w] == tag {
				hit = true
				sum += tag
				break
			}
		}
		if !hit {
			tab[set+(x>>20)&(probeWays-1)] = tag
		}
	}
	return sum
}

// newProbeBuf returns the kernel's table in its fixed initial state.
func newProbeBuf() []uint64 { return make([]uint64, probeSets*probeWays) }

// calibrator times the probe and turns raw host seconds into
// reference-host seconds.
type calibrator struct {
	refMS float64
	buf   []uint64
	sink  uint64
	// readings holds every probe time in ms, in the order taken.
	readings []float64
}

func newCalibrator(refMS float64) *calibrator {
	c := &calibrator{refMS: refMS, buf: newProbeBuf()}
	probeKernel(c.buf) // fill the table before the first reading
	return c
}

// probe runs the kernel once and returns its index in readings.
func (c *calibrator) probe() int {
	t := time.Now()
	c.sink += probeKernel(c.buf)
	c.readings = append(c.readings, float64(time.Since(t).Nanoseconds())/1e6)
	return len(c.readings) - 1
}

// factor is the calibration factor for work whose neighbouring probe
// readings are readings[lo:hi]: reference probe time over their median.
// Multiplying a raw host time by it gives reference-host time.
func (c *calibrator) factor(lo, hi int) float64 {
	return c.refMS / median(c.readings[lo:hi])
}

// window is the factor for the unit whose probe is readings[i]: the
// median over the w readings either side, so a single disturbed probe
// cannot move a unit's calibration.
func (c *calibrator) window(i, w int) float64 {
	return c.factor(max(0, i-w), min(len(c.readings), i+w+1))
}

// medianMS is the median of every reading taken so far.
func (c *calibrator) medianMS() float64 { return median(c.readings) }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
