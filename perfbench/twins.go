package main

import (
	"errors"
	"fmt"
	"time"

	"asdsim/internal/obs"
	"asdsim/internal/obs/flightrec"
	"asdsim/internal/obs/prov"
	"asdsim/internal/sim"
)

// recorders is the instrumentation `asdsim -obs -flightrec -explain`
// attaches to a run: probe bus with sampler, depth table and flight
// recorder, plus the provenance recorder.
type recorders struct {
	flight *flightrec.Recorder
	prov   *prov.Recorder
}

// instrument attaches a fresh set of recorders to cfg.
func instrument(cfg *sim.Config, label string) *recorders {
	r := &recorders{
		flight: flightrec.New(flightrec.Options{Label: label,
			Detectors: flightrec.DefaultDetectors(cfg.MC.CAQCap)}),
		prov: prov.New(prov.Options{TraceID: label}),
	}
	cfg.Obs = obs.NewBus(obs.NewSampler(obs.DefaultSampleInterval), &obs.DepthStats{}, r.flight)
	cfg.Prov = r.prov
	return r
}

// finish does what asdsim does once an instrumented run ends: close the
// flight recorder, snapshot the provenance stream and explain the last
// explainable prefetch. It returns the number of provenance records.
func (r *recorders) finish() (int, error) {
	r.flight.Finish()
	st := r.prov.Stream()
	if line, cycle, ok := prov.LastExplainable(st); ok {
		if _, err := prov.Explain(st, line, cycle); err != nil {
			return 0, fmt.Errorf("explain: %w", err)
		}
	}
	return len(st.Records), nil
}

// twinResult is what an instrumented/bare twin comparison needs from
// one run.
type twinResult struct {
	cycles, instr uint64
}

// obsTwins runs each cell instrumented and bare, back to back with the
// order alternating, rounds times. It sets obs_overhead_x to the median
// over rounds of the round's host time instrumented over bare, so one
// round that a GC cycle or a host hiccup lands on cannot move it, and
// obs.finish_ms and obs.prov_records_per_cell to means over all runs.
// An instrumented run whose cycles or instructions differ from its
// bare twin fails its check. The instrumented runner attaches its
// recorders itself and returns their finish time in ms and provenance
// record count alongside its result.
func (b *bench) obsTwins(cells []cell, rounds int,
	instrumented func(c cell) (twinResult, float64, int, error),
	bare func(c cell) (twinResult, error)) {
	var ratios []float64
	var finish float64
	var records, n int
	for r := 0; r < rounds; r++ {
		var ti, tb float64
		for i, c := range cells {
			var ri, rb twinResult
			var dti, dtb, fin float64
			var recs int
			var erri, errb error
			runI := func() {
				t := time.Now()
				ri, fin, recs, erri = instrumented(c)
				dti = time.Since(t).Seconds()
			}
			runB := func() {
				t := time.Now()
				rb, errb = bare(c)
				dtb = time.Since(t).Seconds()
			}
			if (r+i)%2 == 0 {
				runI()
				runB()
			} else {
				runB()
				runI()
			}
			b.attempt(2)
			switch {
			case erri != nil || errb != nil:
				b.fail("%s twins: %v", c.label(), errors.Join(erri, errb))
				continue
			case ri != rb:
				b.fail("%s: instrumented run %+v differs from bare twin %+v", c.label(), ri, rb)
				continue
			}
			ti += dti
			tb += dtb
			finish += fin
			records += recs
			n++
		}
		if tb > 0 {
			ratios = append(ratios, ti/tb)
		}
	}
	if n == 0 {
		return
	}
	b.set("obs_overhead_x", median(ratios))
	b.set("obs.finish_ms", finish/float64(n))
	b.set("obs.prov_records_per_cell", float64(records)/float64(n))
}
