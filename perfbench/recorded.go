package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"asdsim"
	"asdsim/internal/sim"
)

// runRecorded: every fig5-7 cell through the public live-generator
// path asdsim.Run with the recorders `asdsim -obs -flightrec -explain`
// attaches, each interleaved with the same cell run bare.
func runRecorded(b *bench) error {
	cells := matrixCells(b.spec.SimSeed, b.wl.Budget)

	// instrumented runs c with fresh recorders and finishes them; it
	// returns the recorders' finish time and provenance record count.
	instrumented := func(c cell, parent int) (sim.Result, float64, int, error) {
		rec := instrument(&c.cfg, c.label())
		id := b.spans.begin("asdsim.Run", c.label(), parent)
		r, err := asdsim.Run(c.bench, c.cfg)
		b.spans.end(id)
		if err != nil {
			return r, 0, 0, err
		}
		id = b.spans.begin("obs.finish", c.label(), parent)
		t := time.Now()
		n, err := rec.finish()
		fin := float64(time.Since(t).Nanoseconds()) / 1e6
		b.spans.end(id)
		return r, fin, n, err
	}

	// Set-up: the warm-up cell that fills the process's lazy state; the
	// later repetitions run it again between passes.
	warm := cell{bench: "GemsFDTD", cfg: sim.Default(sim.PMS, b.wl.Budget)}
	warm.cfg.Seed = b.spec.SimSeed
	setup := func() error {
		return b.setupRep(nil, func() error {
			_, _, _, err := instrumented(warm, 0)
			return err
		})
	}
	if err := setup(); err != nil {
		return err
	}
	runtime.GC()
	resetPeakRSS(os.Getpid())

	bare := make([]sim.Result, len(cells))
	done := make([]bool, len(cells))
	var finish float64
	var records, finished int
	total, pass := b.units(), 0
	plain, traced, err := b.measure(total, 1, &selfProfiler{}, func(passes int) ([]unit, error) {
		var us []unit
		for p := 0; p < passes; p++ {
			for b.setupDue(pass, total) {
				if err := setup(); err != nil {
					return nil, err
				}
			}
			pass++
			for k, i := range b.rng.Perm(len(cells)) {
				c := cells[i]
				pair := b.spans.begin("pair", c.label(), 0)
				var ri, rb sim.Result
				var ti, tb, fin float64
				var n int
				var erri, errb error
				runI := func() {
					t := time.Now()
					ri, fin, n, erri = instrumented(c, pair)
					ti = time.Since(t).Seconds()
				}
				runB := func() {
					id := b.spans.begin("asdsim.Run.bare", c.label(), pair)
					t := time.Now()
					rb, errb = asdsim.Run(c.bench, c.cfg)
					tb = time.Since(t).Seconds()
					b.spans.end(id)
				}
				if k%2 == 0 {
					runI()
					runB()
				} else {
					runB()
					runI()
				}
				b.spans.end(pair)
				probe := b.cal.probe()
				b.attempt(2)
				switch {
				case erri != nil || errb != nil:
					b.fail("%s: %v", c.label(), errors.Join(erri, errb))
					continue
				case ri.Cycles != rb.Cycles || ri.Instructions != rb.Instructions:
					b.fail("%s: instrumented run %d cycles / %d instructions, bare twin %d / %d",
						c.label(), ri.Cycles, ri.Instructions, rb.Cycles, rb.Instructions)
					continue
				case done[i] && rb.Cycles != bare[i].Cycles:
					b.fail("%s: %d cycles, %d on the previous pass", c.label(), rb.Cycles, bare[i].Cycles)
					continue
				}
				bare[i], done[i] = rb, true
				finish += fin
				records += n
				finished++
				us = append(us, unit{label: c.label(), raw: ti, instr: ri.Instructions, cells: 2, probe: probe, twin: tb})
			}
		}
		return us, nil
	})
	if err != nil {
		return err
	}
	for i := range done {
		if !done[i] {
			return fmt.Errorf("%s never completed: %w", cells[i].label(), errChecks)
		}
	}
	if err := b.setHostTimes(plain); err != nil {
		return err
	}
	b.setSetup()
	var ti, tb float64
	for _, u := range plain {
		ti += u.raw
		tb += u.twin
	}
	b.set("obs_overhead_x", ti/tb)
	b.set("obs.finish_ms", finish/float64(finished))
	b.set("obs.prov_records_per_cell", float64(records)/float64(finished))
	// The simulator's own per-cell time is the bare twins'.
	bareTimes := func(us []unit) []unit {
		out := make([]unit, len(us))
		for i, u := range us {
			out[i] = unit{raw: u.twin, probe: u.probe}
		}
		return out
	}
	b.setCellTimes(bareTimes(traced), bareTimes(plain))
	if err := b.setPeakRSS("/proc/self/status"); err != nil {
		return err
	}

	// Accuracy: the bare results for the gains and power figures; the
	// live sampled path on every PS and PMS cell for the sampled error.
	out := map[string]cellOutcome{}
	for i, c := range cells {
		out[c.label()] = exactOutcome(&bare[i])
	}
	samp := map[string]cellOutcome{}
	sc := sim.DefaultSampleConfig()
	for _, c := range cells {
		if m := c.cfg.Mode; m != sim.PS && m != sim.PMS {
			continue
		}
		b.attempt(1)
		r, err := asdsim.Sampled(c.bench, c.cfg, sc)
		if err != nil {
			b.fail("%s sampled: %v", c.label(), err)
			continue
		}
		samp[c.label()] = cellOutcome{cycles: r.EstCycles}
	}
	if err := b.setAccuracy(out, out, out, samp); err != nil {
		return err
	}
	b.setCounters(bare)
	b.noFarm()
	if b.trace {
		return b.materializeMS(b.spec.SimSeed, b.wl.Budget)
	}
	return nil
}
