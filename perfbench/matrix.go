package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"asdsim"
	"asdsim/internal/sim"
)

// runMatrixExact: all 120 fig5-7 cells exactly through sim.Batch.
func runMatrixExact(b *bench) error {
	ctx := context.Background()
	cells := matrixCells(b.spec.SimSeed, b.wl.Budget)
	var batch *sim.Batch

	// Set-up: a new Batch with every benchmark's trace materialized. A
	// Batch fills its trace cache on a cell's first run; a cancelled
	// context makes that run stop right after building its runner.
	// Later repetitions replace the batch between passes.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	setup := func() error {
		return b.setupRep(func() { batch = nil }, func() error {
			batch = asdsim.NewBatch()
			for i := 0; i < len(cells); i += len(fourModes) {
				_, err := batch.RunContext(cancelled, cells[i].bench, cells[i].cfg)
				if !errors.Is(err, context.Canceled) {
					return fmt.Errorf("warm %s: %v", cells[i].label(), err)
				}
			}
			return nil
		})
	}
	if err := setup(); err != nil {
		return err
	}
	runtime.GC()
	resetPeakRSS(os.Getpid())

	exact := make([]sim.Result, len(cells))
	done := make([]bool, len(cells))
	runCell := func(i int) (uint64, error) {
		c := cells[i]
		id := b.spans.begin("cell", c.label(), 0)
		defer b.spans.end(id)
		sid := b.spans.begin("sim.Batch.Run", c.label(), id)
		r, err := batch.RunContext(ctx, c.bench, c.cfg)
		b.spans.end(sid)
		if err != nil {
			return 0, err
		}
		if done[i] && !bytes.Equal(resultJSON(&r), resultJSON(&exact[i])) {
			return 0, errors.New("differs from the previous pass")
		}
		exact[i], done[i] = r, true
		return r.Instructions, nil
	}
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
			for _, i := range b.rng.Perm(len(cells)) {
				t := time.Now()
				instr, err := runCell(i)
				raw := time.Since(t).Seconds()
				probe := b.cal.probe()
				b.attempt(1)
				if err != nil {
					b.fail("%s: %v", cells[i].label(), err)
					continue
				}
				us = append(us, unit{label: cells[i].label(), raw: raw, instr: instr, cells: 1, probe: probe})
			}
		}
		return us, nil
	})
	if err != nil {
		return err
	}
	if err := b.setHostTimes(plain); err != nil {
		return err
	}
	b.setSetup()
	b.setCellTimes(traced, plain)
	if err := b.setPeakRSS("/proc/self/status"); err != nil {
		return err
	}
	for i := range done {
		if !done[i] {
			return fmt.Errorf("%s never completed: %w", cells[i].label(), errChecks)
		}
	}

	// Accuracy, outside the timed section. The held-out cells, every PS
	// and PMS cell, also run through Batch.RunSampled for the sampled
	// error; each must report a window and at least its budget.
	out := map[string]cellOutcome{}
	for i, c := range cells {
		out[c.label()] = exactOutcome(&exact[i])
	}
	samp := map[string]cellOutcome{}
	sc := sim.DefaultSampleConfig()
	for _, c := range cells {
		if m := c.cfg.Mode; m != sim.PS && m != sim.PMS {
			continue
		}
		b.attempt(1)
		r, err := batch.RunSampled(ctx, c.bench, c.cfg, sc)
		switch {
		case err != nil:
			b.fail("%s sampled: %v", c.label(), err)
			continue
		case r.Windows < 1 || r.Instructions < c.cfg.InstrBudget:
			b.fail("%s sampled: %d windows, %d instructions for a %d budget", c.label(), r.Windows, r.Instructions, c.cfg.InstrBudget)
			continue
		}
		samp[c.label()] = cellOutcome{cycles: r.EstCycles}
	}
	if err := b.setAccuracy(out, out, out, samp); err != nil {
		return err
	}
	b.setCounters(exact)

	// Instrumentation cost on this path, and its output check.
	b.obsTwins(focusCells(b.spec.SimSeed, b.wl.Budget, sim.PMS), 9,
		func(c cell) (twinResult, float64, int, error) {
			rec := instrument(&c.cfg, c.label())
			r, err := batch.RunContext(ctx, c.bench, c.cfg)
			if err != nil {
				return twinResult{}, 0, 0, err
			}
			t := time.Now()
			n, err := rec.finish()
			return twinResult{r.Cycles, r.Instructions}, float64(time.Since(t).Nanoseconds()) / 1e6, n, err
		},
		func(c cell) (twinResult, error) {
			r, err := batch.RunContext(ctx, c.bench, c.cfg)
			return twinResult{r.Cycles, r.Instructions}, err
		})

	// Output check: seed-chosen cells re-run through the public live
	// path must match the batch bit for bit.
	for _, i := range b.rng.Perm(len(cells))[:4] {
		c := cells[i]
		b.attempt(1)
		r, err := asdsim.Run(c.bench, c.cfg)
		if err != nil || !bytes.Equal(resultJSON(&r), resultJSON(&exact[i])) {
			b.fail("%s: asdsim.Run result differs from the batch's (%v)", c.label(), err)
		}
	}

	b.noFarm()
	if b.trace {
		return b.materializeMS(b.spec.SimSeed, b.wl.Budget)
	}
	return nil
}
