package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"

	"asdsim"
	"asdsim/internal/sim"
)

// cell is one (benchmark, configuration) simulator run.
type cell struct {
	bench string
	cfg   sim.Config
}

func (c cell) label() string { return c.bench + "/" + c.cfg.Mode.String() }

var fourModes = []sim.Mode{sim.NP, sim.PS, sim.MS, sim.PMS}

// paperSuites holds the paper's suite averages that the accuracy
// metrics compare against (EXPERIMENTS.md): Figs. 5-7 gains (PMS vs NP,
// MS vs NP, PMS vs PS) and Figs. 8-10 PMS-vs-PS DRAM power increase and
// energy reduction, all in percent.
var paperSuites = []struct {
	suite         asdsim.Suite
	gains         [3]float64
	power, energy float64
}{
	{asdsim.SPEC2006FP, [3]float64{32.7, 14.6, 10.2}, 2.7, 9.8},
	{asdsim.NAS, [3]float64{24.2, 11.7, 8.1}, 1.6, 7.9},
	{asdsim.Commercial, [3]float64{15.1, 9.3, 8.4}, 2.8, 8.2},
}

// matrixCells returns every suite benchmark under NP/PS/MS/PMS at the
// given seed and budget, benchmark-major: the fig5-7 matrix.
func matrixCells(seed, budget uint64) []cell {
	var cells []cell
	for _, s := range paperSuites {
		for _, name := range asdsim.SuiteBenchmarks(s.suite) {
			for _, m := range fourModes {
				cfg := sim.Default(m, budget)
				cfg.Seed = seed
				cells = append(cells, cell{bench: name, cfg: cfg})
			}
		}
	}
	return cells
}

// focusCells returns the paper's eight focus benchmarks in one mode.
func focusCells(seed, budget uint64, mode sim.Mode) []cell {
	var cells []cell
	for _, name := range asdsim.FocusBenchmarks() {
		cfg := sim.Default(mode, budget)
		cfg.Seed = seed
		cells = append(cells, cell{bench: name, cfg: cfg})
	}
	return cells
}

// cellOutcome is what the accuracy metrics need from one cell.
type cellOutcome struct {
	cycles        uint64
	energy, power float64 // DRAM nJ and W; exact runs only
}

// paperGap is the mean |measured - paper| over the nine Figs. 5-7
// suite-average gains, in percentage points. out is keyed by cell label.
func paperGap(out map[string]cellOutcome) (float64, error) {
	var sum float64
	for _, s := range paperSuites {
		var g [3]float64
		names := asdsim.SuiteBenchmarks(s.suite)
		for _, name := range names {
			c := func(m sim.Mode) (float64, error) {
				o, ok := out[name+"/"+m.String()]
				if !ok || o.cycles == 0 {
					return 0, fmt.Errorf("accuracy: no result for %s/%v", name, m)
				}
				return float64(o.cycles), nil
			}
			np, err1 := c(sim.NP)
			ps, err2 := c(sim.PS)
			ms, err3 := c(sim.MS)
			pms, err4 := c(sim.PMS)
			if err := errors.Join(err1, err2, err3, err4); err != nil {
				return 0, err
			}
			g[0] += 100 * (np/pms - 1)
			g[1] += 100 * (np/ms - 1)
			g[2] += 100 * (ps/pms - 1)
		}
		for i := range g {
			sum += math.Abs(g[i]/float64(len(names)) - s.gains[i])
		}
	}
	return sum / 9, nil
}

// paperPowerGap is the mean |measured - paper| over the six Figs. 8-10
// PMS-vs-PS DRAM power-increase and energy-reduction suite averages.
func paperPowerGap(out map[string]cellOutcome) (float64, error) {
	var sum float64
	for _, s := range paperSuites {
		var dp, de float64
		names := asdsim.SuiteBenchmarks(s.suite)
		for _, name := range names {
			ps, ok1 := out[name+"/PS"]
			pms, ok2 := out[name+"/PMS"]
			if !ok1 || !ok2 || ps.power == 0 || ps.energy == 0 {
				return 0, fmt.Errorf("accuracy: no DRAM power for %s", name)
			}
			dp += 100 * (pms.power/ps.power - 1)
			de += 100 * (1 - pms.energy/ps.energy)
		}
		n := float64(len(names))
		sum += math.Abs(dp/n-s.power) + math.Abs(de/n-s.energy)
	}
	return sum / 6, nil
}

// sampledErr is the mean |sampled - exact| / exact cycles in percent
// over the sampled cells, summed in key order so it repeats exactly.
func sampledErr(exact, sampled map[string]cellOutcome) (float64, error) {
	var sum float64
	var n int
	keys := make([]string, 0, len(sampled))
	for k := range sampled {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		s := sampled[k]
		e, ok := exact[k]
		if !ok || e.cycles == 0 {
			return 0, fmt.Errorf("accuracy: no exact result for %s", k)
		}
		sum += math.Abs(float64(s.cycles)-float64(e.cycles)) / float64(e.cycles)
		n++
	}
	if n == 0 {
		return 0, errors.New("accuracy: no sampled cells")
	}
	return 100 * sum / float64(n), nil
}

func exactOutcome(r *sim.Result) cellOutcome {
	return cellOutcome{cycles: r.Cycles, energy: r.DRAM.EnergyNJ, power: r.DRAM.AvgPowerWatts}
}

// setAccuracy sets the three accuracy metrics.
func (b *bench) setAccuracy(gains, power, exact, sampled map[string]cellOutcome) error {
	gap, err := paperGap(gains)
	if err != nil {
		return err
	}
	pgap, err := paperPowerGap(power)
	if err != nil {
		return err
	}
	serr, err := sampledErr(exact, sampled)
	if err != nil {
		return err
	}
	b.set("paper_gap_pp", gap)
	b.set("paper_power_gap_pp", pgap)
	b.set("sampled_err_pct", serr)
	return nil
}

// setCounters sets the simulated per-layer counters, summed or averaged
// over one pass of exact results. They repeat exactly for a given
// program, so any change to them is a change to the model.
func (b *bench) setCounters(results []sim.Result) {
	var instr, stall, ps, dramReads, pf, pb, drops, latSum, hits, rowAll uint64
	var l1, l2, l3, energy, useful, coverage float64
	var nMS int
	for i := range results {
		r := &results[i]
		instr += r.Instructions
		stall += r.StallCycles
		ps += r.PSIssued
		dramReads += r.MC.DRAMReads
		pf += r.MC.PrefetchesToDRAM
		pb += r.MC.PBHitsEntry + r.MC.PBHitsLate
		drops += r.MC.LPQDrops
		latSum += r.MC.ReadLatencySum
		hits += r.DRAM.RowHits
		rowAll += r.DRAM.RowHits + r.DRAM.RowMisses + r.DRAM.RowConflicts
		l1 += r.L1HitRate
		l2 += r.L2HitRate
		l3 += r.L3HitRate
		energy += r.DRAM.EnergyNJ
		if r.Mode == sim.MS || r.Mode == sim.PMS {
			useful += r.UsefulPrefetchFrac
			coverage += r.Coverage
			nMS++
		}
	}
	n := float64(len(results))
	b.set("cache.l1_hit_rate", l1/n)
	b.set("cache.l2_hit_rate", l2/n)
	b.set("cache.l3_hit_rate", l3/n)
	b.set("cpu.stall_cyc_per_instr", ratio(stall, instr))
	b.set("prefetch.ps_issued", float64(ps))
	b.set("mc.dram_reads", float64(dramReads))
	b.set("mc.prefetches_to_dram", float64(pf))
	b.set("mc.pb_hits", float64(pb))
	b.set("mc.lpq_drops", float64(drops))
	b.set("mc.read_latency_cyc", ratio(latSum, dramReads))
	b.set("mc.useful_prefetch_frac", useful/float64(max(nMS, 1)))
	b.set("mc.coverage", coverage/float64(max(nMS, 1)))
	b.set("dram.row_hit_frac", ratio(hits, rowAll))
	b.set("dram.energy_nj", energy)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// resultJSON is a Result's serialized form, which is what the farm
// stores and what bit-identity is judged on.
func resultJSON(r *sim.Result) []byte {
	data, err := json.Marshal(r)
	if err != nil {
		return []byte(err.Error())
	}
	return data
}
