// Command asdsim runs one benchmark under one or more prefetching
// configurations and prints detailed statistics.
//
// Usage:
//
//	asdsim [-bench name] [-budget N] [-threads N] [-modes NP,PS,MS,PMS] [-engine asd|next-line|p5-style|ghb] [-v]
//	       [-sample] [-sample-period N] [-sample-warmup N] [-sample-detail N] [-sample-funcwarm N] [-sample-confidence C]
//	       [-obs] [-obs-interval N] [-obs-csv file] [-obs-jsonl file] [-trace file]
//	       [-flightrec prefix] [-explain last|addr[@cycle]] [-cpuprofile file] [-memprofile file]
//
// -sample switches to SMARTS-style sampled simulation: short detailed
// windows measure CPI, the gaps between them run under a functional
// model, and the output is a CPI confidence interval plus extrapolated
// IPC/cycles instead of exact statistics (-v is ignored).
//
// Observability: -obs attaches the probe bus and prints per-mode
// time-series and per-depth prefetch summaries; -obs-csv / -obs-jsonl
// write the windowed samples as CSV or JSON Lines; -trace writes a
// Chrome trace-event JSON file (open it in chrome://tracing or
// https://ui.perfetto.dev) with one process group per simulated mode.
// -flightrec arms the anomaly flight recorder: when a detector trips
// (CAQ saturation, late-prefetch spike, bank-conflict storm, prefetch
// waste), the mode is run again up to its last trigger with a capturing
// recorder alone on its bus, and each trigger's triage bundle is written
// to <prefix>-<mode>-bN.json with a human-readable report beside it as
// .txt.
// -explain records per-prefetch provenance and, after each mode's run,
// prints the causal lineage tree (epoch roll → stream → decision →
// nomination → issue → install → outcome) for the chosen prefetch:
// "last" picks the most recent PB hit, a byte address pins one line,
// and an optional @cycle picks the generation active at that cycle.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"asdsim/internal/mem"
	"asdsim/internal/obs"
	"asdsim/internal/obs/flightrec"
	"asdsim/internal/obs/prov"
	"asdsim/internal/sim"
	"asdsim/internal/workload"
)

func main() { os.Exit(run(os.Args[1:])) }

// run holds the real main body so deferred profile/file teardown runs
// before the process exits (os.Exit skips defers).
func run(args []string) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	bench := fs.String("bench", "GemsFDTD", "benchmark name (see -list)")
	budget := fs.Uint64("budget", 1_000_000, "instructions per thread")
	threads := fs.Int("threads", 1, "SMT threads (1 or 2)")
	modes := fs.String("modes", "NP,PS,MS,PMS", "comma-separated configurations")
	engine := fs.String("engine", "asd", "memory-side engine: asd, next-line, p5-style, ghb")
	list := fs.Bool("list", false, "list benchmarks and exit")
	verbose := fs.Bool("v", false, "print extended statistics")
	obsOn := fs.Bool("obs", false, "attach the probe bus and print time-series/per-depth summaries")
	obsInterval := fs.Uint64("obs-interval", obs.DefaultSampleInterval, "sampler window width in CPU cycles")
	obsCSV := fs.String("obs-csv", "", "write windowed samples as CSV to `file` (implies -obs)")
	obsJSONL := fs.String("obs-jsonl", "", "write windowed samples as JSON Lines to `file` (implies -obs)")
	sample := fs.Bool("sample", false, "SMARTS-style sampled simulation: CPI estimate with confidence interval instead of an exact run")
	samplePeriod := fs.Uint64("sample-period", 0, "sampling period in instructions (0 = default)")
	sampleWarmup := fs.Uint64("sample-warmup", 0, "detailed warmup instructions per window (0 = default)")
	sampleDetail := fs.Uint64("sample-detail", 0, "measured detailed instructions per window (0 = default)")
	sampleFuncWarm := fs.Uint64("sample-funcwarm", 0, "bound functional warming to the last N instructions before each window (0 = warm the whole gap)")
	sampleConf := fs.Float64("sample-confidence", 0, "confidence level for the CPI interval: 0.90, 0.95 or 0.99 (0 = default)")
	flightPrefix := fs.String("flightrec", "", "arm the anomaly flight recorder; triage bundles go to `prefix`-<mode>-bN.json/.txt")
	explainArg := fs.String("explain", "", "record prefetch provenance and print one lineage tree per mode: 'last' or a byte address with optional @cycle (e.g. 0x1a2b00@50000)")
	tracePath := fs.String("trace", "", "write Chrome trace-event JSON to `file` (implies -obs)")
	cpuprofile := fs.String("cpuprofile", "", "write CPU profile to `file`")
	memprofile := fs.String("memprofile", "", "write heap profile to `file`")
	fs.Parse(args)

	if *list {
		for _, n := range workload.Names() {
			p, _ := workload.ByName(n)
			fmt.Printf("%-12s %s\n", n, p.Suite)
		}
		return 0
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	observing := *obsOn || *obsCSV != "" || *obsJSONL != "" || *tracePath != ""
	var tracer *obs.TraceBuilder
	if *tracePath != "" {
		tracer = obs.NewTraceBuilder()
	}
	var csvFile *os.File
	if *obsCSV != "" {
		f, err := os.Create(*obsCSV)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		csvFile = f
		if err := obs.CSVHeader(csvFile); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	var jsonlFile *os.File
	if *obsJSONL != "" {
		f, err := os.Create(*obsJSONL)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		jsonlFile = f
	}

	var explLine mem.Line
	var explCycle uint64
	var explLast bool
	if *explainArg != "" {
		if *sample {
			fmt.Fprintln(os.Stderr, "-explain is incompatible with -sample (sampled runs keep no detailed provenance)")
			return 2
		}
		var err error
		explLine, explCycle, explLast, err = parseExplainTarget(*explainArg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}

	exit := 0
	var baseline uint64
	batch := sim.NewBatch() // every mode replays one materialized trace
	for _, ms := range strings.Split(*modes, ",") {
		mode, err := sim.ParseMode(ms)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		cfg := sim.Default(mode, *budget)
		cfg.Threads = *threads
		cfg.Engine, err = sim.ParseEngine(*engine)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}

		sc := sim.SampleConfig{
			Period: *samplePeriod, Warmup: *sampleWarmup, Detail: *sampleDetail,
			FuncWarmup: *sampleFuncWarm, Confidence: *sampleConf,
		}
		// rerun runs the mode again with sink alone on its bus, so a
		// replay feeds none of the live run's recorders.
		rerun := func(ctx context.Context, sink obs.Sink) error {
			c := cfg
			c.Obs = obs.NewBus(sink)
			var err error
			if *sample {
				_, err = batch.RunSampled(ctx, *bench, c, sc)
			} else {
				_, err = batch.RunContext(ctx, *bench, c)
			}
			return err
		}

		var sampler *obs.Sampler
		var depths *obs.DepthStats
		var recorder *flightrec.Recorder
		var flightOpts flightrec.Options
		live := cfg
		if observing || *flightPrefix != "" {
			bus := obs.NewBus()
			if observing {
				sampler = obs.NewSampler(*obsInterval)
				depths = &obs.DepthStats{}
				bus.Attach(sampler)
				bus.Attach(depths)
			}
			if tracer != nil {
				tracer.StartProcess(fmt.Sprintf("%s %s", *bench, mode))
				bus.Attach(tracer)
			}
			if *flightPrefix != "" {
				flightOpts = flightrec.Options{
					Label:     fmt.Sprintf("%s/%s", *bench, mode),
					Detectors: flightrec.DefaultDetectors(cfg.MC.CAQCap),
				}
				recorder = flightrec.New(flightOpts)
				bus.Attach(recorder)
			}
			live.Obs = bus
		}
		var provRec *prov.Recorder
		if *explainArg != "" {
			provRec = prov.New(prov.Options{TraceID: fmt.Sprintf("%s/%s", *bench, mode)})
			live.Prov = provRec
		}

		var res sim.Result
		if *sample {
			sres, err := batch.RunSampled(context.Background(), *bench, live, sc)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			if baseline == 0 {
				baseline = sres.EstCycles
			}
			gain := 100 * (float64(baseline)/float64(sres.EstCycles) - 1)
			fmt.Printf("%-4s sampled CPI=%.4f ±%.4f (%d%% CI %.4f-%.4f) windows=%d estIPC=%.3f estCycles=%d gain-vs-first=%+.1f%% wall=%.3fs\n",
				mode, sres.CPIMean, sres.CPIHalfWidth, int(sres.Confidence*100+0.5),
				sres.CILo, sres.CIHi, sres.Windows, sres.EstIPC, sres.EstCycles, gain, sres.WallSeconds)
		} else {
			var err error
			res, err = batch.Run(*bench, live)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			if baseline == 0 {
				baseline = res.Cycles
			}
			gain := 100 * (float64(baseline)/float64(res.Cycles) - 1)
			fmt.Printf("%-4s cycles=%-10d IPC=%.3f gain-vs-first=%+.1f%% wall=%.3fs (%.1fM cyc/s)\n",
				mode, res.Cycles, res.IPC, gain, res.WallSeconds, res.CyclesPerSec/1e6)
		}
		if *verbose && !*sample {
			fmt.Printf("     L1=%.3f L2=%.3f L3=%.3f | MC reads=%d writes=%d dramR=%d dramW=%d\n",
				res.L1HitRate, res.L2HitRate, res.L3HitRate,
				res.MC.RegularReads, res.MC.RegularWrites, res.MC.DRAMReads, res.MC.DRAMWrites)
			fmt.Printf("     pf: toLPQ=%d drops=%d toDRAM=%d | pbEntry=%d pbLate=%d merge=%d\n",
				res.MC.PrefetchesToLPQ, res.MC.LPQDrops, res.MC.PrefetchesToDRAM,
				res.MC.PBHitsEntry, res.MC.PBHitsLate, res.MC.PFMergeHits)
			fmt.Printf("     coverage=%.3f useful=%.3f delayed=%.4f psIssued=%d stall=%d\n",
				res.Coverage, res.UsefulPrefetchFrac, res.DelayedRegularFrac, res.PSIssued, res.StallCycles)
			fmt.Printf("     dram: acts=%d rowHit=%d rowMiss=%d rowConf=%d power=%.2fW energy=%.1fmJ\n",
				res.DRAM.Activations, res.DRAM.RowHits, res.DRAM.RowMisses, res.DRAM.RowConflicts,
				res.DRAM.AvgPowerWatts, res.DRAM.EnergyNJ/1e6)
			fmt.Printf("     policyEpochs=%v\n", res.PolicyEpochs)
			if res.ApproxLengths != nil {
				fmt.Printf("     trueSLH:   %v\n", res.TrueLengths)
				fmt.Printf("     approxSLH: %v\n", res.ApproxLengths)
			}
		}
		if provRec != nil {
			if err := explainRun(provRec, explLine, explCycle, explLast); err != nil {
				fmt.Fprintln(os.Stderr, err)
				exit = 1
			}
		}
		if sampler != nil {
			printObsSummary(sampler, depths)
			if csvFile != nil {
				if err := sampler.WriteCSV(csvFile, fmt.Sprintf("%s/%s", *bench, mode)); err != nil {
					fmt.Fprintln(os.Stderr, err)
					exit = 1
				}
			}
			if jsonlFile != nil {
				if err := sampler.WriteJSONL(jsonlFile, fmt.Sprintf("%s/%s", *bench, mode)); err != nil {
					fmt.Fprintln(os.Stderr, err)
					exit = 1
				}
			}
		}
		if recorder != nil {
			recorder.Finish()
			if err := dumpBundles(recorder, flightOpts, rerun, *flightPrefix, mode.String()); err != nil {
				fmt.Fprintln(os.Stderr, err)
				exit = 1
			}
		}
	}

	if tracer != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		err = tracer.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("wrote %d trace events to %s (open in chrome://tracing or ui.perfetto.dev)\n",
			tracer.Len(), *tracePath)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		runtime.GC()
		err = pprof.WriteHeapProfile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	return exit
}

// dumpBundles prints one line per trigger the live recorder rec
// reported (or a healthy note when none fired), builds their triage
// bundles by replaying the mode with rerun, and writes each as JSON plus
// a human-readable report.
func dumpBundles(rec *flightrec.Recorder, opts flightrec.Options, rerun func(context.Context, obs.Sink) error, prefix, mode string) error {
	if len(rec.Triggers()) == 0 {
		fmt.Printf("     flightrec: no anomalies\n")
		return nil
	}
	for _, tr := range rec.Triggers() {
		fmt.Printf("     flightrec: %s at window %d (cycle %d): %s\n",
			tr.Detector, tr.Window, tr.Cycle, tr.Detail)
	}
	bundles, err := flightrec.Replay(context.Background(), opts, rec.Triggers(), rerun)
	if err != nil {
		return err
	}
	for i, b := range bundles {
		base := fmt.Sprintf("%s-%s-b%d", prefix, mode, i+1)
		jf, err := os.Create(base + ".json")
		if err != nil {
			return err
		}
		err = b.WriteJSON(jf)
		if cerr := jf.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		rf, err := os.Create(base + ".txt")
		if err != nil {
			return err
		}
		err = b.WriteReport(rf)
		if cerr := rf.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("     flightrec: bundle %s.json (+.txt report)\n", base)
	}
	return nil
}

// parseExplainTarget parses the -explain value: "last", or a byte
// address (hex or decimal) with an optional @cycle suffix. The address
// is truncated to its covering cache line.
func parseExplainTarget(s string) (line mem.Line, cycle uint64, last bool, err error) {
	if s == "last" {
		return 0, 0, true, nil
	}
	addrStr, cycleStr, hasCycle := strings.Cut(s, "@")
	a, err := strconv.ParseUint(addrStr, 0, 64)
	if err != nil {
		return 0, 0, false, fmt.Errorf("bad -explain address %q: %w", addrStr, err)
	}
	if hasCycle {
		if cycle, err = strconv.ParseUint(cycleStr, 0, 64); err != nil {
			return 0, 0, false, fmt.Errorf("bad -explain cycle %q: %w", cycleStr, err)
		}
	}
	return mem.LineOf(mem.Addr(a)), cycle, false, nil
}

// explainRun resolves the -explain target against the mode's recorded
// provenance stream and prints the lineage tree, indented to match the
// other per-mode detail blocks.
func explainRun(rec *prov.Recorder, line mem.Line, cycle uint64, last bool) error {
	st := rec.Stream()
	if last {
		var ok bool
		if line, cycle, ok = prov.LastExplainable(st); !ok {
			return fmt.Errorf("provenance: no explainable prefetch recorded (%d records)", len(st.Records))
		}
	}
	lin, err := prov.Explain(st, line, cycle)
	if err != nil {
		return fmt.Errorf("provenance: %w", err)
	}
	// Buffer the tree so multi-write lines land in one Write each.
	var b strings.Builder
	lin.WriteTree(&b)
	prefixWriter{}.Write([]byte(b.String()))
	return nil
}

// printObsSummary condenses the sampler's windows into a small table:
// CAQ occupancy over time (coarse sparkline over up to 60 buckets) and
// the per-depth prefetch breakdown.
func printObsSummary(s *obs.Sampler, d *obs.DepthStats) {
	samples := s.Samples()
	if len(samples) == 0 {
		return
	}
	var caqMax int64
	for _, sm := range samples {
		if sm.CAQMax > caqMax {
			caqMax = sm.CAQMax
		}
	}
	fmt.Printf("     obs: %d windows x %d cycles, caq max=%d, spark=%s\n",
		len(samples), s.Interval, caqMax, sparkline(samples, 60))
	if s.Dropped > 0 {
		fmt.Printf("     obs: %d events predate the retained ring\n", s.Dropped)
	}
	if d.MaxDepthSeen() > 0 {
		d.Fprint(prefixWriter{})
	}
}

// sparkline renders mean CAQ occupancy across the run in w buckets.
func sparkline(samples []obs.Sample, w int) string {
	if len(samples) < w {
		w = len(samples)
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	var peak float64
	means := make([]float64, w)
	for i := 0; i < w; i++ {
		lo, hi := i*len(samples)/w, (i+1)*len(samples)/w
		if hi == lo {
			hi = lo + 1
		}
		var sum float64
		for _, sm := range samples[lo:hi] {
			sum += sm.CAQMean
		}
		means[i] = sum / float64(hi-lo)
		if means[i] > peak {
			peak = means[i]
		}
	}
	out := make([]rune, w)
	for i, m := range means {
		idx := 0
		if peak > 0 {
			idx = int(m / peak * float64(len(levels)-1))
		}
		out[i] = levels[idx]
	}
	return string(out)
}

// prefixWriter indents DepthStats.Fprint output to match the -v blocks.
type prefixWriter struct{}

func (prefixWriter) Write(p []byte) (int, error) {
	lines := strings.Split(strings.TrimRight(string(p), "\n"), "\n")
	for _, l := range lines {
		fmt.Printf("     %s\n", l)
	}
	return len(p), nil
}
