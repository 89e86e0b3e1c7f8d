// Package asdsim is a from-scratch reproduction of "Memory Prefetching
// Using Adaptive Stream Detection" (Hur and Lin, MICRO 2006): a
// trace-driven simulator of a Power5+-class memory system whose memory
// controller hosts the paper's ASD prefetcher — a Stream Filter feeding
// Stream Length Histograms that probabilistically modulate stream-
// prefetch aggressiveness — together with Adaptive Scheduling of prefetch
// commands against demand traffic.
//
// The package exposes the high-level API a downstream user needs: named
// benchmark workloads (synthetic substitutes for the paper's SPEC2006fp,
// NAS, and IBM commercial traces), the four system configurations the
// paper compares (NP, PS, MS, PMS), and single-call simulation runs
// returning detailed results. The building blocks live under internal/:
// workload generators, the cache hierarchy, the DDR2 DRAM timing+power
// model, the memory controller, and the ASD engine itself.
//
// Quickstart:
//
//	res, err := asdsim.Run("GemsFDTD", asdsim.DefaultConfig(asdsim.PMS, 2_000_000))
//	if err != nil { ... }
//	fmt.Println(res.IPC, res.Coverage)
package asdsim

import (
	"context"
	"fmt"

	"asdsim/internal/sim"
	"asdsim/internal/workload"
)

// Mode selects the prefetching configuration (paper §5.2).
type Mode = sim.Mode

// The paper's four configurations.
const (
	// NP is the stripped-down Power5+ with no prefetching.
	NP = sim.NP
	// PS is processor-side prefetching only (the stock Power5+).
	PS = sim.PS
	// MS is memory-side (ASD) prefetching only.
	MS = sim.MS
	// PMS combines processor- and memory-side prefetching.
	PMS = sim.PMS
)

// EngineKind selects the memory-side prefetch engine.
type EngineKind = sim.EngineKind

// Memory-side engines: ASD plus the two Fig. 11 baselines.
const (
	EngineASD      = sim.EngineASD
	EngineNextLine = sim.EngineNextLine
	EngineP5Style  = sim.EngineP5Style
	EngineGHB      = sim.EngineGHB
)

// Suite identifies one of the paper's three benchmark suites.
type Suite = workload.Suite

// The paper's suites (§4.1).
const (
	SPEC2006FP = workload.SPEC2006FP
	NAS        = workload.NAS
	Commercial = workload.Commercial
)

// Config is a full system configuration; construct with DefaultConfig
// and override fields as needed.
type Config = sim.Config

// Result is the outcome of one simulation run.
type Result = sim.Result

// DefaultConfig returns the paper's evaluated system in the given mode
// with a per-thread instruction budget.
func DefaultConfig(mode Mode, budget uint64) Config { return sim.Default(mode, budget) }

// Run simulates the named benchmark under cfg.
func Run(bench string, cfg Config) (Result, error) { return sim.Run(bench, cfg) }

// RunContext is Run with cancellation: the simulation polls ctx and
// returns ctx.Err() (wrapped) if it is cancelled or its deadline
// passes mid-run.
func RunContext(ctx context.Context, bench string, cfg Config) (Result, error) {
	return sim.RunContext(ctx, bench, cfg)
}

// Batch runs many matrix cells over shared materialized workload
// traces: each benchmark's trace is generated once per (seed, thread,
// budget) and every (mode, engine, depth) cell replays it. Run is a
// one-cell Batch. Cache hierarchies are recycled across every run in
// the process, whichever Batch it uses. Safe for concurrent use.
type Batch = sim.Batch

// NewBatch returns a Batch with a default-bounded trace cache.
func NewBatch() *Batch { return sim.NewBatch() }

// SampleConfig parameterizes SMARTS-style sampled simulation.
type SampleConfig = sim.SampleConfig

// SampledResult is a sampled run's CPI estimate with its confidence
// interval and extrapolated cycle/IPC figures.
type SampledResult = sim.SampledResult

// DefaultSampleConfig returns the default sampling parameters.
func DefaultSampleConfig() SampleConfig { return sim.DefaultSampleConfig() }

// Sampled runs bench under cfg with SMARTS-style systematic sampling:
// short detailed windows measure CPI, the gaps run under a functional
// model that keeps caches and prefetcher state warm, and the estimate
// carries a Student-t confidence interval.
func Sampled(bench string, cfg Config, sc SampleConfig) (SampledResult, error) {
	return sim.Sampled(bench, cfg, sc)
}

// SampledContext is Sampled with cancellation.
func SampledContext(ctx context.Context, bench string, cfg Config, sc SampleConfig) (SampledResult, error) {
	return sim.SampledContext(ctx, bench, cfg, sc)
}

// Benchmarks returns all registered benchmark names, sorted.
func Benchmarks() []string { return workload.Names() }

// SuiteBenchmarks returns the benchmarks of a suite in the paper's
// figure order.
func SuiteBenchmarks(s Suite) []string { return workload.SuiteNames(s) }

// FocusBenchmarks returns the eight benchmarks the paper uses for its
// detailed-results figures (Figs. 11-16).
func FocusBenchmarks() []string { return workload.FocusBenchmarks() }

// Gain returns the percentage performance improvement of res over base:
// 100 * (base.Cycles/res.Cycles - 1). Both runs must have executed the
// same instruction budget for the comparison to be meaningful.
func Gain(base, res Result) float64 {
	if res.Cycles == 0 {
		return 0
	}
	return 100 * (float64(base.Cycles)/float64(res.Cycles) - 1)
}

// Comparison holds one benchmark's results under the four configurations.
type Comparison struct {
	Benchmark string
	ByMode    map[Mode]Result
}

// GainOver returns the percentage gain of mode a over mode b.
func (c *Comparison) GainOver(a, b Mode) float64 {
	return Gain(c.ByMode[b], c.ByMode[a])
}

// Compare runs bench under each requested mode with a shared base
// configuration (cfg's Mode field is overridden per run). The modes
// share one Batch, so the workload trace is generated once.
func Compare(bench string, cfg Config, modes ...Mode) (*Comparison, error) {
	if len(modes) == 0 {
		modes = []Mode{NP, PS, MS, PMS}
	}
	out := &Comparison{Benchmark: bench, ByMode: make(map[Mode]Result, len(modes))}
	batch := NewBatch()
	for _, m := range modes {
		c := cfg
		c.Mode = m
		res, err := batch.Run(bench, c)
		if err != nil {
			return nil, fmt.Errorf("asdsim: %s/%v: %w", bench, m, err)
		}
		out.ByMode[m] = res
	}
	return out, nil
}
