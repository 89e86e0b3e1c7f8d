package farm

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"asdsim/internal/sim"
	"asdsim/internal/workload"
)

// Matrix describes a benchmark x mode job grid in wire-friendly terms;
// it is the POST /jobs request body and the CLI's flag target. Zero
// fields take defaults, so {"suites":["spec2006fp"]} is a full request.
type Matrix struct {
	// Benchmarks lists individual benchmark names; Suites adds whole
	// suites ("spec2006fp", "nas", "commercial", case-insensitive).
	// Both empty means every registered benchmark.
	Benchmarks []string `json:"benchmarks,omitempty"`
	Suites     []string `json:"suites,omitempty"`
	// Modes lists configurations ("NP", "PS", "MS", "PMS"); empty means
	// all four.
	Modes []string `json:"modes,omitempty"`
	// Engine is the memory-side engine ("asd", "next-line", "p5-style",
	// "ghb"); empty means asd.
	Engine string `json:"engine,omitempty"`
	// Threads is the SMT width (default 1).
	Threads int `json:"threads,omitempty"`
	// Budget is instructions per thread (default 1,000,000, at most
	// sim.MaxInstrBudget).
	Budget uint64 `json:"budget,omitempty"`
	// Seed drives workload randomness (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// DeriveSeeds decorrelates the cells: each job's seed becomes a
	// stable hash of (Seed, benchmark, mode) instead of Seed itself.
	DeriveSeeds bool `json:"derive_seeds,omitempty"`
	// TimeoutSec bounds each attempt; zero means none.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
	// Retries is the per-job retry budget.
	Retries int `json:"retries,omitempty"`
	// Sample, when non-nil, runs every cell under SMARTS-style sampled
	// simulation with these parameters (zero fields take the sim
	// defaults) instead of exact simulation.
	Sample *sim.SampleConfig `json:"sample,omitempty"`
}

// ParseSuite resolves a suite name case-insensitively.
func ParseSuite(s string) (workload.Suite, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "spec2006fp", "spec":
		return workload.SPEC2006FP, nil
	case "nas":
		return workload.NAS, nil
	case "commercial":
		return workload.Commercial, nil
	default:
		return "", fmt.Errorf("farm: unknown suite %q (want spec2006fp, nas or commercial)", s)
	}
}

// DeriveSeed returns a stable per-cell seed: FNV-1a over the base seed,
// benchmark name and mode. Deterministic across processes and worker
// counts, never zero.
func DeriveSeed(base uint64, bench string, mode sim.Mode) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(base >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(bench))
	h.Write([]byte{byte(mode)})
	v := h.Sum64()
	if v == 0 {
		v = 1
	}
	return v
}

// Specs expands the matrix into one Spec per benchmark x mode cell, in
// deterministic (benchmark-major) order.
func (m Matrix) Specs() ([]Spec, error) {
	benches := append([]string(nil), m.Benchmarks...)
	for _, s := range m.Suites {
		suite, err := ParseSuite(s)
		if err != nil {
			return nil, err
		}
		benches = append(benches, workload.SuiteNames(suite)...)
	}
	if len(benches) == 0 {
		benches = workload.Names()
	}
	seen := make(map[string]bool, len(benches))
	uniq := benches[:0]
	for _, b := range benches {
		if _, err := workload.ByName(b); err != nil {
			return nil, err
		}
		if !seen[b] {
			seen[b] = true
			uniq = append(uniq, b)
		}
	}
	benches = uniq

	modeNames := m.Modes
	if len(modeNames) == 0 {
		modeNames = []string{"NP", "PS", "MS", "PMS"}
	}
	modes := make([]sim.Mode, len(modeNames))
	for i, s := range modeNames {
		mode, err := sim.ParseMode(s)
		if err != nil {
			return nil, err
		}
		modes[i] = mode
	}
	engine, err := sim.ParseEngine(m.Engine)
	if err != nil {
		return nil, err
	}
	budget := m.Budget
	if budget == 0 {
		budget = 1_000_000
	}
	if m.Sample != nil {
		if err := m.Sample.WithDefaults().ValidateFor(budget); err != nil {
			return nil, err
		}
	}
	seed := m.Seed
	if seed == 0 {
		seed = 1
	}
	threads := m.Threads
	if threads == 0 {
		threads = 1
	}

	specs := make([]Spec, 0, len(benches)*len(modes))
	for _, b := range benches {
		for _, mode := range modes {
			cfg := sim.Default(mode, budget)
			cfg.Engine = engine
			cfg.Threads = threads
			cfg.Seed = seed
			if m.DeriveSeeds {
				cfg.Seed = DeriveSeed(seed, b, mode)
			}
			if err := cfg.Validate(); err != nil {
				return nil, fmt.Errorf("farm: %s/%v: %w", b, mode, err)
			}
			specs = append(specs, Spec{
				Benchmark: b,
				Mode:      mode,
				Config:    cfg,
				Sample:    m.Sample,
				Timeout:   time.Duration(m.TimeoutSec * float64(time.Second)),
				Retries:   m.Retries,
			})
		}
	}
	return specs, nil
}
