// Package sim wires the full system model together — synthetic workload
// generators, the cache hierarchy, the processor-side prefetcher, the
// memory controller with its memory-side ASD prefetcher, and DRAM — and
// runs the four configurations the paper compares: NP, PS, MS, and PMS
// (§5.2).
package sim

import (
	"fmt"
	"strings"

	"asdsim/internal/cache"
	"asdsim/internal/core"
	"asdsim/internal/dram"
	"asdsim/internal/mc"
	"asdsim/internal/obs"
	"asdsim/internal/obs/prov"
	"asdsim/internal/prefetch"
)

// Mode selects the prefetching configuration.
type Mode int

// The paper's four configurations.
const (
	// NP: no prefetching anywhere (the stripped-down baseline).
	NP Mode = iota
	// PS: processor-side prefetching only (the stock Power5+).
	PS
	// MS: memory-side prefetching only.
	MS
	// PMS: processor- and memory-side prefetching together.
	PMS
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case NP:
		return "NP"
	case PS:
		return "PS"
	case MS:
		return "MS"
	case PMS:
		return "PMS"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// EngineKind selects the memory-side engine (Fig. 11 compares ASD against
// two baselines, all living in the memory controller).
type EngineKind int

// Memory-side engine kinds.
const (
	// EngineASD is Adaptive Stream Detection (the paper's contribution).
	EngineASD EngineKind = iota
	// EngineNextLine prefetches line+1 after every Read.
	EngineNextLine
	// EngineP5Style is a classic n=2 stream prefetcher in the MC.
	EngineP5Style
	// EngineGHB is an address-correlating Global History Buffer
	// prefetcher (extension; the paper's related work [18]).
	EngineGHB
)

// String implements fmt.Stringer.
func (k EngineKind) String() string {
	switch k {
	case EngineASD:
		return "asd"
	case EngineNextLine:
		return "next-line"
	case EngineP5Style:
		return "p5-style"
	case EngineGHB:
		return "ghb"
	default:
		return fmt.Sprintf("EngineKind(%d)", int(k))
	}
}

// Config is a full system configuration.
type Config struct {
	// Mode is the prefetching configuration.
	Mode Mode
	// Engine selects the memory-side engine when Mode enables one.
	Engine EngineKind
	// Threads is the SMT width (1 or 2).
	Threads int
	// InstrBudget is the per-thread instruction budget, at most
	// MaxInstrBudget.
	InstrBudget uint64
	// Seed drives all workload randomness.
	Seed uint64

	Cache cache.Config
	DRAM  dram.Config
	MC    mc.Config
	ASD   core.Config
	Sched core.SchedulerConfig
	PS    prefetch.PSConfig
	// Window and MaxOutstanding configure the CPU timing model.
	Window         uint64
	MaxOutstanding int
	// HitOverlap divides charged cache-hit latencies, modelling the
	// out-of-order core's ability to overlap L2/L3 hits with execution.
	HitOverlap uint64

	// Obs, when non-nil, is attached to every instrumented component
	// for the run: the memory controller, DRAM, cache hierarchy, CPU
	// threads, ASD engines and the adaptive scheduler publish probe
	// events into it. Excluded from JSON so serialized configurations
	// (and the farm's content-addressed job keys) are unaffected by
	// observer wiring.
	Obs *obs.Bus `json:"-"`

	// Prov, when non-nil, records per-prefetch provenance for the run.
	// The run attaches it after Obs's sinks on a bus of its own, which
	// hands it only the prefetch-lifecycle kinds it reads, so a
	// provenance-only run keeps every other probe site dark and Obs is
	// left as it was. Each ASD engine also calls its decision, epoch and
	// slot hooks directly. Excluded from JSON for the same reason as Obs.
	Prov *prov.Recorder `json:"-"`
}

// Default returns the paper's evaluated system in the given mode with a
// per-thread instruction budget.
func Default(mode Mode, budget uint64) Config {
	return Config{
		Mode:           mode,
		Engine:         EngineASD,
		Threads:        1,
		InstrBudget:    budget,
		Seed:           1,
		Cache:          cache.DefaultConfig(),
		DRAM:           dram.DefaultConfig(),
		MC:             mc.DefaultConfig(),
		ASD:            core.DefaultConfig(),
		Sched:          core.DefaultSchedulerConfig(),
		PS:             prefetch.DefaultPSConfig(),
		Window:         64,
		MaxOutstanding: 8,
		HitOverlap:     3,
	}
}

// ParseMode parses a configuration name ("NP", "PS", "MS", "PMS",
// case-insensitive) into a Mode.
func ParseMode(s string) (Mode, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "NP":
		return NP, nil
	case "PS":
		return PS, nil
	case "MS":
		return MS, nil
	case "PMS":
		return PMS, nil
	default:
		return 0, fmt.Errorf("sim: unknown mode %q (want NP, PS, MS or PMS)", s)
	}
}

// ParseEngine parses a memory-side engine name ("asd", "next-line",
// "p5-style", "ghb") into an EngineKind.
func ParseEngine(s string) (EngineKind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "asd", "":
		return EngineASD, nil
	case "next-line", "nextline":
		return EngineNextLine, nil
	case "p5-style", "p5style", "p5":
		return EngineP5Style, nil
	case "ghb":
		return EngineGHB, nil
	default:
		return 0, fmt.Errorf("sim: unknown engine %q (want asd, next-line, p5-style or ghb)", s)
	}
}

// MaxInstrBudget bounds Config.InstrBudget. Every run materializes each
// thread's trace before simulating it, at 16 B per memory record, and
// the built-in profiles average one record per 23-81 instructions, so
// the bound caps one thread's trace at about 0.75 GB.
const MaxInstrBudget = 1 << 30

// Validate reports the first problem with the configuration.
func (c *Config) Validate() error {
	switch {
	case c.Mode < NP || c.Mode > PMS:
		return fmt.Errorf("sim: invalid mode %d", int(c.Mode))
	case c.Engine < EngineASD || c.Engine > EngineGHB:
		return fmt.Errorf("sim: invalid engine kind %d", int(c.Engine))
	case c.Threads < 1 || c.Threads > 2:
		return fmt.Errorf("sim: Threads must be 1 or 2, got %d", c.Threads)
	case c.InstrBudget == 0:
		return fmt.Errorf("sim: zero instruction budget")
	case c.InstrBudget > MaxInstrBudget:
		return fmt.Errorf("sim: instruction budget %d exceeds the limit of %d", c.InstrBudget, uint64(MaxInstrBudget))
	case c.Window == 0 || c.MaxOutstanding <= 0:
		return fmt.Errorf("sim: invalid CPU window/outstanding")
	case c.HitOverlap == 0:
		return fmt.Errorf("sim: HitOverlap must be positive")
	}
	if err := c.Cache.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return nil
}

// msEnabled reports whether the mode includes memory-side prefetching.
func (c *Config) msEnabled() bool { return c.Mode == MS || c.Mode == PMS }

// psEnabled reports whether the mode includes processor-side prefetching.
func (c *Config) psEnabled() bool { return c.Mode == PS || c.Mode == PMS }
