// Command figures regenerates every table and figure of the paper's
// evaluation (Hur & Lin, "Memory Prefetching Using Adaptive Stream
// Detection", MICRO 2006) on the synthetic reproduction, printing text
// tables alongside the paper's reported values.
//
// Usage:
//
//	figures [-budget N] [-seed N] [-workers N] [-store DIR] <experiment>|all
//
// Experiments: fig2 fig3 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12
// fig13 fig14 fig15 fig16 smt sched hwcost epoch multiline
//
// Each experiment's run matrix executes on the simulation farm
// (internal/farm) with -workers concurrent simulations; results are
// identical to a serial run at any worker count.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"

	"asdsim/internal/farm"
)

// experiment is one regenerable paper artifact.
type experiment struct {
	name  string
	about string
	run   func(*env)
}

// env carries shared run parameters and the farm pool every
// experiment's matrix executes on.
type env struct {
	budget uint64
	seed   uint64
	pool   *farm.Pool
	// store, when non-nil, persists every cell and resumes repeats
	// without re-simulating (figures across runs share one matrix).
	store *farm.Store
	// quiet suppresses the per-matrix summary line on stderr (-quiet
	// flag only; piping does not imply it, so CI can grep the summary).
	quiet bool
	// meterOff additionally suppresses the in-place progress meter
	// (-quiet, or stderr not a terminal: its \r rewrites would litter a
	// piped stream).
	meterOff bool
}

var experiments = []experiment{
	{"fig2", "SLH for one epoch of GemsFDTD", fig2},
	{"fig3", "SLH variation across GemsFDTD epochs", fig3},
	{"fig5", "SPEC2006fp performance gains", fig5},
	{"fig6", "NAS performance gains", fig6},
	{"fig7", "Commercial performance gains", fig7},
	{"fig8", "SPEC2006fp DRAM power/energy (PMS vs PS)", fig8},
	{"fig9", "NAS DRAM power/energy (PMS vs PS)", fig9},
	{"fig10", "Commercial DRAM power/energy (PMS vs PS)", fig10},
	{"fig11", "ASD + Adaptive Scheduling ablation", fig11},
	{"fig12", "Stream-length mix of the focus benchmarks", fig12},
	{"fig13", "Prefetch efficiency (useful/coverage/delayed)", fig13},
	{"fig14", "Prefetch Buffer size sensitivity", fig14},
	{"fig15", "Stream Filter size sensitivity", fig15},
	{"fig16", "SLH approximation accuracy", fig16},
	{"smt", "SMT (2-thread) performance gains (§5.2 text)", smt},
	{"sched", "Memory-scheduler interaction (§5.3 text)", schedInteraction},
	{"hwcost", "Hardware cost analysis (§5.1)", hwcostReport},
	{"epoch", "EXTENSION: epoch-length sensitivity", epochSweep},
	{"multiline", "EXTENSION: multi-line prefetch via inequality (6)", multiline},
	{"ghb", "EXTENSION: Global History Buffer baseline comparison", ghb},
}

func main() {
	budget := flag.Uint64("budget", 2_000_000, "instructions per thread per run")
	seed := flag.Uint64("seed", 1, "workload seed")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent simulations")
	storePath := flag.String("store", "", "results store directory; repeat runs resume instead of re-simulating")
	quiet := flag.Bool("quiet", false, "suppress the progress meter and per-matrix summary lines (the meter alone is suppressed automatically when stderr is piped)")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range experiments {
			fmt.Printf("%-10s %s\n", e.name, e.about)
		}
		return
	}
	args := flag.Args()
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: figures [-budget N] [-seed N] [-workers N] <experiment>|all (see -list)")
		os.Exit(2)
	}
	pool := farm.New(farm.Options{Workers: *workers})
	defer pool.Close()
	var store *farm.Store
	if *storePath != "" {
		var err error
		if store, err = farm.OpenStore(*storePath); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		defer store.Close()
	}
	e := &env{budget: *budget, seed: *seed, pool: pool, store: store,
		quiet: *quiet, meterOff: *quiet || !stderrIsTerminal()}
	if args[0] == "all" {
		for _, ex := range experiments {
			banner(ex)
			ex.run(e)
			fmt.Println()
		}
		return
	}
	names := make([]string, 0, len(experiments))
	for _, ex := range experiments {
		names = append(names, ex.name)
		if ex.name == args[0] {
			banner(ex)
			ex.run(e)
			return
		}
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "unknown experiment %q; available: %v\n", args[0], names)
	os.Exit(2)
}

func banner(ex experiment) {
	fmt.Printf("=== %s — %s ===\n", ex.name, ex.about)
}

// stderrIsTerminal reports whether stderr is an interactive terminal;
// the in-place progress meter is only rendered there (its \r rewrites
// would litter a piped or redirected stream).
func stderrIsTerminal() bool {
	fi, err := os.Stderr.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}
