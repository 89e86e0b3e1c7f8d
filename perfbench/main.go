// Command perfbench is the repository's end-to-end benchmark: one
// command that runs a workload, checks the simulator's outputs, and
// prints every end-to-end metric (or, with --trace 1, every per-layer
// metric) by name with its unit. The metric set, the workloads and the
// calibration reference are defined in spec.json beside this file and
// listed in BENCHMARK.json at the repository root.
//
// Run it from the repository root through the wrapper, which builds the
// benchmark and the asdfarm daemon into .bench_build first:
//
//	bash perfbench/run.sh --workload matrix-exact --seed 1 --seconds 15 --trace 0
//
// Host-time metrics are calibrated: every unit of work is followed by a
// frozen memory-bound probe (probe.go) and its raw time is scaled by the
// reference probe time over the probes' local median, which cancels the
// host's core-speed drift. The raw figures are reported beside them as
// per-layer metrics so the calibration stays auditable.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"matrix-exact": runMatrixExact,
	"recorded":     runRecorded,
	"farm-local":   runFarmLocal,
}

// bench is one invocation's state: arguments, calibration, failure
// accounting and the metrics gathered so far.
type bench struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	spec     *benchSpec
	wl       workloadSpec
	cal      *calibrator
	rng      *rand.Rand
	spans    *spanLog
	outDir   string

	attempted, failed int
	values            map[string]float64
	// setups holds each set-up repetition's raw seconds.
	setups []float64
}

// metricOut is one metric in the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line the benchmark prints.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: matrix-exact, recorded or farm-local")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 15, "measured seconds on the reference host")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload %s, --seconds >= 1, --trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *name != "farm-local" {
		// The in-process workloads simulate on one goroutine. One P keeps
		// the GC's background work on the simulation's core instead of
		// the other vCPU, whose availability the probe cannot see: with
		// two, recorded's calibrated rate spread 4x wider in a slow host
		// phase.
		runtime.GOMAXPROCS(1)
	}
	b := newBench(spec, *name, *seed, *seconds, *trace == 1)
	if err := drive(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if b.trace {
		if err := b.spans.write(filepath.Join(b.outDir, fmt.Sprintf("spans-%s-%d.json", *name, *seed))); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	return b.report(os.Stdout)
}

func newBench(spec *benchSpec, name string, seed uint64, seconds int, trace bool) *bench {
	return &bench{
		workload: name, seed: seed, seconds: seconds, trace: trace,
		spec: spec, wl: spec.Workloads[name],
		cal:    newCalibrator(spec.ReferenceProbeMS),
		rng:    rand.New(rand.NewPCG(seed, 0x5eed)),
		spans:  newSpanLog(),
		outDir: filepath.Join(".bench_build", "perfbench"),
		values: map[string]float64{},
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// set records a metric value.
func (b *bench) set(name string, v float64) { b.values[name] = v }

// attempt counts n units attempted; fail counts the ones that fail.
func (b *bench) attempt(n int) { b.attempted += n }

// fail counts one failed unit and reports why.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

// report prints a readable table of everything measured, then the
// result line. A missing metric or a failed check makes the exit code
// non-zero.
func (b *bench) report(w *os.File) int {
	defs := b.spec.EndToEnd
	if b.trace {
		defs = b.spec.PerLayer
	}
	res := resultLine{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed,
		Metrics: map[string]metricOut{}}
	var missing []string
	fmt.Fprintf(w, "workload %s seed %d: %d attempted, %d failed\n", b.workload, b.seed, b.attempted, b.failed)
	for _, d := range append(slices.Clone(b.spec.EndToEnd), b.spec.PerLayer...) {
		if v, ok := b.values[d.Name]; ok {
			fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.Name, v, d.Unit)
		}
	}
	for _, d := range defs {
		v, ok := b.values[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		res.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s produced no %s\n", b.workload, strings.Join(missing, ", "))
		return 1
	}
	if res.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: nothing attempted")
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// errChecks is returned when output checks failed badly enough that
// the run cannot produce its metrics.
var errChecks = errors.New("output checks failed")
