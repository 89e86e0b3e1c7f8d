package workload

import (
	"fmt"
	"slices"
	"sort"
)

// Suite identifies a benchmark suite from the paper's evaluation.
type Suite string

// The three suites evaluated in the paper (§4.1).
const (
	SPEC2006FP Suite = "spec2006fp"
	NAS        Suite = "nas"
	Commercial Suite = "commercial"
)

// Phase describes one stream-length regime of a benchmark. Benchmarks
// switch between phases over time, which is what makes the paper's
// epoch-by-epoch Stream Length Histograms (Fig. 3) vary.
type Phase struct {
	// Weight is the relative probability of entering this phase at a
	// phase boundary.
	Weight float64
	// StreamLen are relative weights for stream lengths 1..len(StreamLen)
	// *by stream count* (not by read count).
	StreamLen []float64
	// TailContinue geometrically extends samples that land in the final
	// StreamLen bucket (per-step continuation probability).
	TailContinue float64
}

// Profile parameterises the synthetic generator for one named benchmark.
// The fields are the workload characteristics the paper's mechanisms
// actually respond to; see DESIGN.md §2 for the substitution argument.
type Profile struct {
	// Name of the benchmark (matches the paper's figures).
	Name string
	// Suite the benchmark belongs to.
	Suite Suite

	// MeanGap is the average number of compute instructions between
	// memory references; it sets memory intensity.
	MeanGap float64
	// ReadFrac is the fraction of memory references that are loads.
	ReadFrac float64
	// FootprintLines is the streamed footprint in cache lines; footprints
	// far beyond the L3 capacity produce sustained DRAM pressure.
	FootprintLines int
	// HotLines is the size of a cache-resident hot region in lines.
	HotLines int
	// HotFrac is the fraction of references that target the hot region
	// (these become cache hits and never reach the memory controller).
	HotFrac float64
	// ActiveStreams is how many streams the benchmark walks concurrently.
	ActiveStreams int
	// DownFrac is the fraction of streams with descending addresses.
	DownFrac float64
	// AccessesPerLine is how many references the generator emits to each
	// line a stream touches (within-line spatial locality).
	AccessesPerLine int
	// Phases is the phase schedule; at least one phase is required.
	Phases []Phase
	// PhaseLenRefs is the number of references per phase segment.
	PhaseLenRefs int
}

// Validate reports the first structural problem with the profile.
func (p *Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("workload: profile has no name")
	case p.MeanGap < 0:
		return fmt.Errorf("workload %s: negative MeanGap", p.Name)
	case p.ReadFrac < 0 || p.ReadFrac > 1:
		return fmt.Errorf("workload %s: ReadFrac %v outside [0,1]", p.Name, p.ReadFrac)
	case p.FootprintLines <= 0:
		return fmt.Errorf("workload %s: FootprintLines must be positive", p.Name)
	case p.HotFrac < 0 || p.HotFrac > 1:
		return fmt.Errorf("workload %s: HotFrac %v outside [0,1]", p.Name, p.HotFrac)
	case p.HotFrac > 0 && p.HotLines <= 0:
		return fmt.Errorf("workload %s: HotFrac > 0 needs HotLines > 0", p.Name)
	case p.ActiveStreams <= 0:
		return fmt.Errorf("workload %s: ActiveStreams must be positive", p.Name)
	case p.DownFrac < 0 || p.DownFrac > 1:
		return fmt.Errorf("workload %s: DownFrac %v outside [0,1]", p.Name, p.DownFrac)
	case p.AccessesPerLine <= 0:
		return fmt.Errorf("workload %s: AccessesPerLine must be positive", p.Name)
	case len(p.Phases) == 0:
		return fmt.Errorf("workload %s: needs at least one phase", p.Name)
	case p.PhaseLenRefs <= 0:
		return fmt.Errorf("workload %s: PhaseLenRefs must be positive", p.Name)
	}
	for i, ph := range p.Phases {
		if ph.Weight <= 0 {
			return fmt.Errorf("workload %s: phase %d weight must be positive", p.Name, i)
		}
		if len(ph.StreamLen) == 0 {
			return fmt.Errorf("workload %s: phase %d has no stream-length weights", p.Name, i)
		}
	}
	return nil
}

// Line-count scale constants: the L2 holds 15360 lines, the L3 294912.
// Footprints are chosen relative to those capacities.
const (
	linesKB = 1024 / 128 // lines per KB = 8
	linesMB = 8 * 1024   // lines per MB
)

// singlePhase is shorthand for a one-phase schedule.
func singlePhase(weights []float64, tail float64) []Phase {
	return []Phase{{Weight: 1, StreamLen: weights, TailContinue: tail}}
}

// w16 builds a 16-bucket weight vector from (index,weight) pairs; unnamed
// buckets are zero.
func w16(pairs ...float64) []float64 {
	if len(pairs)%2 != 0 {
		panic("w16: odd pair list")
	}
	w := make([]float64, 16)
	for i := 0; i < len(pairs); i += 2 {
		idx := int(pairs[i])
		if idx < 1 || idx > 16 {
			panic("w16: index out of range")
		}
		w[idx-1] = pairs[i+1]
	}
	return w
}

// longStream is a stream-length mixture dominated by long runs: some
// short noise, most mass at the 16+ bucket with a heavy tail.
func longStream(noise float64) []float64 {
	w := make([]float64, 16)
	w[0] = noise
	w[1] = noise / 2
	w[15] = 1
	return w
}

// geomWeights returns weights proportional to ratio^(i) for lengths
// 1..16, a reasonable model of irregular workloads whose runs die off
// geometrically.
func geomWeights(ratio float64) []float64 {
	w := make([]float64, 16)
	v := 1.0
	for i := range w {
		w[i] = v
		v *= ratio
	}
	return w
}

// profiles holds every named benchmark profile, keyed by name.
var profiles = map[string]registered{}

// registered is one registry entry: the profile and its ProfileHash,
// computed once at registration.
type registered struct {
	prof Profile
	hash string
}

// register adds p to the profile registry (panics on duplicates or
// invalid profiles; this runs at init time with literal data).
func register(p Profile) {
	if err := Register(p); err != nil {
		panic(err)
	}
}

// Register adds a custom profile to the registry so user-defined
// workloads can be simulated by name alongside the built-in benchmarks.
// The registry keeps its own copy of p's phases, so the caller may reuse
// p afterwards.
func Register(p Profile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if _, dup := profiles[p.Name]; dup {
		return fmt.Errorf("workload: duplicate profile %s", p.Name)
	}
	p.Phases = slices.Clone(p.Phases)
	for i := range p.Phases {
		p.Phases[i].StreamLen = slices.Clone(p.Phases[i].StreamLen)
	}
	profiles[p.Name] = registered{prof: p, hash: hashProfile(p)}
	return nil
}

// ByName returns the profile registered under name. It shares its
// Phases with the registry: copy them before modifying them.
func ByName(name string) (Profile, error) {
	r, ok := profiles[name]
	if !ok {
		return Profile{}, fmt.Errorf("workload: unknown benchmark %q", name)
	}
	return r.prof, nil
}

// Names returns all registered benchmark names, sorted.
func Names() []string {
	out := make([]string, 0, len(profiles))
	for n := range profiles {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SuiteNames returns the benchmarks of a suite in the paper's figure
// order.
func SuiteNames(s Suite) []string {
	switch s {
	case SPEC2006FP:
		return []string{
			"bwaves", "gamess", "milc", "zeusmp", "gromacs", "cactusADM",
			"leslie3d", "namd", "dealII", "soplex", "povray", "calculix",
			"GemsFDTD", "tonto", "lbm", "wrf", "sphinx3",
		}
	case NAS:
		return []string{"bt", "cg", "ep", "ft", "is", "lu", "mg", "sp"}
	case Commercial:
		return []string{"tpcc", "trade2", "cpw2", "sap", "notesbench"}
	default:
		return nil
	}
}

// FocusBenchmarks are the eight benchmarks the paper uses for its
// detailed-results figures (Figs. 11–16): the two best- and two
// worst-case from SPEC and from the commercial suite.
func FocusBenchmarks() []string {
	return []string{"bwaves", "milc", "GemsFDTD", "tonto", "tpcc", "trade2", "sap", "notesbench"}
}

func init() {
	// ----- SPEC2006fp ---------------------------------------------------
	// Memory-bound streaming codes: long streams, high intensity. These
	// are the big winners in Fig. 5 (bwaves, leslie3d, lbm ~50-69%).
	register(Profile{
		Name: "bwaves", Suite: SPEC2006FP,
		MeanGap: 28, ReadFrac: 0.78, FootprintLines: 640 * linesMB,
		ActiveStreams: 6, DownFrac: 0.08, AccessesPerLine: 2,
		Phases:       singlePhase(longStream(0.18), 0.97),
		PhaseLenRefs: 40000,
	})
	register(Profile{
		Name: "leslie3d", Suite: SPEC2006FP,
		MeanGap: 35, ReadFrac: 0.76, FootprintLines: 512 * linesMB,
		ActiveStreams: 8, DownFrac: 0.10, AccessesPerLine: 2,
		Phases:       singlePhase(longStream(0.25), 0.95),
		PhaseLenRefs: 40000,
	})
	register(Profile{
		Name: "lbm", Suite: SPEC2006FP,
		MeanGap: 22, ReadFrac: 0.62, FootprintLines: 512 * linesMB,
		ActiveStreams: 4, DownFrac: 0.05, AccessesPerLine: 2,
		Phases:       singlePhase(longStream(0.10), 0.98),
		PhaseLenRefs: 50000,
	})
	// GemsFDTD: the paper's running example — strongly phased mixture of
	// short and medium streams (Figs. 2, 3, 16).
	register(Profile{
		Name: "GemsFDTD", Suite: SPEC2006FP,
		MeanGap: 35, ReadFrac: 0.80, FootprintLines: 700 * linesMB,
		ActiveStreams: 4, DownFrac: 0.15, AccessesPerLine: 2,
		Phases: []Phase{
			// Matches Fig. 2: ~22% len-1, ~44% len-2 by reads; by
			// stream counts that is roughly 37:37 for 1:2 with a
			// modest tail.
			{Weight: 3, StreamLen: w16(1, 8, 2, 52, 7, 5, 8, 4, 16, 2.5), TailContinue: 0.6},
			// A long-stream phase.
			{Weight: 1, StreamLen: w16(1, 15, 2, 8, 3, 5, 16, 25), TailContinue: 0.9},
			// A short-stream phase (almost everything length 1-2).
			{Weight: 2, StreamLen: w16(1, 10, 2, 55, 3, 8), TailContinue: 0},
		},
		PhaseLenRefs: 2600,
	})
	register(Profile{
		Name: "milc", Suite: SPEC2006FP,
		MeanGap: 35, ReadFrac: 0.74, FootprintLines: 600 * linesMB,
		ActiveStreams: 5, DownFrac: 0.12, AccessesPerLine: 2,
		Phases: []Phase{
			{Weight: 2, StreamLen: w16(1, 12, 2, 18, 4, 14, 8, 8, 16, 8), TailContinue: 0.75},
			{Weight: 1, StreamLen: w16(1, 18, 2, 10, 16, 30), TailContinue: 0.9},
		},
		PhaseLenRefs: 9000,
	})
	register(Profile{
		Name: "zeusmp", Suite: SPEC2006FP,
		MeanGap: 45, ReadFrac: 0.75, FootprintLines: 400 * linesMB,
		ActiveStreams: 5, DownFrac: 0.10, AccessesPerLine: 2,
		Phases:       singlePhase(w16(1, 25, 2, 15, 3, 9, 4, 7, 6, 5, 8, 5, 16, 20), 0.85),
		PhaseLenRefs: 20000,
	})
	register(Profile{
		Name: "gromacs", Suite: SPEC2006FP,
		MeanGap: 70, ReadFrac: 0.80, FootprintLines: 80 * linesMB,
		HotLines: 4096, HotFrac: 0.60,
		ActiveStreams: 3, DownFrac: 0.15, AccessesPerLine: 3,
		Phases:       singlePhase(geomWeights(0.62), 0.4),
		PhaseLenRefs: 20000,
	})
	register(Profile{
		Name: "cactusADM", Suite: SPEC2006FP,
		MeanGap: 45, ReadFrac: 0.72, FootprintLines: 420 * linesMB,
		ActiveStreams: 5, DownFrac: 0.12, AccessesPerLine: 2,
		Phases:       singlePhase(w16(1, 22, 2, 14, 3, 10, 4, 8, 5, 6, 8, 6, 16, 16), 0.8),
		PhaseLenRefs: 25000,
	})
	register(Profile{
		Name: "dealII", Suite: SPEC2006FP,
		MeanGap: 60, ReadFrac: 0.82, FootprintLines: 160 * linesMB,
		HotLines: 6144, HotFrac: 0.55,
		ActiveStreams: 4, DownFrac: 0.20, AccessesPerLine: 2,
		Phases:       singlePhase(geomWeights(0.58), 0.35),
		PhaseLenRefs: 15000,
	})
	register(Profile{
		Name: "soplex", Suite: SPEC2006FP,
		MeanGap: 40, ReadFrac: 0.84, FootprintLines: 300 * linesMB,
		HotLines: 4096, HotFrac: 0.30,
		ActiveStreams: 5, DownFrac: 0.22, AccessesPerLine: 1,
		Phases:       singlePhase(w16(1, 42, 2, 24, 3, 12, 4, 8, 5, 5, 8, 4, 16, 5), 0.6),
		PhaseLenRefs: 12000,
	})
	register(Profile{
		Name: "wrf", Suite: SPEC2006FP,
		MeanGap: 50, ReadFrac: 0.77, FootprintLines: 350 * linesMB,
		ActiveStreams: 5, DownFrac: 0.14, AccessesPerLine: 2,
		Phases: []Phase{
			{Weight: 2, StreamLen: w16(1, 28, 2, 18, 3, 11, 4, 8, 5, 6, 8, 6, 16, 12), TailContinue: 0.8},
			{Weight: 1, StreamLen: w16(1, 45, 2, 30, 3, 10, 4, 5), TailContinue: 0.3},
		},
		PhaseLenRefs: 10000,
	})
	register(Profile{
		Name: "sphinx3", Suite: SPEC2006FP,
		MeanGap: 35, ReadFrac: 0.88, FootprintLines: 260 * linesMB,
		ActiveStreams: 4, DownFrac: 0.10, AccessesPerLine: 2,
		Phases:       singlePhase(w16(1, 30, 2, 20, 3, 13, 4, 9, 5, 7, 8, 7, 16, 10), 0.75),
		PhaseLenRefs: 15000,
	})
	register(Profile{
		Name: "tonto", Suite: SPEC2006FP,
		MeanGap: 50, ReadFrac: 0.83, FootprintLines: 200 * linesMB,
		HotLines: 4096, HotFrac: 0.35,
		ActiveStreams: 4, DownFrac: 0.18, AccessesPerLine: 2,
		Phases:       singlePhase(w16(1, 6, 4, 22, 5, 5, 8, 2), 0.3),
		PhaseLenRefs: 12000,
	})
	// Cache-resident SPEC codes: near-zero memory pressure; Fig. 5 shows
	// ~0 gain and Fig. 8 shows negligible power impact.
	for _, res := range []string{"gamess", "namd", "povray", "calculix"} {
		register(Profile{
			Name: res, Suite: SPEC2006FP,
			MeanGap: 40, ReadFrac: 0.85, FootprintLines: 900 * linesKB,
			HotLines: 700 * linesKB, HotFrac: 0.985,
			ActiveStreams: 4, DownFrac: 0.15, AccessesPerLine: 4,
			Phases:       singlePhase(geomWeights(0.55), 0.3),
			PhaseLenRefs: 30000,
		})
	}

	// ----- NAS (class B, serial) ----------------------------------------
	register(Profile{
		Name: "bt", Suite: NAS,
		MeanGap: 40, ReadFrac: 0.74, FootprintLines: 300 * linesMB,
		ActiveStreams: 5, DownFrac: 0.10, AccessesPerLine: 2,
		Phases:       singlePhase(w16(1, 24, 2, 16, 3, 11, 4, 8, 5, 7, 8, 8, 16, 14), 0.8),
		PhaseLenRefs: 18000,
	})
	register(Profile{
		Name: "cg", Suite: NAS,
		MeanGap: 30, ReadFrac: 0.90, FootprintLines: 420 * linesMB,
		ActiveStreams: 5, DownFrac: 0.08, AccessesPerLine: 1,
		Phases:       singlePhase(w16(1, 52, 2, 22, 3, 10, 4, 6, 5, 4, 8, 3, 16, 3), 0.5),
		PhaseLenRefs: 10000,
	})
	register(Profile{
		Name: "ep", Suite: NAS, // embarrassingly parallel: compute bound
		MeanGap: 80, ReadFrac: 0.80, FootprintLines: 800 * linesKB,
		HotLines: 600 * linesKB, HotFrac: 0.99,
		ActiveStreams: 2, DownFrac: 0.05, AccessesPerLine: 4,
		Phases:       singlePhase(geomWeights(0.5), 0.3),
		PhaseLenRefs: 30000,
	})
	register(Profile{
		Name: "ft", Suite: NAS,
		MeanGap: 30, ReadFrac: 0.70, FootprintLines: 512 * linesMB,
		ActiveStreams: 6, DownFrac: 0.30, AccessesPerLine: 2,
		Phases:       singlePhase(longStream(0.3), 0.93),
		PhaseLenRefs: 25000,
	})
	register(Profile{
		Name: "is", Suite: NAS, // integer sort: scattered histogramming
		MeanGap: 35, ReadFrac: 0.68, FootprintLines: 380 * linesMB,
		ActiveStreams: 5, DownFrac: 0.10, AccessesPerLine: 1,
		Phases:       singlePhase(w16(1, 58, 2, 20, 3, 9, 4, 5, 5, 3, 8, 3, 16, 2), 0.4),
		PhaseLenRefs: 9000,
	})
	register(Profile{
		Name: "lu", Suite: NAS,
		MeanGap: 45, ReadFrac: 0.76, FootprintLines: 280 * linesMB,
		ActiveStreams: 5, DownFrac: 0.16, AccessesPerLine: 2,
		Phases:       singlePhase(w16(1, 30, 2, 18, 3, 12, 4, 9, 5, 7, 8, 8, 16, 10), 0.75),
		PhaseLenRefs: 14000,
	})
	register(Profile{
		Name: "mg", Suite: NAS,
		MeanGap: 35, ReadFrac: 0.72, FootprintLines: 460 * linesMB,
		ActiveStreams: 4, DownFrac: 0.12, AccessesPerLine: 2,
		Phases: []Phase{
			{Weight: 2, StreamLen: longStream(0.35), TailContinue: 0.92},
			{Weight: 1, StreamLen: w16(1, 40, 2, 28, 3, 12, 4, 8), TailContinue: 0.3},
		},
		PhaseLenRefs: 12000,
	})
	register(Profile{
		Name: "sp", Suite: NAS,
		MeanGap: 40, ReadFrac: 0.75, FootprintLines: 320 * linesMB,
		ActiveStreams: 5, DownFrac: 0.10, AccessesPerLine: 2,
		Phases:       singlePhase(w16(1, 22, 2, 15, 3, 11, 4, 9, 5, 7, 8, 9, 16, 15), 0.82),
		PhaseLenRefs: 16000,
	})

	// ----- Commercial (IBM internal substitutes) -------------------------
	// Low spatial locality, large footprints, significant store traffic.
	// Fig. 12 quotes stream-length-2..5 mass per benchmark: tpcc 37%,
	// trade2 49%, sap 40%, notesbench 62%; length-1 mass is high.
	register(Profile{
		Name: "tpcc", Suite: Commercial,
		MeanGap: 32, ReadFrac: 0.70, FootprintLines: 900 * linesMB,
		HotLines: 6144, HotFrac: 0.39,
		ActiveStreams: 4, DownFrac: 0.20, AccessesPerLine: 1,
		Phases:       singlePhase(w16(1, 8, 3, 28, 4, 14, 8, 3.5, 16, 0.8), 0.45),
		PhaseLenRefs: 8000,
	})
	register(Profile{
		Name: "trade2", Suite: Commercial,
		MeanGap: 36, ReadFrac: 0.72, FootprintLines: 700 * linesMB,
		HotLines: 6144, HotFrac: 0.36,
		ActiveStreams: 4, DownFrac: 0.22, AccessesPerLine: 1,
		Phases:       singlePhase(w16(1, 8, 2, 12, 3, 24, 4, 15, 8, 3, 16, 0.7), 0.45),
		PhaseLenRefs: 8000,
	})
	register(Profile{
		Name: "cpw2", Suite: Commercial,
		MeanGap: 32, ReadFrac: 0.69, FootprintLines: 800 * linesMB,
		HotLines: 6144, HotFrac: 0.38,
		ActiveStreams: 4, DownFrac: 0.20, AccessesPerLine: 1,
		Phases:       singlePhase(w16(1, 10, 3, 26, 4, 12, 8, 3.5, 16, 0.8), 0.45),
		PhaseLenRefs: 8000,
	})
	register(Profile{
		Name: "sap", Suite: Commercial,
		MeanGap: 36, ReadFrac: 0.73, FootprintLines: 750 * linesMB,
		HotLines: 6144, HotFrac: 0.40,
		ActiveStreams: 4, DownFrac: 0.24, AccessesPerLine: 1,
		Phases:       singlePhase(w16(1, 10, 3, 22, 4, 14, 8, 4, 16, 0.9), 0.45),
		PhaseLenRefs: 8000,
	})
	register(Profile{
		Name: "notesbench", Suite: Commercial,
		MeanGap: 38, ReadFrac: 0.71, FootprintLines: 650 * linesMB,
		HotLines: 6144, HotFrac: 0.34,
		ActiveStreams: 4, DownFrac: 0.18, AccessesPerLine: 1,
		Phases:       singlePhase(w16(1, 6, 2, 16, 3, 28, 4, 17, 5, 6, 8, 2.5, 16, 0.6), 0.45),
		PhaseLenRefs: 8000,
	})
}
