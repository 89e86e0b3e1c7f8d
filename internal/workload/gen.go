package workload

import (
	"asdsim/internal/mem"
	"asdsim/internal/stats"
	"asdsim/internal/trace"
)

// threadAddrStride separates the address spaces of SMT threads so their
// footprints never alias.
const threadAddrStride = mem.Addr(1) << 44

// Generator synthesises the memory reference stream of one benchmark
// thread. It implements trace.Source and is deterministic for a given
// (profile, seed, thread) triple, so the same trace can drive every
// prefetcher configuration.
type Generator struct {
	prof   Profile
	rng    *RNG
	thread int

	base    mem.Addr // footprint base address
	hotBase mem.Addr // hot-region base address

	streams []genStream
	rrIdx   int     // round-robin cursor over streams
	dists   []*Dist // one per phase
	phase   int
	phaseN  int // refs remaining in current phase

	// TrueLengths records the intended length of every stream the
	// generator completes, clamped at 16 like the paper's SLH. This is
	// the ground truth used by the Fig. 16 accuracy experiment.
	TrueLengths *stats.Histogram
}

type genStream struct {
	line    mem.Line
	left    int // lines remaining, including the current one
	length  int // total intended length, for TrueLengths accounting
	dir     int // +1 or -1
	accLeft int // accesses remaining within the current line
	accIdx  int
}

// NewGenerator returns a generator for the given profile. seed selects
// the deterministic random sequence; thread places the footprint in a
// disjoint address range and perturbs the sequence.
func NewGenerator(prof Profile, seed uint64, thread int) (*Generator, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{
		prof:        prof,
		rng:         NewRNG(seed ^ (uint64(thread+1) * 0xA24BAED4963EE407)),
		thread:      thread,
		base:        threadAddrStride * mem.Addr(thread),
		TrueLengths: stats.NewHistogram(16),
	}
	// The hot region sits immediately above the streamed footprint.
	g.hotBase = g.base + mem.Addr(prof.FootprintLines)*mem.LineSize
	g.dists = make([]*Dist, len(prof.Phases))
	for i, ph := range prof.Phases {
		g.dists[i] = NewDist(ph.StreamLen, ph.TailContinue)
	}
	g.streams = make([]genStream, prof.ActiveStreams)
	g.enterPhase()
	for i := range g.streams {
		g.startStream(&g.streams[i])
	}
	return g, nil
}

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.prof }

// enterPhase samples the next phase by weight and resets the phase
// countdown.
func (g *Generator) enterPhase() {
	var total float64
	for _, ph := range g.prof.Phases {
		total += ph.Weight
	}
	u := g.rng.Float64() * total
	idx := len(g.prof.Phases) - 1
	var acc float64
	for i, ph := range g.prof.Phases {
		acc += ph.Weight
		if u < acc {
			idx = i
			break
		}
	}
	g.phase = idx
	g.phaseN = g.prof.PhaseLenRefs
}

// startStream replaces s with a fresh stream: random start line inside the
// footprint, length from the current phase's distribution, direction from
// DownFrac. The previous stream's intended length has already been fully
// walked when this is called, so nothing is recorded here; recording
// happens when the stream completes in advance().
func (g *Generator) startStream(s *genStream) {
	length := g.dists[g.phase].Sample(g.rng)
	dir := +1
	if g.rng.Bool(g.prof.DownFrac) {
		dir = -1
	}
	start := g.rng.Intn(g.prof.FootprintLines)
	s.line = mem.LineOf(g.base) + mem.Line(start)
	s.left = length
	s.length = length
	s.dir = dir
	s.accLeft = g.prof.AccessesPerLine
	s.accIdx = 0
}

// Next implements trace.Source. The generator never ends; bound it with
// trace.Limit.
func (g *Generator) Next() (trace.Record, bool) {
	var rec trace.Record
	// Gap: uniform in [0, 2*MeanGap] so the mean matches the profile.
	span := int(2*g.prof.MeanGap) + 1
	rec.Gap = uint32(g.rng.Intn(span))
	rec.Op = trace.Store
	if g.rng.Bool(g.prof.ReadFrac) {
		rec.Op = trace.Load
	}

	if g.prof.HotFrac > 0 && g.rng.Bool(g.prof.HotFrac) {
		line := mem.LineOf(g.hotBase) + mem.Line(g.rng.Intn(g.prof.HotLines))
		off := mem.Addr(g.rng.Intn(mem.LineSize/8) * 8)
		rec.Addr = line.Addr() + off
	} else {
		rec.Addr = g.advance()
	}

	g.phaseN--
	if g.phaseN <= 0 {
		g.enterPhase()
	}
	return rec, true
}

// advance picks a stream, emits its next access, and retires/replaces it
// when its intended length is exhausted. Streams advance round-robin with
// occasional random jumps: loop nests walk their arrays in a regular
// interleave, not by uniform sampling (whose heavy-tailed gaps would
// fragment any finite stream tracker, in the simulator and in hardware
// alike).
func (g *Generator) advance() mem.Addr {
	var idx int
	if g.rng.Bool(0.15) {
		idx = g.rng.Intn(len(g.streams))
	} else {
		idx = g.rrIdx
		g.rrIdx = (g.rrIdx + 1) % len(g.streams)
	}
	s := &g.streams[idx]
	// Offset within the line spreads AccessesPerLine accesses evenly.
	step := mem.LineSize / g.prof.AccessesPerLine
	addr := s.line.Addr() + mem.Addr(s.accIdx*step)
	s.accLeft--
	s.accIdx++
	if s.accLeft > 0 {
		return addr
	}
	// Line finished: advance to the next line of the stream, or retire.
	s.left--
	if s.left <= 0 {
		g.TrueLengths.Observe(s.length)
		g.startStream(s)
		return addr
	}
	next := s.line.Next(s.dir)
	// Keep the stream inside the footprint; walking off an edge retires
	// it early (recorded with the distance actually covered).
	lo := mem.LineOf(g.base)
	hi := lo + mem.Line(g.prof.FootprintLines)
	if next < lo || next >= hi {
		g.TrueLengths.Observe(s.length - s.left)
		g.startStream(s)
		return addr
	}
	s.line = next
	s.accLeft = g.prof.AccessesPerLine
	s.accIdx = 0
	return addr
}
