package prefetch

import (
	"asdsim/internal/mem"
	"asdsim/internal/stream"
)

// MSEngine is the interface a memory-side prefetch engine presents to the
// memory controller: it observes the MC-level demand-Read stream and
// nominates lines for the Low Priority Queue. core.Engine (Adaptive
// Stream Detection) satisfies this, as do the two Fig. 11 baselines
// below.
type MSEngine interface {
	// ObserveRead sees one demand Read at CPU cycle now and returns
	// lines to prefetch. The returned slice may alias a scratch buffer
	// owned by the engine and is valid only until the next ObserveRead
	// call: callers must consume it before observing again.
	ObserveRead(line mem.Line, now uint64) []mem.Line
	// Tick lets the engine expire internal state on quiet channels.
	Tick(now uint64)
}

// NextLine is the "no ASD + next-line prefetcher" baseline of Fig. 11: it
// prefetches line+1 after every demand Read, unconditionally.
type NextLine struct {
	// Issued counts emitted prefetches.
	Issued uint64

	out []mem.Line // reusable nomination scratch
}

// NewNextLine returns the next-line baseline engine.
func NewNextLine() *NextLine { return &NextLine{} }

// ObserveRead implements MSEngine.
//
//asd:hotpath
func (n *NextLine) ObserveRead(line mem.Line, _ uint64) []mem.Line {
	n.Issued++
	n.out = append(n.out[:0], line.Next(+1))
	return n.out
}

// Tick implements MSEngine.
//
//asd:hotpath
func (n *NextLine) Tick(uint64) {}

// P5StyleConfig parameterises the Power5-style in-MC baseline.
type P5StyleConfig struct {
	// Slots is the number of streams tracked.
	Slots int
	// Lifetime is the per-slot lifetime in CPU cycles.
	Lifetime uint64
}

// DefaultP5StyleConfig mirrors the ASD Stream Filter footprint so the
// Fig. 11 comparison isolates the decision policy, not table size.
func DefaultP5StyleConfig() P5StyleConfig { return P5StyleConfig{Slots: 8, Lifetime: 4096} }

// P5Style is the "no ASD + P5-style prefetcher" baseline of Fig. 11: a
// classic n=2 stream prefetcher in the memory controller. It waits for
// two consecutive Reads and then prefetches the next line on every
// subsequent stream advance; its stopping criterion is the stream dying —
// i.e. one useless prefetch per stream, exactly the cost the paper's
// introduction analyses. A new stream takes a vacant slot or is not
// tracked.
type P5Style struct {
	t stream.Table

	// Issued counts emitted prefetches.
	Issued uint64

	out []mem.Line // reusable nomination scratch
}

// NewP5Style returns the Power5-style in-MC baseline.
func NewP5Style(cfg P5StyleConfig) *P5Style {
	if cfg.Slots <= 0 || cfg.Lifetime == 0 {
		panic("prefetch: invalid P5Style config")
	}
	return &P5Style{t: stream.NewTable(cfg.Slots, cfg.Lifetime)}
}

// ObserveRead implements MSEngine.
//
//asd:hotpath
func (p *P5Style) ObserveRead(line mem.Line, now uint64) []mem.Line {
	p.t.Expire(now, nil)
	i, step := p.t.Match(line)
	switch {
	case i < 0:
		if v := p.t.Vacant(); v >= 0 {
			p.t.Start(v, line, now)
		}
		return nil
	case step == 0:
		p.t.Refresh(i, now)
		return nil
	}
	p.t.Extend(i, step, now)
	// n=2 policy: from the second consecutive Read onward, always pull
	// the next line.
	p.Issued++
	p.out = append(p.out[:0], line.Next(step))
	return p.out
}

// Tick implements MSEngine.
//
//asd:hotpath
func (p *P5Style) Tick(now uint64) { p.t.Expire(now, nil) }
