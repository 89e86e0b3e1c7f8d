// Package prefetch implements the baseline prefetchers the paper
// evaluates against: the Power5+'s processor-side sequential stream
// prefetcher (§4.2), and the two memory-controller-resident baselines of
// Fig. 11 — a next-line prefetcher and a Power5-style stream prefetcher.
package prefetch

import (
	"fmt"

	"asdsim/internal/mem"
	"asdsim/internal/stream"
)

// PSConfig parameterises the processor-side prefetcher.
type PSConfig struct {
	// DetectEntries is the size of the stream detection unit (12 on the
	// Power5+).
	DetectEntries int
	// MaxStreams is how many confirmed streams prefetch concurrently (8).
	MaxStreams int
	// L2Ahead is how far ahead of the demand stream the L2-destined
	// prefetch runs; the L1-destined prefetch runs one line ahead.
	L2Ahead int
	// Lifetime is the detection-entry lifetime in CPU cycles.
	Lifetime uint64
}

// DefaultPSConfig matches the paper's description of the Power5+ unit:
// 12 detection entries, 8 concurrent streams; it "waits to issue
// prefetches until it detects two consecutive cache misses" and in steady
// state keeps one extra line in L1 and one further line in L2.
func DefaultPSConfig() PSConfig {
	return PSConfig{DetectEntries: 12, MaxStreams: 8, L2Ahead: 5, Lifetime: 8192}
}

// Request is one prefetch the PS unit wants performed.
type Request struct {
	Line mem.Line
	// IntoL1 selects the fill depth: true brings the line into L1 (and
	// L2); false stages it in L2 only.
	IntoL1 bool
}

// PS is the Power5+-style processor-side stream prefetcher. It observes
// L1 demand misses and emits prefetch requests that the CPU model turns
// into cache fills or memory reads (which reach the memory controller
// indistinguishable from demand reads, as the paper notes). Its
// detection entries are a stream.Table; a committed slot is a confirmed
// stream.
type PS struct {
	cfg PSConfig
	t   stream.Table

	// Issued counts prefetch requests emitted.
	Issued uint64
	// Confirmations counts streams that reached confirmed state.
	Confirmations uint64

	out []Request // reusable request scratch
}

// Validate reports whether NewPS would reject cfg: it needs detection
// entries, concurrent streams, an L2-ahead distance of at least one
// line and a lifetime.
func (c *PSConfig) Validate() error {
	if c.DetectEntries <= 0 || c.MaxStreams <= 0 || c.L2Ahead < 1 || c.Lifetime == 0 {
		return fmt.Errorf("prefetch: invalid PS config %+v", *c)
	}
	return nil
}

// NewPS returns a processor-side prefetcher. It panics on a cfg that
// Validate rejects.
func NewPS(cfg PSConfig) *PS {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	return &PS{cfg: cfg, t: stream.NewTable(cfg.DetectEntries, cfg.Lifetime)}
}

// ObserveMiss presents an L1 demand-miss line at CPU cycle now and
// returns the prefetches to perform. The returned slice aliases a
// scratch buffer owned by the PS unit and is valid only until the next
// ObserveMiss call.
//
//asd:hotpath
func (p *PS) ObserveMiss(line mem.Line, now uint64) []Request {
	p.t.Expire(now, nil)
	i, step := p.t.Match(line)
	switch {
	case i < 0:
		p.allocate(line, now)
		return nil
	case step == 0:
		// Re-miss of the tracked line (MSHR merge window): refresh, do
		// not allocate a duplicate entry.
		p.t.Refresh(i, now)
		return nil
	case p.t.Slots[i].State == stream.Fresh:
		// Second consecutive miss: confirm if a stream slot is free
		// (MaxStreams bounds confirmed entries).
		if p.t.Committed() >= p.cfg.MaxStreams {
			return nil
		}
		p.t.Extend(i, step, now)
		p.Confirmations++
		// Confirmation: pull only the next line. The L2-bound distance
		// ramps on subsequent advances, so a stream that dies young has
		// wasted at most one prefetch — the cost the paper's
		// introduction attributes to an n=2 policy.
		p.Issued++
		p.out = append(p.out[:0], Request{Line: line.Next(step), IntoL1: true})
		return p.out
	}
	p.t.Extend(i, step, now)
	// Steady state: one line ahead into L1, and into L2 a distance that
	// grows by one per advance from 1 at confirmation up to L2Ahead.
	depth := min(p.t.Slots[i].Length-1, p.cfg.L2Ahead)
	p.out = append(p.out[:0],
		Request{Line: line.Next(step), IntoL1: true},
		Request{Line: line.Next(step * depth), IntoL1: false},
	)
	p.Issued += 2
	return p.out
}

// allocate starts a new potential stream at line. It takes the first
// vacant entry. In a full table the victim is entry 0, unless an
// unconfirmed entry expires sooner: then it is the unconfirmed entry that
// expires first. So a confirmed stream in entry 0 can be evicted while
// unconfirmed entries stay.
//
//asd:hotpath
func (p *PS) allocate(line mem.Line, now uint64) {
	victim := p.t.Vacant()
	if victim < 0 {
		victim = 0
		for i, s := range p.t.Slots {
			if s.State == stream.Fresh && s.ExpiresAt < p.t.Slots[victim].ExpiresAt {
				victim = i
			}
		}
	}
	p.t.Start(victim, line, now)
}

// ActiveStreams returns the number of confirmed streams (reporting).
func (p *PS) ActiveStreams() int { return p.t.Committed() }
