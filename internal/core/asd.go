// Package core implements the paper's primary contribution: Adaptive
// Stream Detection (§3.1–§3.4) — a prefetch engine that modulates stream
// prefetching aggressiveness with dynamically gathered Stream Length
// Histograms — and Adaptive Scheduling (§3.5), which selects among five
// prefetch-priority policies using memory-system conflict feedback.
package core

import (
	"fmt"

	"asdsim/internal/mem"
	"asdsim/internal/obs"
	"asdsim/internal/obs/prov"
	"asdsim/internal/slh"
	"asdsim/internal/stats"
	"asdsim/internal/stream"
)

// Config parameterises one ASD engine (one hardware thread's worth of
// detection state; the paper replicates this per thread).
type Config struct {
	Filter stream.Config
	SLH    slh.Config
	// MaxDegree bounds multi-line prefetching via inequality (6).
	// Degree 1 reproduces the paper's evaluated configuration; the paper
	// describes but does not evaluate higher degrees.
	MaxDegree int
	// KeepHistory retains every epoch's reads-weighted SLH (Fig. 3
	// plots per-epoch histograms); off by default to keep runs lean.
	KeepHistory bool
}

// DefaultConfig returns the paper's evaluated configuration: an 8-slot
// Stream Filter, 16-entry LHT pairs per direction, 2000-read epochs,
// single-line prefetch.
func DefaultConfig() Config {
	return Config{
		Filter:    stream.DefaultConfig(),
		SLH:       slh.DefaultConfig(),
		MaxDegree: 1,
	}
}

// Engine is one thread's Adaptive Stream Detection unit: a Stream Filter
// feeding per-direction Likelihood Table pairs, with epoch rollover.
type Engine struct {
	cfg    Config
	filter *stream.Filter
	up     *slh.Table
	down   *slh.Table

	readsInEpoch int

	// ApproxLengths accumulates the filter-approximated stream-length
	// distribution over the whole run (one observation per stream, as
	// the finite filter saw them); Fig. 16 compares this against ground
	// truth.
	ApproxLengths *stats.Histogram

	// epochAccum gathers the current epoch's reads-weighted SLH;
	// lastEpochSLH snapshots it at each boundary (paper Figs. 2 and 3
	// plot exactly this).
	epochAccum   *stats.Histogram
	lastEpochSLH *stats.Histogram
	history      []*stats.Histogram

	// PrefetchDecisions and PrefetchesIssued count decision outcomes.
	PrefetchDecisions uint64
	PrefetchesIssued  uint64

	bus *obs.Bus // nil when no observer is attached

	// prov records prefetch provenance when attached (nil otherwise);
	// thread identifies this engine in the shared recorder.
	prov   *prov.Recorder
	thread int32

	out []mem.Line // reusable nomination scratch
}

// Validate reports the first problem NewEngine would reject: a
// MaxDegree below 1, or a Stream Filter or SLH config that
// stream.NewFilter or slh.New would reject.
func (c *Config) Validate() error {
	if c.MaxDegree < 1 {
		return fmt.Errorf("core: MaxDegree must be >= 1, got %d", c.MaxDegree)
	}
	if err := c.Filter.Validate(); err != nil {
		return err
	}
	return c.SLH.Validate()
}

// NewEngine returns an Engine for cfg. It panics on a cfg that Validate
// rejects.
func NewEngine(cfg Config) *Engine {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	e := &Engine{
		cfg:           cfg,
		up:            slh.New(cfg.SLH),
		down:          slh.New(cfg.SLH),
		ApproxLengths: stats.NewHistogram(cfg.SLH.MaxLength),
		epochAccum:    stats.NewHistogram(cfg.SLH.MaxLength),
		lastEpochSLH:  stats.NewHistogram(cfg.SLH.MaxLength),
	}
	e.filter = stream.NewFilter(cfg.Filter, e.onStreamEnd)
	return e
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// SetObserver attaches a probe bus (nil detaches).
func (e *Engine) SetObserver(b *obs.Bus) { e.bus = b }

// SetProv attaches a provenance recorder (nil detaches) identifying
// this engine as thread. It wires the stream filter's slot-lifecycle
// hook through to the recorder; attach before the run starts.
func (e *Engine) SetProv(r *prov.Recorder, thread int32) {
	e.prov = r
	e.thread = thread
	if r == nil {
		e.filter.SetSlotHook(nil)
		return
	}
	e.filter.SetSlotHook(func(op stream.SlotOp, now uint64, line mem.Line, length int, dir mem.Direction) {
		var pop prov.Op
		switch op {
		case stream.SlotBirth:
			pop = prov.OpSlotBirth
		case stream.SlotExtend:
			pop = prov.OpSlotExtend
		case stream.SlotEnd:
			pop = prov.OpSlotEnd
		default:
			return
		}
		r.OnSlot(thread, pop, now, line, length, int8(dir))
	})
}

// onStreamEnd routes a completed stream into the direction's LHT pair.
// A length-1 stream has no direction (the Stream Filter only commits to
// Negative on the second access, §3.3), so singles are folded into both
// tables: each direction's lht(1) then correctly counts "reads that did
// not continue in this direction", keeping inequality (5) conservative on
// stream-free traffic in both directions.
//
//asd:hotpath
func (e *Engine) onStreamEnd(length int, dir mem.Direction) {
	if length == 1 {
		e.up.StreamEnded(1)
		e.down.StreamEnded(1)
	} else if dir == mem.Down {
		e.down.StreamEnded(length)
	} else {
		e.up.StreamEnded(length)
	}
	e.ApproxLengths.Observe(length)
	e.epochAccum.ObserveN(length, uint64(length))
}

// ObserveRead presents one demand Read (line, at CPU cycle now) to the
// engine and returns the lines to prefetch (possibly none). The decision
// follows §3.4: the Stream Filter classifies the Read as the k-th element
// of a stream; inequality (5)/(6) against the direction's LHTcurr decides
// whether and how far to prefetch. The returned slice aliases a scratch
// buffer owned by the engine and is valid only until the next call.
//
//asd:hotpath
func (e *Engine) ObserveRead(line mem.Line, now uint64) []mem.Line {
	o := e.filter.Observe(line, now)
	e.readsInEpoch++
	if e.readsInEpoch >= e.cfg.SLH.EpochLen {
		e.rollEpoch(now)
	}
	if !o.Tracked {
		// Filter overflow: the SLH was updated as if a length-1 stream
		// were seen, but no prefetch is generated (§3.3).
		return nil
	}
	e.PrefetchDecisions++
	// A new stream's direction is initialized Positive (§3.3), so the
	// k=1 decision consults the ascending table only; the descending
	// table takes over once the second access commits the direction.
	out := e.out[:0]
	tbl := e.up
	if o.Length > 1 && o.Dir == mem.Down {
		tbl = e.down
	}
	if d := tbl.PrefetchDegree(o.Length, e.cfg.MaxDegree); d > 0 {
		out = appendRun(out, line, int(o.Dir), d)
		if e.prov != nil {
			lhtK, lhtKm := tbl.Witness(o.Length, d)
			e.prov.OnDecision(e.thread, now, line, tbl == e.down, o.Length, d, lhtK, lhtKm)
		}
	}
	e.out = out
	e.PrefetchesIssued += uint64(len(out))
	if e.bus.On(obs.KindASDPrefetchDecision) {
		e.bus.Emit(obs.Event{Kind: obs.KindASDPrefetchDecision, Cycle: now, Line: line,
			V1: int64(o.Length), V2: int64(len(out))})
	}
	return out
}

// appendRun appends degree lines starting one step from line in dir.
func appendRun(out []mem.Line, line mem.Line, dir, degree int) []mem.Line {
	for i := 1; i <= degree; i++ {
		out = append(out, line.Next(dir*i))
	}
	return out
}

// Tick lets the engine retire expired streams on quiet channels.
//
//asd:hotpath
func (e *Engine) Tick(now uint64) { e.filter.Tick(now) }

// rollEpoch flushes the filter (folding live streams into LHTnext) and
// rolls both directions' tables.
//
//asd:allow hotpath-noalloc epoch roll runs once per EpochLen stream-ends, off the per-cycle path, and snapshots the SLH
func (e *Engine) rollEpoch(now uint64) {
	e.filter.FlushEpoch()
	if e.prov != nil {
		// After the flush (live streams folded into LHTnext), before the
		// rollover: the snapshot's Curr decided the ending epoch, Next is
		// what EpochEnd installs for the one beginning.
		e.prov.OnEpochRoll(e.thread, now, e.up.Epochs+1, e.up, e.down)
	}
	e.up.EpochEnd()
	e.down.EpochEnd()
	e.readsInEpoch = 0
	e.lastEpochSLH = e.epochAccum.Clone()
	if e.cfg.KeepHistory {
		e.history = append(e.history, e.lastEpochSLH.Clone())
	}
	e.epochAccum.Reset()
	if e.bus.On(obs.KindASDEpochRoll) {
		e.bus.Emit(obs.Event{Kind: obs.KindASDEpochRoll, Cycle: now, V1: int64(e.up.Epochs)})
	}
}

// EpochHistory returns the per-epoch SLHs collected so far (empty unless
// Config.KeepHistory is set).
func (e *Engine) EpochHistory() []*stats.Histogram { return e.history }

// Epochs returns the number of completed epochs.
func (e *Engine) Epochs() uint64 { return e.up.Epochs }

// SLHUp exposes the ascending-direction table for reporting.
func (e *Engine) SLHUp() *slh.Table { return e.up }

// Filter exposes the stream filter (reporting/tests).
func (e *Engine) Filter() *stream.Filter { return e.filter }

// LastEpochSLH returns the reads-weighted Stream Length Histogram of the
// most recently completed epoch — what the paper's Figs. 2 and 3 plot.
func (e *Engine) LastEpochSLH() *stats.Histogram { return e.lastEpochSLH.Clone() }
