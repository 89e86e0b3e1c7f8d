// Package prov is the simulator's prefetch-provenance layer: a
// deterministic, perturbation-free recorder of the full causal lineage
// behind every prefetch the ASD machinery issues — SLH epoch roll (with
// the LHTcurr/LHTnext snapshot that decided the epoch), stream-filter
// slot lifetime (birth, confirmations, direction, eviction), the
// inequality (5)/(6) decision itself, LPQ nomination/admission/drop,
// DRAM issue, Prefetch Buffer install, and the final outcome (PB hit,
// late, wasted, invalidated).
//
// Records live in a drop-oldest ring of fixed-size structs and carry
// content-derived IDs (FNV-64a over trace ID, op and sequence), so a
// stream re-recorded from the same deterministic run is byte-identical
// wherever it runs. The
// Recorder is an obs.Sink for the MC-side lifecycle events: the runner
// attaches it to the run's probe bus, which hands it only the kinds it
// declares, so a provenance-only run keeps every other probe site dark.
// It also exposes direct nil-guarded hooks for the richer ASD-side
// detail (decision witnesses, epoch snapshots, slot lifecycles) that the
// generic event vocabulary cannot carry.
//
// Like every telemetry layer in this tree, recording must not perturb
// the simulation: no locks, no goroutines, no wall clock, no
// allocation on the per-event path (the epoch-snapshot hook allocates,
// but only at the once-per-2000-reads epoch roll, off the per-cycle
// path). TestProvenanceDoesNotPerturbOutcomes pins the contract
// bit-for-bit.
package prov

import (
	"asdsim/internal/freelist"
	"asdsim/internal/mem"
	"asdsim/internal/obs"
	"asdsim/internal/slh"
)

// Op enumerates the lineage stages a Record can describe.
type Op uint8

const (
	// OpEpochRoll marks an SLH epoch boundary. V1 is the completed-epoch
	// count after the roll; the matching EpochSnap holds the tables.
	OpEpochRoll Op = iota
	// OpSlotBirth: a stream-filter slot was allocated for Line.
	OpSlotBirth
	// OpSlotExtend: a Read confirmed the stream (length grew, or a
	// length-1 slot flipped direction). Line is the new head; V1 the new
	// length; Aux the direction (see EncodeDir).
	OpSlotExtend
	// OpSlotEnd: the slot left the filter (lifetime expiry or epoch
	// flush) and its stream fed the SLH. Line is the final head; V1 the
	// final length; Aux the direction.
	OpSlotEnd
	// OpDecision: inequality (5)/(6) fired on a tracked Read at Line.
	// V1 = stream length k, V2 = chosen degree m, V3 packs the witness
	// values lht(k) (low 32 bits) and lht(k+m) (high 32 bits), Aux
	// encodes which inequality fired and which direction table decided
	// (see DecisionAux).
	OpDecision
	// OpNominate: a prefetch for Line entered the LPQ. V1 = depth,
	// V2 = ID of the causing OpDecision record, V3 = stream length k.
	OpNominate
	// OpDrop: a nomination or queued prefetch for Line was dropped.
	// V1 = depth, Aux = the obs.DropCause, and for nomination-time drops
	// V2/V3 link the causing decision like OpNominate.
	OpDrop
	// OpIssue: the Final Scheduler issued the LPQ head to DRAM.
	// V1 = depth, V2 = predicted completion cycle.
	OpIssue
	// OpInstall: the completed prefetch was installed into the PB.
	// V1 = depth.
	OpInstall
	// OpPBHit: a demand Read was satisfied by the PB. V1 = depth;
	// Aux = 1 when it was the late CAQ-head check.
	OpPBHit
	// OpLate: the prefetch completed with demand Reads already merged
	// onto it — useful but late. V1 = depth, V2 = waiters.
	OpLate
	// OpWasted: the PB line was discarded unused. V1 = depth, Aux = 0
	// for LRU eviction, 1 for write invalidation.
	OpWasted

	numOps
)

//asd:exhaustive
var opNames = [numOps]string{
	"epoch-roll", "slot-birth", "slot-extend", "slot-end", "decision",
	"nominate", "drop", "issue", "install", "pb-hit", "late", "wasted",
}

// NumOps is the number of defined lineage ops.
const NumOps = int(numOps)

// String implements fmt.Stringer.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "op?"
}

// DecisionAux packs an OpDecision's Aux byte: the inequality number in
// the low 7 bits (5 when degree 1, 6 for multi-line) and the descending
// table in the top bit.
func DecisionAux(down bool, degree int) uint8 {
	aux := uint8(5)
	if degree > 1 {
		aux = 6
	}
	if down {
		aux |= decisionDownBit
	}
	return aux
}

const decisionDownBit = 0x80

// DecodeDecisionAux splits an OpDecision Aux byte.
func DecodeDecisionAux(aux uint8) (down bool, ineq int) {
	return aux&decisionDownBit != 0, int(aux &^ decisionDownBit)
}

// PackWitness packs the two lht values an OpDecision compared into V3.
func PackWitness(lhtK, lhtKm uint32) int64 {
	return int64(lhtK) | int64(lhtKm)<<32
}

// UnpackWitness recovers lht(k) and lht(k+m) from an OpDecision's V3.
func UnpackWitness(v3 int64) (lhtK, lhtKm uint32) {
	return uint32(uint64(v3)), uint32(uint64(v3) >> 32)
}

// EncodeDir maps a stream direction to a slot record's Aux byte.
func EncodeDir(dir int8) uint8 {
	if dir < 0 {
		return 1
	}
	return 0
}

// DecodeDir is EncodeDir's inverse, returning +1 or -1.
func DecodeDir(aux uint8) int {
	if aux == 1 {
		return -1
	}
	return 1
}

// Record is one compact lineage entry. Cycle is in CPU cycles; Epoch is
// the number of completed SLH epoch rolls on the record's thread at
// record time (so a Record with Epoch = N was decided by the tables the
// roll with EpochSnap.Epoch == N installed). ID is content-derived and
// never zero; the op-specific fields are documented on each Op.
type Record struct {
	Op     Op       `json:"op"`
	Aux    uint8    `json:"aux,omitempty"`
	Thread int32    `json:"thread,omitempty"`
	Epoch  uint32   `json:"epoch"`
	Cycle  uint64   `json:"cycle"`
	Line   mem.Line `json:"line,omitempty"`
	ID     uint64   `json:"id"`
	V1     int64    `json:"v1,omitempty"`
	V2     int64    `json:"v2,omitempty"`
	V3     int64    `json:"v3,omitempty"`
}

// EpochSnap is the LHT snapshot captured at one SLH epoch roll, after
// the stream filter's flush folded live streams in but before the
// Curr/Next rollover: Curr is the table that decided the epoch that
// just ended, Next is what EpochEnd installs for the epoch that begins.
// Epoch is the completed-roll count the boundary established — records
// stamped Epoch == N were decided by this snapshot's Next tables.
type EpochSnap struct {
	Thread   int32    `json:"thread,omitempty"`
	Epoch    uint32   `json:"epoch"`
	Cycle    uint64   `json:"cycle"`
	UpCurr   []uint32 `json:"up_curr"`
	UpNext   []uint32 `json:"up_next"`
	DownCurr []uint32 `json:"down_curr"`
	DownNext []uint32 `json:"down_next"`
}

// Stream is one run's flushed provenance: the surviving ring records in
// firing order plus every epoch snapshot. Dropped counts ring records
// lost to wrap-around (the oldest are discarded first).
type Stream struct {
	TraceID string
	Dropped uint64
	Records []Record
	Epochs  []EpochSnap
}

// Options tunes a Recorder; the zero value means defaults.
type Options struct {
	// TraceID seeds the content-derived record IDs; use
	// farm.TraceID(spec key) under the farm, or any stable label.
	TraceID string
	// RingSize bounds retained records, rounded up to a power of two
	// (default 1 << 15 records of 64 B, a 2 MiB ring). Only rings no
	// larger than the default are recycled across recorders.
	RingSize int
}

// defaultRing is the ring bound of a zero Options.RingSize, and the
// largest bound whose rings Stream hands to the free list.
const defaultRing = 1 << 15

// maxEpochs bounds retained epoch snapshots; later rolls keep their
// ring records but drop the table snapshot.
const maxEpochs = 4096

// maxThreads bounds the per-thread epoch counters (SMT-2 today; sized
// ahead for the roadmap's SMT-4/8 lift).
const maxThreads = 8

// lastDecision lets nomination-time records link to the OpDecision that
// caused them: the engine's decision and the MC's nominations for it
// fire at the same CPU cycle, in order, on the one simulation goroutine.
type lastDecision struct {
	ok     bool
	thread int32
	cycle  uint64
	id     uint64
	k      int64
}

// Recorder captures one run's provenance. It is driven from the run's
// single simulation goroutine (like every obs sink) and must never be
// shared across concurrent runs.
type Recorder struct {
	traceID string
	idSeed  uint64 // FNV-64a of traceID, the precomputed deriveID prefix
	// ring is an idle one from the free list, or starts small and grows
	// up to ringCap as records arrive, so a low-traffic run in a cold
	// process never pays for the full window; wrap-around discarding
	// begins only at ringCap.
	ring    []Record
	ringCap int
	head    uint64 // total records pushed; ring index is head & (len-1)
	seq     uint64

	epochs []EpochSnap

	curEpoch [maxThreads]uint32
	lastDec  lastDecision
	counts   [numOps]uint64

	stream *Stream // set by the first Stream call, which ends the recording
}

// rings holds the record rings of streamed recorders, keyed by the
// ringCap they serve. It keeps an idle ring per bound for the life of
// the process, so it takes no ring of a bound above defaultRing.
var rings freelist.List[int, []Record]

// New returns a Recorder with the given options.
func New(opts Options) *Recorder {
	size := opts.RingSize
	if size <= 0 {
		size = defaultRing
	}
	// Round up to a power of two so the ring index is a mask.
	n := 1
	for n < size {
		n <<= 1
	}
	seed := uint64(fnvOffset64)
	for i := 0; i < len(opts.TraceID); i++ {
		seed = (seed ^ uint64(opts.TraceID[i])) * fnvPrime64
	}
	ring, ok := rings.Take(n)
	if !ok {
		ring = make([]Record, min(n, initialRing))
	}
	return &Recorder{
		traceID: opts.TraceID,
		idSeed:  seed,
		ring:    ring,
		ringCap: n,
	}
}

// initialRing is the ring's starting size (64 KB of records): small
// enough not to disturb the simulator's cache working set, large enough
// that most short runs never grow.
const initialRing = 1 << 10

// TraceID returns the recorder's trace identity.
func (r *Recorder) TraceID() string { return r.traceID }

// Count returns how many records of op were pushed (including any the
// ring has since dropped).
func (r *Recorder) Count(op Op) uint64 {
	if r == nil || int(op) >= len(r.counts) {
		return 0
	}
	return r.counts[op]
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// deriveID mixes (traceID, op, seq) into a content-derived record ID
// and never returns zero. The trace-ID prefix is folded once at
// construction (idSeed); per record three multiplies and an xorshift
// remain — every step is bijective in seq for a fixed (seed, op), so
// IDs are collision-free within an op's sequence, and the whole chain
// is deterministic for replay. Cheap enough to inline on the
// simulation hot path.
func (r *Recorder) deriveID(op Op, seq uint64) uint64 {
	h := (r.idSeed ^ uint64(op)) * fnvPrime64
	h = (h ^ seq) * fnvPrime64
	h ^= h >> 32
	h *= fnvPrime64
	if h == 0 {
		h = 1
	}
	return h
}

// push stamps, IDs and ring-writes one record, returning its ID.
func (r *Recorder) push(rec Record) uint64 {
	p := r.next(rec.Op, rec.Thread)
	rec.ID = p.ID
	rec.Epoch = p.Epoch
	*p = rec
	return rec.ID
}

// next reserves the ring entry for an (op, thread) record that just
// fired: it advances the sequence, stamps the content-derived ID and
// the thread's current epoch, and returns the entry for the caller to
// finish filling in place. Hot paths use it directly so a record is
// written exactly once, into the ring, with no intermediate copies; the
// pointer is only valid until the next reservation.
func (r *Recorder) next(op Op, thread int32) *Record {
	r.seq++
	r.counts[op]++
	if int(r.head) == len(r.ring) && len(r.ring) < r.ringCap {
		r.grow()
	}
	rec := &r.ring[int(r.head)&(len(r.ring)-1)]
	r.head++
	*rec = Record{Op: op, Thread: thread,
		Epoch: r.curEpoch[int(thread)&(maxThreads-1)],
		ID:    r.deriveID(op, r.seq)}
	return rec
}

// grow enlarges the ring before the first wrap. Kept out of push so the
// hot path stays within the inlining budget. No wrap has happened yet
// (head <= len), so the live records sit contiguously at [0:head) and a
// plain copy preserves order. Quadrupling (not doubling) keeps total
// alloc+copy traffic for a run that fills the ring near 1.3x the final
// size instead of 2x.
func (r *Recorder) grow() {
	grown := make([]Record, min(4*len(r.ring), r.ringCap))
	copy(grown, r.ring)
	r.ring = grown
}

// linkDecision attaches the causing decision to a nomination-time
// record when it fired at the same cycle (V2 = decision ID, V3 = stream
// length), inheriting the deciding thread.
func (r *Recorder) linkDecision(rec *Record) {
	if r.lastDec.ok && r.lastDec.cycle == rec.Cycle {
		rec.V2 = int64(r.lastDec.id)
		rec.V3 = r.lastDec.k
		rec.Thread = r.lastDec.thread
	}
}

// Kinds implements the bus's routing: the recorder reads the seven
// MC-side prefetch lifecycle kinds (the ASD-side stages arrive through
// the richer direct hooks).
func (r *Recorder) Kinds() obs.KindSet {
	return obs.KindsOf(obs.KindMCPFNominate, obs.KindMCPFDrop, obs.KindMCPFIssue,
		obs.KindMCPFInstall, obs.KindMCPBHit, obs.KindMCPFLate, obs.KindMCPFWasted)
}

// Emit implements obs.Sink: the MC-side prefetch lifecycle events are
// mapped into lineage records; everything else is outside Kinds.
//
//asd:hotpath
func (r *Recorder) Emit(e obs.Event) {
	if r == nil {
		return
	}
	//asd:exhaustive
	switch e.Kind {
	case obs.KindMCPFNominate:
		rec := r.next(OpNominate, e.Thread)
		rec.Cycle, rec.Line, rec.V1 = e.Cycle, e.Line, e.V1
		r.linkDecision(rec)
	case obs.KindMCPFDrop:
		rec := r.next(OpDrop, e.Thread)
		rec.Cycle, rec.Line, rec.Aux, rec.V1 = e.Cycle, e.Line, uint8(e.V2), e.V1
		// Only nomination-path drops share the decision's cycle by
		// construction; queue-time drops must not inherit a link.
		if obs.DropCause(e.V2).AtNomination() {
			r.linkDecision(rec)
		}
	case obs.KindMCPFIssue:
		rec := r.next(OpIssue, e.Thread)
		rec.Cycle, rec.Line, rec.V1, rec.V2 = e.Cycle, e.Line, e.V1, e.V2
	case obs.KindMCPFInstall:
		rec := r.next(OpInstall, e.Thread)
		rec.Cycle, rec.Line, rec.V1 = e.Cycle, e.Line, e.V1
	case obs.KindMCPBHit:
		rec := r.next(OpPBHit, e.Thread)
		rec.Cycle, rec.Line, rec.Aux, rec.V1 = e.Cycle, e.Line, uint8(e.V1), e.V2
	case obs.KindMCPFLate:
		rec := r.next(OpLate, e.Thread)
		rec.Cycle, rec.Line, rec.V1, rec.V2 = e.Cycle, e.Line, e.V1, e.V2
	case obs.KindMCPFWasted:
		rec := r.next(OpWasted, e.Thread)
		rec.Cycle, rec.Line, rec.Aux, rec.V1 = e.Cycle, e.Line, uint8(e.V2), e.V1
	case obs.KindASDEpochRoll:
		// Handled by the OnEpochRoll hook, which also sees the tables.
	case obs.KindMCEnqueue, obs.KindMCSchedule, obs.KindMCIssue, obs.KindMCComplete,
		obs.KindMCQueues, obs.KindMCBankConflict, obs.KindDRAMAccess, obs.KindDRAMRefresh,
		obs.KindCacheAccess, obs.KindCPUStall, obs.KindASDPrefetchDecision, obs.KindSchedPolicy:
		// Not part of a prefetch's lineage, and outside Kinds.
	}
}

// OnDecision records an inequality (5)/(6) firing: the k-th element of
// a stream at line triggered a degree-m prefetch, witnessed by lht(k)
// and lht(k+m) from the deciding direction table. Called by the ASD
// engine on its hot path; nil-safe.
//
//asd:hotpath
func (r *Recorder) OnDecision(thread int32, cycle uint64, line mem.Line, down bool, k, m int, lhtK, lhtKm uint32) {
	if r == nil {
		return
	}
	rec := r.next(OpDecision, thread)
	rec.Cycle, rec.Line, rec.Aux = cycle, line, DecisionAux(down, m)
	rec.V1, rec.V2, rec.V3 = int64(k), int64(m), PackWitness(lhtK, lhtKm)
	r.lastDec = lastDecision{ok: true, thread: thread, cycle: cycle, id: rec.ID, k: int64(k)}
}

// OnSlot records a stream-filter slot lifecycle stage (OpSlotBirth,
// OpSlotExtend or OpSlotEnd). Called through the filter's slot hook on
// the hot path; nil-safe.
//
//asd:hotpath
func (r *Recorder) OnSlot(thread int32, op Op, cycle uint64, line mem.Line, length int, dir int8) {
	if r == nil {
		return
	}
	rec := r.next(op, thread)
	rec.Cycle, rec.Line, rec.Aux, rec.V1 = cycle, line, EncodeDir(dir), int64(length)
}

// OnEpochRoll snapshots both direction tables at an SLH epoch boundary.
// The engine calls it after flushing the stream filter but before
// EpochEnd, so Curr is the ending epoch's deciding table and Next is
// what the rollover installs. epoch is the completed-roll count the
// boundary establishes (e.Epochs + 1 at call time). Allocates — but
// only once per EpochLen reads, the same off-cycle budget as the
// engine's own epoch bookkeeping. Nil-safe.
func (r *Recorder) OnEpochRoll(thread int32, cycle, epoch uint64, up, down *slh.Table) {
	if r == nil {
		return
	}
	r.curEpoch[int(thread)&(maxThreads-1)] = uint32(epoch)
	r.push(Record{Op: OpEpochRoll, Thread: thread, Cycle: cycle, V1: int64(epoch)})
	if len(r.epochs) >= maxEpochs {
		return
	}
	uc, un := up.Snapshot()
	dc, dn := down.Snapshot()
	r.epochs = append(r.epochs, EpochSnap{
		Thread: thread, Epoch: uint32(epoch), Cycle: cycle,
		UpCurr: uc, UpNext: un, DownCurr: dc, DownNext: dn,
	})
}

// Stream flushes the recorder: surviving ring records oldest-first,
// copied out, plus the epoch snapshots. It ends the recording: a ring
// of a bound up to defaultRing goes back to the free list for a later
// recorder, so nothing may be recorded afterwards, and later calls
// return the same stream.
func (r *Recorder) Stream() *Stream {
	if r == nil {
		return &Stream{}
	}
	if r.stream != nil {
		return r.stream
	}
	n := r.head
	size := uint64(len(r.ring))
	dropped := uint64(0)
	if n > size {
		dropped = n - size
		n = size
	}
	recs := make([]Record, n)
	// Oldest-first is [head-n, head); split at most once around the
	// ring's wrap point so both halves move as bulk copies.
	start := int(r.head-n) & (len(r.ring) - 1)
	m := copy(recs, r.ring[start:min(start+int(n), len(r.ring))])
	copy(recs[m:], r.ring[:int(n)-m])
	if r.ringCap <= defaultRing {
		rings.Put(r.ringCap, r.ring)
	}
	r.ring = nil
	r.stream = &Stream{TraceID: r.traceID, Dropped: dropped, Records: recs, Epochs: r.epochs}
	return r.stream
}
