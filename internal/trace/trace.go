// Package trace defines the execution-trace representation that drives the
// simulator.
//
// A trace is a flat sequence of records. Each record describes one memory
// operation together with the number of non-memory instructions that
// precede it, which is all the timing model needs: compute instructions
// are accounted analytically, memory operations walk the cache hierarchy.
package trace

import "asdsim/internal/mem"

// Op is the kind of memory operation a record performs.
type Op uint8

const (
	// Load is a data read.
	Load Op = iota
	// Store is a data write.
	Store
)

// String implements fmt.Stringer.
func (o Op) String() string {
	if o == Store {
		return "Store"
	}
	return "Load"
}

// Record is one memory operation in a trace.
type Record struct {
	// Gap is the number of non-memory instructions executed before this
	// operation (since the previous record).
	Gap uint32
	// Op is the operation kind.
	Op Op
	// Addr is the virtual=physical byte address accessed.
	Addr mem.Addr
}

// Packed is a Record in one 64-bit word, the form a materialized trace
// keeps: bit 0 holds Op, bits 1-18 Gap and bits 19-63 Addr. Packing is
// lossless for a Load or Store whose Gap is at most MaxGap and whose
// Addr is at most MaxAddr; workload.Profile.Validate refuses any profile
// whose records could exceed them.
type Packed uint64

const (
	gapBits   = 18
	addrShift = 1 + gapBits

	// MaxGap is the largest Gap a Packed record holds.
	MaxGap = 1<<gapBits - 1
	// MaxAddr is the largest Addr a Packed record holds: 45 bits, room
	// for two SMT threads' 2^44-byte address ranges.
	MaxAddr = mem.Addr(1)<<(64-addrShift) - 1
)

// Pack packs r, which must fit (see Packed).
func Pack(r Record) Packed {
	return Packed(r.Addr)<<addrShift | Packed(r.Gap)<<1 | Packed(r.Op&1)
}

// Record unpacks p.
func (p Packed) Record() Record {
	return Record{Gap: p.Gap(), Op: Op(p & 1), Addr: mem.Addr(p >> addrShift)}
}

// Gap returns p's compute gap without unpacking the rest.
func (p Packed) Gap() uint32 { return uint32(p>>1) & MaxGap }

// Source produces trace records. Workload generators and Cursor
// implement it. Next returns ok=false when the trace is exhausted.
type Source interface {
	Next() (rec Record, ok bool)
}

// Cursor reads a packed trace in order: the one source a simulated
// thread fetches its records from.
type Cursor struct {
	recs []Packed
	pos  int
}

// NewCursor returns a cursor at the first of recs.
func NewCursor(recs []Packed) *Cursor { return &Cursor{recs: recs} }

// Next implements Source.
func (c *Cursor) Next() (Record, bool) {
	if c.pos >= len(c.recs) {
		return Record{}, false
	}
	p := c.recs[c.pos]
	c.pos++
	return p.Record(), true
}

// Pos returns the index of the record the next Next call will return.
func (c *Cursor) Pos() int { return c.pos }

// Skip advances the cursor n records without reading them, clamped to
// the end of the trace. Callers skipping records are responsible for
// accounting their retirement (see cpu.Thread.SkipRetired).
func (c *Cursor) Skip(n int) {
	c.pos += n
	if c.pos > len(c.recs) {
		c.pos = len(c.recs)
	}
}

// Collect drains up to max records from src (all records if max <= 0).
func Collect(src Source, max int) []Record {
	var out []Record
	for max <= 0 || len(out) < max {
		r, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	return out
}

// Limit wraps src, stopping after n records.
func Limit(src Source, n int) Source { return &limitSource{src: src, n: n} }

type limitSource struct {
	src Source
	n   int
}

func (l *limitSource) Next() (Record, bool) {
	if l.n <= 0 {
		return Record{}, false
	}
	l.n--
	return l.src.Next()
}
