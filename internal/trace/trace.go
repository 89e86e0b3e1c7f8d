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

// Source produces trace records. Workload generators and SliceSource
// implement it. Next returns ok=false when the trace is exhausted.
type Source interface {
	Next() (rec Record, ok bool)
}

// SliceSource adapts a []Record to a Source.
type SliceSource struct {
	recs []Record
	pos  int
}

// NewSliceSource returns a Source reading from recs.
func NewSliceSource(recs []Record) *SliceSource { return &SliceSource{recs: recs} }

// Next implements Source.
func (s *SliceSource) Next() (Record, bool) {
	if s.pos >= len(s.recs) {
		return Record{}, false
	}
	r := s.recs[s.pos]
	s.pos++
	return r, true
}

// Reset rewinds the source to the beginning.
func (s *SliceSource) Reset() { s.pos = 0 }

// Pos returns the index of the record the next Next call will return.
func (s *SliceSource) Pos() int { return s.pos }

// Skip advances the cursor n records without reading them, clamped to
// the end of the slice. Callers skipping records are responsible for
// accounting their retirement (see cpu.Thread.SkipRetired).
func (s *SliceSource) Skip(n int) {
	s.pos += n
	if s.pos > len(s.recs) {
		s.pos = len(s.recs)
	}
}

// Len returns the total number of records.
func (s *SliceSource) Len() int { return len(s.recs) }

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
