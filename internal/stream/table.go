package stream

import "asdsim/internal/mem"

// State is where a slot stands in its stream's life. A slot is born
// Fresh on a stream's first Read, commits to a direction on the second,
// and goes Vacant when its lifetime runs out or it is flushed. The two
// committed states order after the others.
type State uint8

const (
	// Vacant slots track nothing.
	Vacant State = iota
	// Fresh slots have seen one Read and no direction yet: a Read one
	// line above or below commits them.
	Fresh
	// Ascending slots follow a stream of increasing lines.
	Ascending
	// Descending slots follow a stream of decreasing lines.
	Descending
)

// Slot is one tracked stream.
type Slot struct {
	State State
	// Last is the stream's most recent line.
	Last mem.Line
	// Length counts the stream's Reads; it is 1 exactly while Fresh.
	Length int
	// ExpiresAt is the cycle at which the slot's lifetime runs out.
	ExpiresAt uint64
}

// Dir is the stream's direction. A new stream's direction is initialised
// Positive (§3.3), so only a Descending slot reports Down.
func (s Slot) Dir() mem.Direction {
	if s.State == Descending {
		return mem.Down
	}
	return mem.Up
}

// Table is a fixed set of stream slots with lifetime expiry. The Stream
// Filter, the processor-side prefetcher and the P5-style baseline all
// detect streams with it and differ only in what they do on a match and
// where a new stream goes.
type Table struct {
	// Slots is read-only outside the table's methods.
	Slots    []Slot
	lifetime uint64
	// minExpiry is a lower bound on the earliest ExpiresAt among live
	// slots (^uint64(0) when none can expire), letting Expire skip its
	// sweep while nothing has run out.
	minExpiry uint64
	committed int
}

// NewTable returns n vacant slots whose streams live lifetime cycles
// past their last Read.
func NewTable(n int, lifetime uint64) Table {
	return Table{Slots: make([]Slot, n), lifetime: lifetime, minExpiry: ^uint64(0)}
}

// Match returns the first live slot whose stream line repeats or
// continues, and the step from the slot's last line: 0 for a repeat, ±1
// for a continuation. A Fresh slot continues either way, a committed slot
// only in its direction. i is -1 when no slot matches.
//
//asd:hotpath
func (t *Table) Match(line mem.Line) (i, step int) {
	for i := range t.Slots {
		s := &t.Slots[i]
		switch d := line - s.Last; {
		case s.State == Vacant:
		case d == 0:
			return i, 0
		case d == 1 && s.State != Descending:
			return i, +1
		case d == ^mem.Line(0) && s.State != Ascending:
			return i, -1
		}
	}
	return -1, 0
}

// Extend advances slot i by step, the continuation Match reported,
// committing a Fresh slot to that direction, and restarts its lifetime.
//
//asd:hotpath
func (t *Table) Extend(i, step int, now uint64) {
	s := &t.Slots[i]
	if s.State == Fresh {
		s.State = Ascending
		if step < 0 {
			s.State = Descending
		}
		t.committed++
	}
	s.Last = s.Last.Next(step)
	s.Length++
	t.Refresh(i, now)
}

// Refresh restarts slot i's lifetime at cycle now.
//
//asd:hotpath
func (t *Table) Refresh(i int, now uint64) {
	at := now + t.lifetime
	t.Slots[i].ExpiresAt = at
	if at < t.minExpiry {
		t.minExpiry = at
	}
}

// Start puts a Fresh stream headed at line into slot i. Whatever the slot
// held is dropped without passing through an end callback.
//
//asd:hotpath
func (t *Table) Start(i int, line mem.Line, now uint64) {
	if t.Slots[i].State >= Ascending {
		t.committed--
	}
	t.Slots[i] = Slot{State: Fresh, Last: line, Length: 1}
	t.Refresh(i, now)
}

// Vacant returns the first vacant slot, or -1 when the table is full.
//
//asd:hotpath
func (t *Table) Vacant() int {
	for i := range t.Slots {
		if t.Slots[i].State == Vacant {
			return i
		}
	}
	return -1
}

// Committed returns the number of Ascending and Descending slots.
//
//asd:hotpath
func (t *Table) Committed() int { return t.committed }

// Expire vacates every slot whose lifetime has run out by cycle now,
// passing each to end first (nil ends them silently). While the earliest
// possible expiry is still in the future the sweep is skipped: no slot
// can have run out, so skipping is invisible.
//
//asd:hotpath
func (t *Table) Expire(now uint64, end func(Slot)) {
	if now < t.minExpiry {
		return
	}
	min := ^uint64(0)
	for i := range t.Slots {
		s := &t.Slots[i]
		switch {
		case s.State == Vacant:
		case s.ExpiresAt <= now:
			t.vacate(s, end)
		case s.ExpiresAt < min:
			min = s.ExpiresAt
		}
	}
	t.minExpiry = min
}

// Flush vacates every live slot, passing each to end first.
func (t *Table) Flush(end func(Slot)) {
	for i := range t.Slots {
		if s := &t.Slots[i]; s.State != Vacant {
			t.vacate(s, end)
		}
	}
	t.minExpiry = ^uint64(0)
}

func (t *Table) vacate(s *Slot, end func(Slot)) {
	if end != nil {
		end(*s) //asd:allow hotpath-noalloc end-of-stream callback is a detector's own method, itself checked
	}
	if s.State >= Ascending {
		t.committed--
	}
	*s = Slot{}
}
