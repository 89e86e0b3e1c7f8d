package trace

import (
	"reflect"
	"testing"

	"asdsim/internal/mem"
)

func TestOpString(t *testing.T) {
	if Load.String() != "Load" || Store.String() != "Store" {
		t.Errorf("Op strings: %v %v", Load, Store)
	}
}

// pack packs every record of recs.
func pack(recs []Record) []Packed {
	out := make([]Packed, len(recs))
	for i, r := range recs {
		out[i] = Pack(r)
	}
	return out
}

// Every field of a record round-trips at its bounds, the byte offset
// within the line included, and Gap reads a packed gap without
// unpacking the rest.
func TestPackRoundTrip(t *testing.T) {
	for _, r := range []Record{
		{},
		{Gap: 1, Op: Store, Addr: 1},
		{Gap: MaxGap, Op: Load, Addr: MaxAddr},
		{Gap: MaxGap, Op: Store, Addr: MaxAddr},
		{Gap: 160, Op: Store, Addr: mem.Addr(1)<<44 + 12345*mem.LineSize + 120},
		{Gap: MaxGap - 1, Op: Load, Addr: mem.Addr(1)<<44 - 8},
	} {
		p := Pack(r)
		if got := p.Record(); got != r {
			t.Errorf("Pack(%+v).Record() = %+v", r, got)
		}
		if p.Gap() != r.Gap {
			t.Errorf("Pack(%+v).Gap() = %d", r, p.Gap())
		}
	}
	if MaxGap != 1<<18-1 || MaxAddr != 1<<45-1 {
		t.Errorf("bounds: MaxGap %d, MaxAddr %#x", MaxGap, MaxAddr)
	}
}

func TestCursor(t *testing.T) {
	recs := []Record{{Gap: 1, Op: Load, Addr: 100}, {Gap: 2, Op: Store, Addr: 200}, {Gap: 3, Op: Load, Addr: 300}}
	c := NewCursor(pack(recs))
	if r, ok := c.Next(); !ok || r != recs[0] || c.Pos() != 1 {
		t.Fatalf("Next = %+v, %v at pos %d", r, ok, c.Pos())
	}
	c.Skip(1)
	if got := Collect(c, 0); !reflect.DeepEqual(got, recs[2:]) {
		t.Errorf("after Skip(1), Collect = %v, want %v", got, recs[2:])
	}
	if _, ok := c.Next(); ok {
		t.Errorf("exhausted cursor returned a record")
	}
	c.Skip(5)
	if c.Pos() != len(recs) {
		t.Errorf("Skip past the end left pos %d, want %d", c.Pos(), len(recs))
	}
}

func TestCollectMax(t *testing.T) {
	recs := []Record{{Addr: 1}, {Addr: 2}, {Addr: 3}}
	got := Collect(NewCursor(pack(recs)), 2)
	if len(got) != 2 || got[1].Addr != 2 {
		t.Errorf("Collect(2) = %v", got)
	}
}

func TestLimit(t *testing.T) {
	recs := pack([]Record{{Addr: 1}, {Addr: 2}, {Addr: 3}})
	got := Collect(Limit(NewCursor(recs), 2), 0)
	if len(got) != 2 {
		t.Errorf("Limit(2) yielded %d records", len(got))
	}
	got = Collect(Limit(NewCursor(recs), 0), 0)
	if len(got) != 0 {
		t.Errorf("Limit(0) yielded %d records", len(got))
	}
}
