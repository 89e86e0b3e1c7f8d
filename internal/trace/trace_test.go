package trace

import (
	"reflect"
	"testing"
)

func TestOpString(t *testing.T) {
	if Load.String() != "Load" || Store.String() != "Store" {
		t.Errorf("Op strings: %v %v", Load, Store)
	}
}

func TestSliceSource(t *testing.T) {
	recs := []Record{{Gap: 1, Op: Load, Addr: 100}, {Gap: 2, Op: Store, Addr: 200}}
	s := NewSliceSource(recs)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	got := Collect(s, 0)
	if !reflect.DeepEqual(got, recs) {
		t.Errorf("Collect = %v, want %v", got, recs)
	}
	if _, ok := s.Next(); ok {
		t.Errorf("exhausted source returned a record")
	}
	s.Reset()
	if r, ok := s.Next(); !ok || r != recs[0] {
		t.Errorf("Reset did not rewind")
	}
}

func TestCollectMax(t *testing.T) {
	recs := []Record{{Addr: 1}, {Addr: 2}, {Addr: 3}}
	got := Collect(NewSliceSource(recs), 2)
	if len(got) != 2 || got[1].Addr != 2 {
		t.Errorf("Collect(2) = %v", got)
	}
}

func TestLimit(t *testing.T) {
	recs := []Record{{Addr: 1}, {Addr: 2}, {Addr: 3}}
	got := Collect(Limit(NewSliceSource(recs), 2), 0)
	if len(got) != 2 {
		t.Errorf("Limit(2) yielded %d records", len(got))
	}
	got = Collect(Limit(NewSliceSource(recs), 0), 0)
	if len(got) != 0 {
		t.Errorf("Limit(0) yielded %d records", len(got))
	}
}
