package freelist

import "testing"

// TestTakeReturnsLastPutOfItsKey: Take hands back the most recently Put
// value of the key asked for, never one of another key, and reports an
// empty key.
func TestTakeReturnsLastPutOfItsKey(t *testing.T) {
	var l List[int, *[4]byte]
	if _, ok := l.Take(1); ok {
		t.Fatal("Take on an empty list reported a value")
	}
	a, b, c := new([4]byte), new([4]byte), new([4]byte)
	l.Put(1, a)
	l.Put(2, b)
	l.Put(1, c)
	for _, want := range []*[4]byte{c, a} {
		if got, ok := l.Take(1); !ok || got != want {
			t.Fatalf("Take(1) = %p, %v; want %p", got, ok, want)
		}
	}
	if _, ok := l.Take(1); ok {
		t.Fatal("Take(1) reported a value after both were taken")
	}
	if got, ok := l.Take(2); !ok || got != b {
		t.Fatalf("Take(2) = %p, %v; want %p", got, ok, b)
	}
}
