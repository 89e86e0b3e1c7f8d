package obs

import (
	"fmt"
	"testing"
)

// TestBusFanOutOrdering verifies both fan-out order (attach order, per
// event) and stream order (emission order, per sink).
func TestBusFanOutOrdering(t *testing.T) {
	var got []string
	mk := func(name string) Funcs {
		return func(e Event) { got = append(got, fmt.Sprintf("%s:%d", name, e.V1)) }
	}
	b := NewBus(mk("a"), mk("b"))
	b.Attach(mk("c"))

	for i := int64(1); i <= 3; i++ {
		b.Emit(Event{Kind: KindMCEnqueue, V1: i})
	}

	want := []string{
		"a:1", "b:1", "c:1",
		"a:2", "b:2", "c:2",
		"a:3", "b:3", "c:3",
	}
	if len(got) != len(want) {
		t.Fatalf("got %d deliveries, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d = %q, want %q (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestNilBusEmitIsSafe(t *testing.T) {
	var b *Bus
	b.Emit(Event{Kind: KindMCEnqueue}) // must not panic
	if b.On(KindMCEnqueue) {
		t.Fatal("nil bus reports a kind on")
	}
	if !NewBus(&Counter{}).On(KindMCEnqueue) {
		t.Fatal("bus with a sink reports a kind off")
	}
	if NewBus().On(KindMCEnqueue) {
		t.Fatal("empty bus reports a kind on")
	}
}

func TestAttachNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Attach(nil) did not panic")
		}
	}()
	NewBus().Attach(nil)
}

func TestCounter(t *testing.T) {
	c := &Counter{}
	b := NewBus(c)
	b.Emit(Event{Kind: KindMCEnqueue})
	b.Emit(Event{Kind: KindMCEnqueue})
	b.Emit(Event{Kind: KindDRAMAccess})
	if got := c.Count(KindMCEnqueue); got != 2 {
		t.Errorf("Count(KindMCEnqueue) = %d, want 2", got)
	}
	if got := c.Count(KindDRAMAccess); got != 1 {
		t.Errorf("Count(KindDRAMAccess) = %d, want 1", got)
	}
	if got := c.Total(); got != 3 {
		t.Errorf("Total() = %d, want 3", got)
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if s := k.String(); s == "" {
			t.Errorf("Kind(%d) has empty name", k)
		}
	}
	if s := Kind(200).String(); s != "Kind(200)" {
		t.Errorf("out-of-range Kind string = %q", s)
	}
}

func TestDepthStatsBuckets(t *testing.T) {
	d := &DepthStats{}
	d.Emit(Event{Kind: KindMCPFNominate, V1: 1})
	d.Emit(Event{Kind: KindMCPFNominate, V1: MaxTrackedDepth + 5}) // clamps
	d.Emit(Event{Kind: KindMCPBHit, V2: 2})
	d.Emit(Event{Kind: KindMCPFLate, V1: 2})
	d.Emit(Event{Kind: KindMCEnqueue, V1: 3}) // ignored kind
	if d.Nominated[1] != 1 || d.Nominated[MaxTrackedDepth] != 1 {
		t.Errorf("Nominated = %v", d.Nominated)
	}
	if d.Timely[2] != 1 || d.Late[2] != 1 {
		t.Errorf("Timely = %v, Late = %v", d.Timely, d.Late)
	}
	if got := d.MaxDepthSeen(); got != MaxTrackedDepth {
		t.Errorf("MaxDepthSeen = %d, want %d", got, MaxTrackedDepth)
	}
}
