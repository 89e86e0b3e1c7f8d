package flightrec

import (
	"testing"

	"asdsim/internal/obs"
)

// TestReleasedRingReportsOnlyOwnEvents: a recorder built on a ring that
// Finish returned finds the previous run's events in every slot it has
// not yet overwritten. When it writes fewer events than the ring holds,
// its bundles must still report only its own.
func TestReleasedRingReportsOnlyOwnEvents(t *testing.T) {
	const size = 64
	prev := New(Options{RingSize: size, WindowCycles: 1 << 40, Detectors: []Detector{}})
	for i := uint64(0); i < 2*size; i++ {
		prev.Emit(obs.Event{Kind: obs.KindMCEnqueue, Cycle: i, ID: 1000 + i})
	}
	slot0 := &prev.ring[0]
	prev.Finish()
	prev.Finish() // idempotent
	if prev.ring != nil {
		t.Fatal("Finish kept the ring")
	}

	rec := New(Options{RingSize: size, WindowCycles: 1 << 40,
		Detectors: []Detector{&LatePrefetchSpike{Ratio: 0.01, MinUseful: 1}}})
	if &rec.ring[0] != slot0 {
		t.Fatal("the ring Finish returned was not reused")
	}
	if stale := rec.ring[size-1]; stale.ID != 1000+2*size-1 {
		t.Fatalf("reused ring's last slot holds %+v, want the previous run's last event", stale)
	}
	rec.Emit(obs.Event{Kind: obs.KindMCEnqueue, Cycle: 1, ID: 7})
	rec.Emit(obs.Event{Kind: obs.KindMCPFLate, Cycle: 2, V1: 1})
	rec.Emit(obs.Event{Kind: obs.KindMCPBHit, Cycle: 3, V2: 1})
	rec.Finish()
	if len(rec.Bundles()) != 1 {
		t.Fatalf("got %d bundles, want 1", len(rec.Bundles()))
	}
	b := rec.Bundles()[0]
	if b.EventsSeen != 3 || len(b.Events) != 3 {
		t.Fatalf("bundle holds %d events of %d seen, want this run's 3: %+v", len(b.Events), b.EventsSeen, b.Events)
	}
	for i, want := range []string{"mc-enqueue", "mc-pf-late", "mc-pb-hit"} {
		if e := b.Events[i]; e.Kind != want || e.Cycle != uint64(i+1) {
			t.Errorf("event %d = %+v, want %s at cycle %d", i, e, want, i+1)
		}
	}
}

// A returned ring of another size is not reused.
func TestReleasedRingOfOtherSizeNotReused(t *testing.T) {
	prev := New(Options{RingSize: 16})
	prev.Finish()
	if rec := New(Options{RingSize: 32}); len(rec.ring) != 32 {
		t.Fatalf("ring holds %d events, want 32", len(rec.ring))
	}
}
