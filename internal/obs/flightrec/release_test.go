package flightrec

import (
	"testing"

	"asdsim/internal/obs"
)

// TestReleasedRingReportsOnlyOwnEvents: a recorder built on a released
// ring finds the previous run's events in every slot it has not yet
// overwritten. When it writes fewer events than the ring holds, its
// bundles must still report only its own.
func TestReleasedRingReportsOnlyOwnEvents(t *testing.T) {
	const size = 64
	for attempt := 1; ; attempt++ {
		prev := New(Options{RingSize: size, WindowCycles: 1 << 40, Detectors: []Detector{}})
		for i := uint64(0); i < 2*size; i++ {
			prev.Emit(obs.Event{Kind: obs.KindMCEnqueue, Cycle: i, ID: 1000 + i})
		}
		prev.Finish()
		slot0 := &prev.ring[0]
		prev.Release()
		prev.Release() // idempotent

		rec := New(Options{RingSize: size, WindowCycles: 1 << 40,
			Detectors: []Detector{&LatePrefetchSpike{Ratio: 0.01, MinUseful: 1}}})
		if &rec.ring[0] != slot0 {
			// sync.Pool may drop any Put (it drops one in four under
			// the race detector); retry until the ring comes back.
			if attempt == 50 {
				t.Fatal("a released ring was never reused")
			}
			continue
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
		rec.Release()
		return
	}
}

// A pooled ring of another size is not reused.
func TestReleasedRingOfOtherSizeNotReused(t *testing.T) {
	prev := New(Options{RingSize: 16})
	prev.Release()
	if rec := New(Options{RingSize: 32}); len(rec.ring) != 32 {
		t.Fatalf("ring holds %d events, want 32", len(rec.ring))
	}
}
