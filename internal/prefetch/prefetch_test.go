package prefetch

import (
	"testing"

	"asdsim/internal/mem"
)

func TestNewPSPanics(t *testing.T) {
	bad := []PSConfig{
		{DetectEntries: 0, MaxStreams: 8, L2Ahead: 5, Lifetime: 1},
		{DetectEntries: 12, MaxStreams: 0, L2Ahead: 5, Lifetime: 1},
		{DetectEntries: 12, MaxStreams: 8, L2Ahead: 0, Lifetime: 1},
		{DetectEntries: 12, MaxStreams: 8, L2Ahead: 5, Lifetime: 0},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d: expected panic", i)
				}
			}()
			NewPS(cfg)
		}()
	}
}

func TestPSWaitsForTwoMisses(t *testing.T) {
	p := NewPS(DefaultPSConfig())
	if got := p.ObserveMiss(100, 0); got != nil {
		t.Fatalf("first miss prefetched %v", got)
	}
	got := p.ObserveMiss(101, 1)
	// Confirmation pulls exactly one line: the cost of a dead length-2
	// stream is one useless prefetch, as the paper's introduction
	// analyses for an n=2 policy.
	if len(got) != 1 || got[0].Line != 102 || !got[0].IntoL1 {
		t.Fatalf("confirmation requests = %v, want [{102 IntoL1}]", got)
	}
	if p.Confirmations != 1 || p.ActiveStreams() != 1 {
		t.Errorf("confirmations=%d active=%d", p.Confirmations, p.ActiveStreams())
	}
}

func TestPSDepthRampsToL2Ahead(t *testing.T) {
	cfg := DefaultPSConfig() // L2Ahead 5
	p := NewPS(cfg)
	p.ObserveMiss(100, 0)
	p.ObserveMiss(101, 1) // confirm, depth 1
	wantDepth := []int{2, 3, 4, 5, 5}
	line := mem.Line(102)
	for i, want := range wantDepth {
		got := p.ObserveMiss(line, uint64(i+2))
		if len(got) != 2 {
			t.Fatalf("advance %d: requests = %v", i, got)
		}
		if got[1].Line != line.Next(want) {
			t.Errorf("advance %d: L2 request at %d, want %d (depth %d)",
				i, got[1].Line, line.Next(want), want)
		}
		line++
	}
}

func TestPSDescendingStream(t *testing.T) {
	p := NewPS(DefaultPSConfig())
	p.ObserveMiss(100, 0)
	got := p.ObserveMiss(99, 1)
	if len(got) != 1 || got[0].Line != 98 {
		t.Fatalf("descending confirmation = %v, want [{98 IntoL1}]", got)
	}
}

func TestPSRemissRefreshesWithoutDuplicates(t *testing.T) {
	p := NewPS(DefaultPSConfig())
	p.ObserveMiss(100, 0)
	if got := p.ObserveMiss(100, 1); got != nil {
		t.Fatalf("re-miss emitted %v", got)
	}
	// The entry must still confirm on the true next line.
	if got := p.ObserveMiss(101, 2); len(got) != 1 {
		t.Fatalf("confirmation after re-miss = %v", got)
	}
}

func TestPSMaxStreamsBound(t *testing.T) {
	cfg := DefaultPSConfig()
	cfg.MaxStreams = 2
	p := NewPS(cfg)
	// Confirm two streams.
	p.ObserveMiss(100, 0)
	p.ObserveMiss(101, 1)
	p.ObserveMiss(2000, 2)
	p.ObserveMiss(2001, 3)
	if p.ActiveStreams() != 2 {
		t.Fatalf("active = %d", p.ActiveStreams())
	}
	// A third stream may detect but not confirm.
	p.ObserveMiss(5000, 4)
	if got := p.ObserveMiss(5001, 5); got != nil {
		t.Errorf("third stream confirmed beyond MaxStreams: %v", got)
	}
}

func TestPSEntryExpiry(t *testing.T) {
	cfg := DefaultPSConfig()
	cfg.Lifetime = 100
	p := NewPS(cfg)
	p.ObserveMiss(100, 0)
	p.ObserveMiss(101, 1)
	// Expired by 500: the next in-stream miss is a fresh detection.
	if got := p.ObserveMiss(102, 500); got != nil {
		t.Errorf("expired stream still prefetched: %v", got)
	}
}

// TestPSVictimRule pins the replacement rule of a full detection table:
// the victim is entry 0 unless an unconfirmed entry expires sooner. So a
// confirmed stream in entry 0 that expires first is evicted while two
// younger unconfirmed entries stay.
func TestPSVictimRule(t *testing.T) {
	cfg := DefaultPSConfig()
	cfg.DetectEntries = 3
	cfg.Lifetime = 1000
	p := NewPS(cfg)
	p.ObserveMiss(100, 0)
	p.ObserveMiss(101, 1) // entry 0 confirmed, expires at 1001
	p.ObserveMiss(500, 2) // entry 1 unconfirmed, expires at 1002
	p.ObserveMiss(900, 3) // entry 2 unconfirmed, expires at 1003
	p.ObserveMiss(2000, 4)
	if heads := []mem.Line{p.t.Slots[0].Last, p.t.Slots[1].Last, p.t.Slots[2].Last}; heads[0] != 2000 || heads[1] != 500 || heads[2] != 900 {
		t.Fatalf("heads after the first eviction = %v, want [2000 500 900]", heads)
	}
	if p.ActiveStreams() != 0 {
		t.Errorf("active = %d, want 0: the confirmed stream was the victim", p.ActiveStreams())
	}
	// Entry 0 now expires at 1004, after unconfirmed entry 1.
	p.ObserveMiss(3000, 5)
	if p.t.Slots[0].Last != 2000 || p.t.Slots[1].Last != 3000 {
		t.Errorf("second eviction took heads %d, %d; want entry 1 replaced by 3000",
			p.t.Slots[0].Last, p.t.Slots[1].Last)
	}
}

func TestNextLine(t *testing.T) {
	n := NewNextLine()
	got := n.ObserveRead(7, 0)
	if len(got) != 1 || got[0] != 8 {
		t.Fatalf("next-line = %v", got)
	}
	n.Tick(100) // no-op, must not panic
	if n.Issued != 1 {
		t.Errorf("Issued = %d", n.Issued)
	}
}

func TestNewP5StylePanics(t *testing.T) {
	for i, cfg := range []P5StyleConfig{{Slots: 0, Lifetime: 1}, {Slots: 1, Lifetime: 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d: expected panic", i)
				}
			}()
			NewP5Style(cfg)
		}()
	}
}

func TestP5StyleN2Policy(t *testing.T) {
	p := NewP5Style(DefaultP5StyleConfig())
	if got := p.ObserveRead(100, 0); got != nil {
		t.Fatalf("first read prefetched %v", got)
	}
	got := p.ObserveRead(101, 1)
	if len(got) != 1 || got[0] != 102 {
		t.Fatalf("second read = %v, want [102]", got)
	}
	got = p.ObserveRead(102, 2)
	if len(got) != 1 || got[0] != 103 {
		t.Fatalf("third read = %v, want [103]", got)
	}
}

func TestP5StyleDescendingAndRemiss(t *testing.T) {
	p := NewP5Style(DefaultP5StyleConfig())
	p.ObserveRead(200, 0)
	if got := p.ObserveRead(200, 1); got != nil {
		t.Fatalf("re-read emitted %v", got)
	}
	got := p.ObserveRead(199, 2)
	if len(got) != 1 || got[0] != 198 {
		t.Fatalf("descending = %v, want [198]", got)
	}
}

func TestP5StyleDirectionLock(t *testing.T) {
	p := NewP5Style(DefaultP5StyleConfig())
	p.ObserveRead(100, 0)
	p.ObserveRead(101, 1)
	p.ObserveRead(102, 2) // locked Up with length 3
	// A read one below the head does not flip an established stream; it
	// allocates a new slot.
	if got := p.ObserveRead(101, 3); got != nil {
		t.Errorf("reverse read on locked stream prefetched %v", got)
	}
}

func TestP5StyleExpiry(t *testing.T) {
	cfg := DefaultP5StyleConfig()
	cfg.Lifetime = 50
	p := NewP5Style(cfg)
	p.ObserveRead(100, 0)
	p.Tick(100)
	// Slot expired: 101 is a fresh allocation, no prefetch.
	if got := p.ObserveRead(101, 101); got != nil {
		t.Errorf("expired slot still matched: %v", got)
	}
}

func TestP5StyleCapacity(t *testing.T) {
	cfg := DefaultP5StyleConfig()
	cfg.Slots = 1
	p := NewP5Style(cfg)
	p.ObserveRead(100, 0)
	// Slot occupied: an unrelated read cannot allocate.
	p.ObserveRead(500, 1)
	if got := p.ObserveRead(501, 2); got != nil {
		t.Errorf("untracked stream prefetched %v", got)
	}
}
