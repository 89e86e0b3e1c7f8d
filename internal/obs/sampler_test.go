package obs

import (
	"strings"
	"testing"
)

// TestSamplerWindowBoundaries pins the half-open window convention:
// cycle c lands in window c/Interval, so Interval-1 is the last cycle
// of window 0 and Interval the first cycle of window 1.
func TestSamplerWindowBoundaries(t *testing.T) {
	s := NewSampler(100)
	for _, cycle := range []uint64{0, 99, 100, 199, 200} {
		s.Emit(Event{Kind: KindMCEnqueue, Cycle: cycle}) // a read each
	}
	samples := s.Samples()
	if len(samples) != 3 {
		t.Fatalf("got %d windows, want 3: %+v", len(samples), samples)
	}
	wantReads := []uint64{2, 2, 1} // {0,99}, {100,199}, {200}
	for i, sm := range samples {
		if sm.Window != uint64(i) {
			t.Errorf("window %d has index %d", i, sm.Window)
		}
		if sm.Start != uint64(i)*100 {
			t.Errorf("window %d starts at %d, want %d", i, sm.Start, i*100)
		}
		if sm.Reads != wantReads[i] {
			t.Errorf("window %d reads = %d, want %d", i, sm.Reads, wantReads[i])
		}
	}
}

// TestSamplerOutOfOrder: events for earlier windows — whether already
// open or skipped over — are still aggregated in the right window
// (cross-clock-domain probes may trail slightly).
func TestSamplerOutOfOrder(t *testing.T) {
	s := NewSampler(100)
	s.Emit(Event{Kind: KindMCEnqueue, Cycle: 250})
	s.Emit(Event{Kind: KindMCEnqueue, Cycle: 50})  // behind the front
	s.Emit(Event{Kind: KindMCEnqueue, Cycle: 150}) // between open windows
	s.Emit(Event{Kind: KindMCEnqueue, Cycle: 260}) // newest again

	samples := s.Samples()
	if len(samples) != 3 {
		t.Fatalf("got %d windows, want 3: %+v", len(samples), samples)
	}
	wantReads := []uint64{1, 1, 2}
	for i, sm := range samples {
		if sm.Window != uint64(i) || sm.Reads != wantReads[i] {
			t.Errorf("window[%d] = index %d with %d reads, want index %d with %d",
				i, sm.Window, sm.Reads, i, wantReads[i])
		}
	}
	if s.Dropped != 0 {
		t.Errorf("Dropped = %d, want 0", s.Dropped)
	}
}

func TestSamplerRingEviction(t *testing.T) {
	s := NewSampler(10)
	s.MaxWindows = 4
	for w := uint64(0); w < 10; w++ {
		s.Emit(Event{Kind: KindMCEnqueue, Cycle: w * 10})
	}
	samples := s.Samples()
	if len(samples) != 4 {
		t.Fatalf("retained %d windows, want 4", len(samples))
	}
	if samples[0].Window != 6 || samples[3].Window != 9 {
		t.Errorf("retained windows %d..%d, want 6..9", samples[0].Window, samples[3].Window)
	}
	// An event for an evicted window is dropped and counted.
	before := s.Dropped
	s.Emit(Event{Kind: KindMCEnqueue, Cycle: 0})
	if s.Dropped != before+1 {
		t.Errorf("Dropped = %d, want %d", s.Dropped, before+1)
	}
}

func TestSamplerAggregates(t *testing.T) {
	s := NewSampler(1000)
	s.Emit(Event{Kind: KindMCQueues, Cycle: 10, V1: 4, V2: 2, V3: 1})
	s.Emit(Event{Kind: KindMCQueues, Cycle: 20, V1: 6, V2: 4, V3: 3})
	s.Emit(Event{Kind: KindMCComplete, Cycle: 30, V1: 200})
	s.Emit(Event{Kind: KindMCComplete, Cycle: 40, V1: 100})
	s.Emit(Event{Kind: KindMCQueues, Cycle: 50})
	s.Emit(Event{Kind: KindSchedPolicy, Cycle: 50, V1: 3})
	s.Emit(Event{Kind: KindCPUStall, Cycle: 60, V1: 77})

	// Each queue reading holds until the next: the first for 10
	// cycles, the second for 30; the last has not held yet.
	sm := s.Samples()[0]
	if sm.QueueObs != 3 || sm.QueueCycles != 40 {
		t.Errorf("queue readings/cycles = %d/%d, want 3/40", sm.QueueObs, sm.QueueCycles)
	}
	if sm.CAQMean != 3.5 || sm.CAQMax != 4 {
		t.Errorf("CAQ mean/max = %v/%v, want 3.5/4", sm.CAQMean, sm.CAQMax)
	}
	if sm.ReorderMean != 5.5 || sm.LPQMean != 2.5 {
		t.Errorf("reorder/lpq mean = %v/%v, want 5.5/2.5", sm.ReorderMean, sm.LPQMean)
	}
	if sm.MeanReadLat != 150 {
		t.Errorf("MeanReadLat = %v, want 150", sm.MeanReadLat)
	}
	if sm.Policy != 3 || sm.StallCycles != 77 {
		t.Errorf("policy/stall = %v/%v", sm.Policy, sm.StallCycles)
	}

	// The policy gauge carries into subsequently opened windows.
	s.Emit(Event{Kind: KindMCEnqueue, Cycle: 1500})
	if got := s.Samples()[1].Policy; got != 3 {
		t.Errorf("carried policy = %d, want 3", got)
	}
}

// TestSamplerQueueReadingHoldsAcrossWindows: a queue reading is charged
// to every window it held in, split at the boundaries, and counts
// toward each one's maximum, even a window with no reading of its own.
func TestSamplerQueueReadingHoldsAcrossWindows(t *testing.T) {
	s := NewSampler(100)
	s.Emit(Event{Kind: KindMCQueues, Cycle: 50, V2: 2})
	s.Emit(Event{Kind: KindMCQueues, Cycle: 250})
	s.Emit(Event{Kind: KindMCQueues, Cycle: 275, V2: 1})
	s.Emit(Event{Kind: KindMCQueues, Cycle: 300})

	want := []struct {
		obs, cycles uint64
		mean        float64
		max         int64
	}{
		{1, 50, 2, 2},     // 2 held over [50,100)
		{0, 100, 2, 2},    // ... and over all of [100,200)
		{2, 100, 1.25, 2}, // 2 over [200,250), 0 to 275, 1 to 300
		{1, 0, 0, 0},      // the last reading has not held yet
	}
	samples := s.Samples()
	if len(samples) != len(want) {
		t.Fatalf("got %d windows, want %d", len(samples), len(want))
	}
	for i, w := range want {
		sm := samples[i]
		if sm.QueueObs != w.obs || sm.QueueCycles != w.cycles || sm.CAQMean != w.mean || sm.CAQMax != w.max {
			t.Errorf("window %d: readings %d, cycles %d, CAQ mean %v, max %d; want %d, %d, %v, %d",
				i, sm.QueueObs, sm.QueueCycles, sm.CAQMean, sm.CAQMax, w.obs, w.cycles, w.mean, w.max)
		}
	}
}

func TestSamplerCSV(t *testing.T) {
	s := NewSampler(100)
	s.Emit(Event{Kind: KindMCEnqueue, Cycle: 5})
	var sb strings.Builder
	if err := CSVHeader(&sb); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCSV(&sb, "bench/PMS"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), sb.String())
	}
	header := strings.Split(lines[0], ",")
	row := strings.Split(lines[1], ",")
	if len(header) != len(row) {
		t.Fatalf("header has %d columns, row has %d", len(header), len(row))
	}
	if !strings.HasPrefix(lines[1], "bench/PMS,0,0,") {
		t.Errorf("row = %q", lines[1])
	}

	var jb strings.Builder
	if err := s.WriteJSONL(&jb, "bench/PMS"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jb.String(), `"run":"bench/PMS"`) {
		t.Errorf("JSONL missing run label: %s", jb.String())
	}
}
