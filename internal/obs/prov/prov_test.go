package prov

import (
	"strings"
	"testing"
)

// TestRecorderRingDrop pins the wrap-around contract: the ring keeps
// the newest records, counts the discarded oldest, and flushes in
// firing order.
func TestRecorderRingDrop(t *testing.T) {
	r := New(Options{TraceID: "ring", RingSize: 8})
	for i := 0; i < 20; i++ {
		r.OnSlot(0, OpSlotBirth, uint64(100+i), 0x40, 1, 1)
	}
	st := r.Stream()
	if st.Dropped != 12 {
		t.Errorf("Dropped = %d, want 12", st.Dropped)
	}
	if len(st.Records) != 8 {
		t.Fatalf("len(Records) = %d, want 8", len(st.Records))
	}
	for i, rec := range st.Records {
		if want := uint64(100 + 12 + i); rec.Cycle != want {
			t.Errorf("record %d cycle = %d, want %d (oldest-first order)", i, rec.Cycle, want)
		}
	}
}

// TestStreamEndsRecording: Stream hands the ring back, so a second call
// returns the same stream, and the next recorder of the ring's size
// takes the ring and streams only its own records.
func TestStreamEndsRecording(t *testing.T) {
	r := New(Options{TraceID: "first", RingSize: 8})
	for i := 0; i < 20; i++ {
		r.OnSlot(0, OpSlotBirth, uint64(100+i), 0x40, 1, 1)
	}
	slot0 := &r.ring[0]
	st := r.Stream()
	if again := r.Stream(); again != st || r.ring != nil {
		t.Fatalf("second Stream returned %p after %p; ring kept: %v", again, st, r.ring != nil)
	}
	next := New(Options{TraceID: "second", RingSize: 8})
	if &next.ring[0] != slot0 {
		t.Fatal("the ring Stream returned was not reused")
	}
	for i := 0; i < 3; i++ {
		next.OnSlot(0, OpSlotEnd, uint64(500+i), 0x80, 2, -1)
	}
	own := next.Stream()
	if own.Dropped != 0 || len(own.Records) != 3 {
		t.Fatalf("reused ring streams %d records (%d dropped), want this run's 3", len(own.Records), own.Dropped)
	}
	for i, rec := range own.Records {
		if rec.Op != OpSlotEnd || rec.Cycle != uint64(500+i) {
			t.Errorf("record %d = %+v, want slot-end at cycle %d", i, rec, 500+i)
		}
	}
	if len(st.Records) != 8 || st.Records[7].Cycle != 119 {
		t.Error("the first stream changed when its ring was reused")
	}
}

// TestRecorderIDsAreContentDerived pins that identical histories under
// identical trace IDs replay to identical record IDs, and that the
// trace ID perturbs them.
func TestRecorderIDsAreContentDerived(t *testing.T) {
	drive := func(traceID string) *Stream {
		r := New(Options{TraceID: traceID})
		r.OnSlot(0, OpSlotBirth, 100, 0x40, 1, 1)
		r.OnDecision(0, 150, 0x41, false, 2, 1, 9, 30)
		return r.Stream()
	}
	a, b := drive("t1"), drive("t1")
	if !equalStreams(a, b) {
		t.Error("identical histories under one trace ID diverged")
	}
	c := drive("t2")
	for i := range a.Records {
		if a.Records[i].ID == c.Records[i].ID {
			t.Errorf("record %d ID identical across trace IDs", i)
		}
	}
}

// TestLastExplainable pins the preference order: a PB hit beats an
// install beats a bare nomination.
func TestLastExplainable(t *testing.T) {
	st := sampleStream()
	line, cycle, ok := LastExplainable(st)
	if !ok || line != 0x42 || cycle != 2500 {
		t.Errorf("LastExplainable = %#x@%d ok=%v, want 0x42@2500 true", uint64(line), cycle, ok)
	}
	if _, _, ok := LastExplainable(&Stream{}); ok {
		t.Error("empty stream claimed an explainable prefetch")
	}
}

// TestExplainLineage reconstructs the full chain for the sample
// stream's prefetch and checks the rendered tree's stable labels.
func TestExplainLineage(t *testing.T) {
	st := sampleStream()
	lin, err := Explain(st, 0x42, 0)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if lin.Decision == nil || lin.Decision.ID != 14 {
		t.Fatalf("decision not linked: %+v", lin.Decision)
	}
	if lin.Epoch == nil || lin.Epoch.Epoch != 1 {
		t.Fatalf("epoch snapshot not linked: %+v", lin.Epoch)
	}
	if len(lin.Slots) == 0 {
		t.Error("no slot lifetime records linked")
	}
	var ops []string
	for _, r := range lin.Chain {
		ops = append(ops, r.Op.String())
	}
	if got, want := strings.Join(ops, " "), "nominate issue install pb-hit"; got != want {
		t.Errorf("chain = %q, want %q", got, want)
	}

	var b strings.Builder
	lin.WriteTree(&b)
	out := b.String()
	for _, label := range []string{
		"lineage for line 0x42", "epoch 1:", "stream: slot-birth",
		"decision:", "ineq(5)", "nominate: depth", "issue: depth",
		"install: depth", "outcome: pb-hit",
	} {
		if !strings.Contains(out, label) {
			t.Errorf("tree missing %q:\n%s", label, out)
		}
	}

	if _, err := Explain(st, 0x4242, 0); err == nil {
		t.Error("Explain of an unrecorded line did not fail")
	}
}

// TestDiff pins divergence detection and the per-length delta tally.
func TestDiff(t *testing.T) {
	a, b := sampleStream(), sampleStream()
	snap2 := EpochSnap{Epoch: 2, Cycle: 4000,
		UpCurr: a.Epochs[0].UpNext, UpNext: []uint32{7, 6, 5},
		DownCurr: a.Epochs[0].DownNext, DownNext: []uint32{3, 2, 1}}
	a.Epochs = append(a.Epochs, snap2)
	snapB := snap2
	snapB.UpNext = []uint32{9, 9, 9} // run B learned a different LHT
	b.Epochs = append(b.Epochs, snapB)
	b.Records = b.Records[:len(b.Records)-3] // B never saw the pb-hit/drop/wasted tail

	rep := Diff(a, b)
	if rep.FirstDiverge != 1 {
		t.Errorf("FirstDiverge = %d, want 1", rep.FirstDiverge)
	}
	if rep.SnapsA != 2 || rep.SnapsB != 2 {
		t.Errorf("snaps = %d/%d, want 2/2", rep.SnapsA, rep.SnapsB)
	}
	var k2 *LengthDelta
	for i := range rep.Lengths {
		if rep.Lengths[i].K == 2 {
			k2 = &rep.Lengths[i]
		}
	}
	if k2 == nil || k2.A.PBHits != 1 || k2.B.PBHits != 0 {
		t.Errorf("k=2 pb-hit delta not tallied: %+v", k2)
	}

	var w strings.Builder
	rep.WriteReport(&w)
	out := w.String()
	for _, label := range []string{
		"provenance diff:", "first diverging SLH epoch: 1",
		"per-stream-length deltas (B - A):", "pb-hits-1",
	} {
		if !strings.Contains(out, label) {
			t.Errorf("report missing %q:\n%s", label, out)
		}
	}

	if rep := Diff(sampleStream(), sampleStream()); rep.FirstDiverge != -1 {
		t.Errorf("identical streams diverged at %d", rep.FirstDiverge)
	}
}

// TestStoreRoundTrip pins sidecar persistence: save/load/list plus the
// key validation that keeps keys filesystem-safe.
func TestStoreRoundTrip(t *testing.T) {
	s, err := OpenStore(t.TempDir() + "/sidecars")
	if err != nil {
		t.Fatal(err)
	}
	st := sampleStream()
	if err := s.Save("cell-b", st); err != nil {
		t.Fatal(err)
	}
	if err := s.Save("cell-a", st); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Load("cell-b")
	if err != nil || !ok {
		t.Fatalf("Load: ok=%v err=%v", ok, err)
	}
	if !equalStreams(st, got) {
		t.Error("stream mutated through the sidecar round trip")
	}
	if _, ok, err := s.Load("missing"); ok || err != nil {
		t.Errorf("missing key: ok=%v err=%v, want false nil", ok, err)
	}
	keys, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "cell-a" || keys[1] != "cell-b" {
		t.Errorf("Keys = %v, want sorted [cell-a cell-b]", keys)
	}
	for _, bad := range []string{"", "a/b", ".hidden", strings.Repeat("k", 129), "sp ace"} {
		if err := s.Save(bad, st); err == nil {
			t.Errorf("Save accepted hostile key %q", bad)
		}
	}
}
