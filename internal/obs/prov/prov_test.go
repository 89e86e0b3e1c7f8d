package prov

import (
	"strings"
	"testing"
)

// sampleStream builds a small but representative stream covering every
// lifecycle stage, an epoch snapshot and a ring-drop count.
func sampleStream() *Stream {
	tbl := func(base uint32) []uint32 {
		t := make([]uint32, 16)
		for i := range t {
			t[i] = base >> uint(i)
		}
		return t
	}
	return &Stream{
		TraceID: "deadbeefcafebabe",
		Dropped: 3,
		Records: []Record{
			{Op: OpEpochRoll, Epoch: 1, Cycle: 2000, ID: 11, V1: 1},
			{Op: OpSlotBirth, Epoch: 1, Cycle: 2100, Line: 0x40, ID: 12},
			{Op: OpSlotExtend, Aux: EncodeDir(1), Epoch: 1, Cycle: 2150, Line: 0x41, ID: 13, V1: 2},
			{Op: OpDecision, Aux: DecisionAux(false, 1), Epoch: 1, Cycle: 2150, Line: 0x41, ID: 14, V1: 2, V2: 1, V3: PackWitness(9, 30)},
			{Op: OpNominate, Epoch: 1, Cycle: 2150, Line: 0x42, ID: 15, V1: 1, V2: 14, V3: 2},
			{Op: OpIssue, Epoch: 1, Cycle: 2160, Line: 0x42, ID: 16, V1: 1, V2: 2400},
			{Op: OpInstall, Epoch: 1, Cycle: 2402, Line: 0x42, ID: 17, V1: 1},
			{Op: OpPBHit, Epoch: 1, Cycle: 2500, Line: 0x42, ID: 18, V1: 1},
			{Op: OpDrop, Aux: 2, Thread: 1, Epoch: 1, Cycle: 2600, Line: 0x99, ID: 19, V1: 4},
			{Op: OpWasted, Aux: 1, Epoch: 1, Cycle: 2700, Line: 0x77, ID: 20, V1: 2},
		},
		Epochs: []EpochSnap{{
			Epoch: 1, Cycle: 2000,
			UpCurr: tbl(1600), UpNext: tbl(1800), DownCurr: tbl(400), DownNext: tbl(300),
		}},
	}
}

// equalStreams compares two streams treating nil and empty slices as
// equal.
func equalStreams(a, b *Stream) bool {
	if a.TraceID != b.TraceID || a.Dropped != b.Dropped ||
		len(a.Records) != len(b.Records) || len(a.Epochs) != len(b.Epochs) {
		return false
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			return false
		}
	}
	for i := range a.Epochs {
		x, y := a.Epochs[i], b.Epochs[i]
		if x.Thread != y.Thread || x.Epoch != y.Epoch || x.Cycle != y.Cycle || !snapsEqual(&x, &y) {
			return false
		}
	}
	return true
}

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

// TestDiffNamesDroppedRecords: a diff over a stream whose ring wrapped
// carries each side's drop count and says so in one report line; a diff
// of whole streams prints no such line.
func TestDiffNamesDroppedRecords(t *testing.T) {
	record := func(n int) *Stream {
		r := New(Options{TraceID: "drop", RingSize: 8})
		for i := 0; i < n; i++ {
			r.OnDecision(0, uint64(100+i), 0x40, false, 2, 1, 9, 30)
		}
		return r.Stream()
	}
	whole, cut := record(8), record(20)
	rep := Diff(whole, cut)
	if rep.DroppedA != 0 || rep.DroppedB != 12 {
		t.Fatalf("dropped = %d/%d, want 0/12", rep.DroppedA, rep.DroppedB)
	}
	var w strings.Builder
	rep.WriteReport(&w)
	if want := "dropped records: A=0 B=12 "; !strings.Contains(w.String(), want) {
		t.Errorf("report does not name the drops (%q):\n%s", want, w.String())
	}
	w.Reset()
	Diff(whole, whole).WriteReport(&w)
	if strings.Contains(w.String(), "dropped") {
		t.Errorf("a diff of whole streams mentions drops:\n%s", w.String())
	}
}

// TestLargeRingIsNotRecycled: Stream keeps a ring whose bound exceeds
// the default out of the process-wide free list, so one large recording
// pins no memory once it is streamed.
func TestLargeRingIsNotRecycled(t *testing.T) {
	const size = 2 * defaultRing
	r := New(Options{TraceID: "large", RingSize: size})
	for i := 0; i < 3*initialRing; i++ {
		r.OnSlot(0, OpSlotBirth, uint64(i), 0x40, 1, 1)
	}
	if st := r.Stream(); len(st.Records) != 3*initialRing || st.Dropped != 0 {
		t.Fatalf("streamed %d records (%d dropped), want %d whole", len(st.Records), st.Dropped, 3*initialRing)
	}
	if ring, ok := rings.Take(size); ok {
		t.Fatalf("Stream left a %d-record ring of bound %d in the free list", len(ring), size)
	}
}
