package flightrec_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"asdsim/internal/obs"
	"asdsim/internal/obs/flightrec"
	"asdsim/internal/sim"
)

// emitWindow pushes one window's worth of synthetic prefetch traffic:
// timely PB hits, late merges, plus a queue gauge sample.
func emitWindow(r *flightrec.Recorder, start uint64, timely, late int, caq int64) {
	r.Emit(obs.Event{Kind: obs.KindMCQueues, Cycle: start, V1: 0, V2: caq, V3: 0})
	for i := 0; i < timely; i++ {
		r.Emit(obs.Event{Kind: obs.KindMCPBHit, Cycle: start + uint64(i), V2: 1})
	}
	for i := 0; i < late; i++ {
		r.Emit(obs.Event{Kind: obs.KindMCPFLate, Cycle: start + uint64(i), V1: 1})
	}
}

func TestLateSpikeTriggersOnce(t *testing.T) {
	rec := flightrec.New(flightrec.Options{
		Label:        "synthetic",
		WindowCycles: 1000,
		Detectors:    []flightrec.Detector{&flightrec.LatePrefetchSpike{Ratio: 0.5, MinUseful: 10}},
	})
	emitWindow(rec, 0, 20, 2, 1)    // healthy: ratio 0.09
	emitWindow(rec, 1000, 5, 15, 1) // spike: ratio 0.75
	emitWindow(rec, 2000, 5, 15, 1) // would spike again, but disarmed
	rec.Finish()

	trs := rec.Triggers()
	if len(trs) != 1 {
		t.Fatalf("got %d triggers, want 1: %+v", len(trs), trs)
	}
	if trs[0].Detector != "late-prefetch-spike" || trs[0].Window != 1 {
		t.Errorf("trigger = %+v, want late-prefetch-spike at window 1", trs[0])
	}
	if len(rec.Bundles()) != 1 {
		t.Fatalf("got %d bundles, want 1", len(rec.Bundles()))
	}
	b := rec.Bundles()[0]
	if got := b.Windows[len(b.Windows)-1]; got.Index != 1 || got.PFLate != 15 || got.PFTimely != 5 {
		t.Errorf("trigger window = %+v, want index 1 with 15 late / 5 timely", got)
	}
}

func TestCAQSaturationNeedsConsecutiveWindows(t *testing.T) {
	det := &flightrec.CAQSaturation{Capacity: 3, MeanFrac: 0.9, Consecutive: 3}
	rec := flightrec.New(flightrec.Options{WindowCycles: 100, Detectors: []flightrec.Detector{det}})
	sat := func(start uint64, occ int64) {
		for i := uint64(0); i < 4; i++ {
			rec.Emit(obs.Event{Kind: obs.KindMCQueues, Cycle: start + i, V2: occ})
		}
	}
	sat(0, 3)
	sat(100, 3)
	sat(200, 1) // breaks the run
	sat(300, 3)
	sat(400, 3)
	if rec.Emit(obs.Event{Kind: obs.KindMCEnqueue, Cycle: 500}); len(rec.Triggers()) != 0 {
		t.Fatalf("saturation fired without 3 consecutive windows: %+v", rec.Triggers())
	}
	sat(500, 3)
	rec.Finish()
	trs := rec.Triggers()
	if len(trs) != 1 || trs[0].Detector != "caq-saturation" || trs[0].Window != 5 {
		t.Fatalf("triggers = %+v, want caq-saturation at window 5", trs)
	}
}

// TestCAQSaturationFromHeldReading: a queue reading holds until the
// next one, so a single saturated reading that spans three windows
// trips the detector though only the first window took a reading.
func TestCAQSaturationFromHeldReading(t *testing.T) {
	det := &flightrec.CAQSaturation{Capacity: 3, MeanFrac: 0.9, Consecutive: 3}
	rec := flightrec.New(flightrec.Options{WindowCycles: 100, Detectors: []flightrec.Detector{det}})
	rec.Emit(obs.Event{Kind: obs.KindMCQueues, Cycle: 0, V2: 3})
	for c := uint64(50); c < 350; c += 100 {
		rec.Emit(obs.Event{Kind: obs.KindMCIssue, Cycle: c}) // rolls the windows
	}
	rec.Emit(obs.Event{Kind: obs.KindMCQueues, Cycle: 350})
	rec.Finish()
	trs := rec.Triggers()
	if len(trs) != 1 || trs[0].Detector != "caq-saturation" || trs[0].Window != 2 {
		t.Fatalf("triggers = %+v, want caq-saturation at window 2", trs)
	}
}

func TestBankConflictAndWasteDetectors(t *testing.T) {
	storm := &flightrec.BankConflictStorm{MinConflicts: 4, IssueFrac: 0.5}
	waste := &flightrec.PrefetchWasteSpike{Ratio: 0.5, MinIssued: 4}
	rec := flightrec.New(flightrec.Options{WindowCycles: 100,
		Detectors: []flightrec.Detector{storm, waste}})
	for i := uint64(0); i < 5; i++ {
		rec.Emit(obs.Event{Kind: obs.KindMCBankConflict, Cycle: i})
		rec.Emit(obs.Event{Kind: obs.KindMCIssue, Cycle: i})
		rec.Emit(obs.Event{Kind: obs.KindMCPFIssue, Cycle: i, V1: 1})
		rec.Emit(obs.Event{Kind: obs.KindMCPFWasted, Cycle: i, V1: 1})
	}
	rec.Finish()
	names := map[string]bool{}
	for _, tr := range rec.Triggers() {
		names[tr.Detector] = true
	}
	if !names["bank-conflict-storm"] || !names["prefetch-waste-spike"] {
		t.Errorf("triggers = %+v, want storm and waste", rec.Triggers())
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	rec := flightrec.New(flightrec.Options{
		RingSize: 8, WindowCycles: 1_000_000,
		Detectors: []flightrec.Detector{&flightrec.LatePrefetchSpike{Ratio: 0.01, MinUseful: 1}},
	})
	for i := uint64(0); i < 100; i++ {
		rec.Emit(obs.Event{Kind: obs.KindMCEnqueue, Cycle: i, ID: i})
	}
	rec.Emit(obs.Event{Kind: obs.KindMCPFLate, Cycle: 100, V1: 1})
	rec.Emit(obs.Event{Kind: obs.KindMCPBHit, Cycle: 101, V2: 1})
	rec.Finish()
	if len(rec.Bundles()) != 1 {
		t.Fatalf("got %d bundles, want 1", len(rec.Bundles()))
	}
	b := rec.Bundles()[0]
	if len(b.Events) != 8 {
		t.Fatalf("ring snapshot has %d events, want 8", len(b.Events))
	}
	if b.EventsSeen != 102 {
		t.Errorf("EventsSeen = %d, want 102", b.EventsSeen)
	}
	// Newest-last ordering with the oldest aged out.
	if b.Events[7].Kind != "mc-pb-hit" || b.Events[6].Kind != "mc-pf-late" {
		t.Errorf("tail = %s,%s, want mc-pf-late,mc-pb-hit", b.Events[6].Kind, b.Events[7].Kind)
	}
	if b.Events[0].Cycle != 94 {
		t.Errorf("oldest retained cycle = %d, want 94", b.Events[0].Cycle)
	}
}

func TestBundleJSONAndReportRoundTrip(t *testing.T) {
	rec := flightrec.New(flightrec.Options{
		Label: "bench/MS", WindowCycles: 1000,
		Detectors: []flightrec.Detector{&flightrec.LatePrefetchSpike{Ratio: 0.5, MinUseful: 4}},
	})
	rec.Emit(obs.Event{Kind: obs.KindASDPrefetchDecision, Cycle: 10, V1: 3, V2: 1})
	rec.Emit(obs.Event{Kind: obs.KindMCPFNominate, Cycle: 11, V1: 1})
	emitWindow(rec, 20, 1, 9, 2)
	rec.Finish()
	if len(rec.Bundles()) != 1 {
		t.Fatalf("want 1 bundle, got %d", len(rec.Bundles()))
	}
	b := rec.Bundles()[0]
	b.Config = json.RawMessage(`{"mode":2}`) // as the farm stamps a bundle it retains

	var buf bytes.Buffer
	if err := b.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back flightrec.Bundle
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("bundle JSON does not round-trip: %v", err)
	}
	if back.Label != "bench/MS" || back.Trigger.Detector != "late-prefetch-spike" {
		t.Errorf("round-tripped bundle = %+v", back.Trigger)
	}
	if back.SLH[2] != 1 {
		t.Errorf("SLH bucket 3 = %d, want 1", back.SLH[2])
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, back.Config); err != nil || compact.String() != `{"mode":2}` {
		t.Errorf("config not embedded: %s (%v)", back.Config, err)
	}

	var rep bytes.Buffer
	if err := b.WriteReport(&rep); err != nil {
		t.Fatalf("WriteReport: %v", err)
	}
	for _, want := range []string{
		"flight recorder: bench/MS — late-prefetch-spike",
		"recent windows", "stream-length histogram", "event ring:",
	} {
		if !strings.Contains(rep.String(), want) {
			t.Errorf("report missing %q:\n%s", want, rep.String())
		}
	}
}

// TestRealRunLateSpikeAtEpochRoll attaches the recorder to a real
// GemsFDTD MS run and checks the shipped default detectors catch the
// late-prefetch spike that accompanies the first SLH epoch roll, and
// that recording does not perturb the simulated outcome.
func TestRealRunLateSpikeAtEpochRoll(t *testing.T) {
	const budget = 400_000
	cfg := sim.Default(sim.MS, budget)
	base, err := sim.Run("GemsFDTD", cfg)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}

	rec := flightrec.New(flightrec.Options{
		Label:     "GemsFDTD/MS",
		Detectors: flightrec.DefaultDetectors(cfg.MC.CAQCap),
	})
	cfg.Obs = obs.NewBus(rec)
	res, err := sim.Run("GemsFDTD", cfg)
	if err != nil {
		t.Fatalf("recorded run: %v", err)
	}
	rec.Finish()

	if res.Cycles != base.Cycles || res.Instructions != base.Instructions {
		t.Errorf("recording perturbed the run: cycles %d vs %d", res.Cycles, base.Cycles)
	}
	var late *flightrec.Trigger
	for i := range rec.Triggers() {
		if rec.Triggers()[i].Detector == "late-prefetch-spike" {
			late = &rec.Triggers()[i]
		}
	}
	if late == nil {
		t.Fatalf("no late-prefetch-spike on GemsFDTD/MS; triggers = %+v", rec.Triggers())
	}
	if rec.EventsSeen() == 0 {
		t.Errorf("recorder saw no events")
	}
	if rec.Depths().MaxDepthSeen() == 0 {
		t.Errorf("recorder accumulated no depth stats")
	}
}
