package dram

import (
	"math"
	"testing"
	"testing/quick"

	"asdsim/internal/mem"
)

func tiny() *DRAM {
	return New(Config{
		Timing:   Timing{TRCD: 4, TCL: 4, TRP: 4, TRAS: 11, TRC: 15, TWR: 4, TBurst: 4},
		Geometry: Geometry{Ranks: 1, BanksPerRank: 2, RowBytes: 512}, // 4 lines per row
		Power:    Power{BackgroundWatts: 1, ActivateNJ: 10, ReadNJ: 20, WriteNJ: 25},
	})
}

// issue performs a command for line l the way the memory controller
// does: decoded once, then issued.
func issue(d *DRAM, l mem.Line, isWrite, isPrefetch bool, now uint64) uint64 {
	return d.IssueD(l, d.Decode(l), isWrite, isPrefetch, now)
}

func TestNewPanics(t *testing.T) {
	bad := []Config{
		{Timing: DefaultConfig().Timing, Geometry: Geometry{Ranks: 0, BanksPerRank: 8, RowBytes: 2048}},
		{Timing: DefaultConfig().Timing, Geometry: Geometry{Ranks: 1, BanksPerRank: 8, RowBytes: 64}},
		{Timing: Timing{}, Geometry: DefaultConfig().Geometry},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d: expected panic", i)
				}
			}()
			New(cfg)
		}()
	}
}

func TestDecodeMapping(t *testing.T) {
	d := tiny() // 4 lines/row, 2 banks
	// Lines 0-3 -> bank rotates col%2... col = line/4.
	// line 0..3: col 0 -> bank 0, row 0; line 4..7: col 1 -> bank 1 row 0;
	// line 8..11: col 2 -> bank 0 row 1.
	if b := d.Decode(0).Bank; b != 0 {
		t.Errorf("bank of line 0 = %d", b)
	}
	if b := d.Decode(4).Bank; b != 1 {
		t.Errorf("bank of line 4 = %d", b)
	}
	if b := d.Decode(8).Bank; b != 0 {
		t.Errorf("bank of line 8 = %d", b)
	}
}

func TestColdReadLatency(t *testing.T) {
	d := tiny()
	done := issue(d, 0, false, false, 0)
	// Cold bank: ACT at 0, CAS at tRCD=4, data at +tCL=8..12.
	if done != 12 {
		t.Errorf("cold read completes at %d, want 12", done)
	}
	st := d.Stats()
	if st.Activations != 1 || st.Reads != 1 || st.RowMisses != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestRowHitLatency(t *testing.T) {
	d := tiny()
	first := issue(d, 0, false, false, 0)
	// Line 1 shares the row: CAS-only, but bank ready only after first.
	done := issue(d, 1, false, false, first)
	if done != first+4+4 { // tCL + burst
		t.Errorf("row-hit read completes at %d, want %d", done, first+8)
	}
	if st := d.Stats(); st.RowHits != 1 {
		t.Errorf("RowHits = %d", st.RowHits)
	}
}

func TestRowConflictLatency(t *testing.T) {
	d := tiny()
	first := issue(d, 0, false, false, 0) // opens row 0 of bank 0
	// Line 8 is bank 0 row 1: precharge (4) + activate (but tRC=15 from
	// the activate at cycle 0 binds) + tRCD + tCL + burst.
	done := issue(d, 8, false, false, first)
	// start=12 (bank ready), PRE->ACT at 16, but tRC pushes ACT to 15; 16>15 so 16.
	want := uint64(16 + 4 + 4 + 4)
	if done != want {
		t.Errorf("row-conflict read completes at %d, want %d", done, want)
	}
	if st := d.Stats(); st.RowConflicts != 1 {
		t.Errorf("RowConflicts = %d", st.RowConflicts)
	}
}

func TestTRCEnforced(t *testing.T) {
	d := tiny()
	issue(d, 0, false, false, 0) // ACT bank0 at 0
	// Immediately conflict the row at the earliest possible time.
	done := issue(d, 8, false, false, 0)
	// Bank ready at 12; PRE 12->16; ACT candidate 16 >= tRC bound 15. So
	// CAS 20, data 24..28.
	if done != 28 {
		t.Errorf("done = %d, want 28", done)
	}
}

func TestBusSerialisation(t *testing.T) {
	d := tiny()
	// Two cold reads to different banks at the same time: the second's
	// burst must queue behind the first on the shared bus.
	a := issue(d, 0, false, false, 0) // bank 0: data 8..12
	b := issue(d, 4, false, false, 0) // bank 1: CAS path also 8..12, bus pushes to 12..16
	if a != 12 || b != 16 {
		t.Errorf("a=%d b=%d, want 12 and 16", a, b)
	}
}

func TestWriteRecovery(t *testing.T) {
	d := tiny()
	end := issue(d, 0, true, false, 0)
	if st := d.Stats(); st.Writes != 1 {
		t.Errorf("Writes = %d", st.Writes)
	}
	// Bank unavailable until end+tWR.
	if d.CanIssueD(d.Decode(1), end) {
		t.Error("bank should still be in write recovery")
	}
	if !d.CanIssueD(d.Decode(1), end+4) {
		t.Error("bank should be ready after tWR")
	}
}

func TestBankBusyAttribution(t *testing.T) {
	d := tiny()
	end := issue(d, 0, false, true, 0) // prefetch occupies bank 0
	busy, byPf := d.BankBusyD(d.Decode(1), end-1)
	if !busy || !byPf {
		t.Errorf("busy=%v byPf=%v, want true,true", busy, byPf)
	}
	busy, _ = d.BankBusyD(d.Decode(1), end)
	if busy {
		t.Error("bank should be free at completion cycle")
	}
	// Different bank is unaffected.
	if busy, _ := d.BankBusyD(d.Decode(4), 1); busy {
		t.Error("bank 1 should be idle")
	}
}

func TestEnergyAccounting(t *testing.T) {
	d := tiny()
	issue(d, 0, false, false, 0)
	issue(d, 1, false, false, 12)
	issue(d, 2, true, false, 20)
	st := d.Stats()
	wantOps := 1*10.0 + 2*20.0 + 1*25.0 // 1 ACT, 2 reads, 1 write
	seconds := float64(st.Cycles) / (float64(mem.CPUHz) / 8)
	wantBg := 1.0 * seconds * 1e9
	if math.Abs(st.EnergyNJ-(wantOps+wantBg)) > 1e-6 {
		t.Errorf("EnergyNJ = %v, want %v", st.EnergyNJ, wantOps+wantBg)
	}
	if st.AvgPowerWatts <= 1.0 {
		t.Errorf("AvgPowerWatts = %v, should exceed background", st.AvgPowerWatts)
	}
}

func TestObserveCycleExtendsWindow(t *testing.T) {
	d := tiny()
	issue(d, 0, false, false, 0)
	before := d.Stats()
	d.ObserveCycle(before.Cycles * 10)
	after := d.Stats()
	if after.Cycles <= before.Cycles {
		t.Error("ObserveCycle did not extend the window")
	}
	if after.AvgPowerWatts >= before.AvgPowerWatts {
		t.Error("idle time should dilute average power")
	}
}

func TestStatsEmpty(t *testing.T) {
	d := tiny()
	st := d.Stats()
	if st.Cycles != 0 || st.EnergyNJ != 0 || st.AvgPowerWatts != 0 {
		t.Errorf("empty stats = %+v", st)
	}
}

func TestReset(t *testing.T) {
	d := tiny()
	issue(d, 0, false, false, 0)
	d.Reset()
	st := d.Stats()
	if st.Reads != 0 || st.Activations != 0 || st.Cycles != 0 {
		t.Errorf("reset stats = %+v", st)
	}
	if done := issue(d, 0, false, false, 0); done != 12 {
		t.Errorf("post-reset cold read = %d, want 12", done)
	}
}

// Property: completion time is always strictly after issue time and
// monotone per bank; repeated sequential reads of one row are row hits.
func TestIssueProperties(t *testing.T) {
	f := func(lines []uint16) bool {
		d := New(DefaultConfig())
		now := uint64(0)
		for _, raw := range lines {
			l := mem.Line(raw)
			done := issue(d, l, false, false, now)
			if done <= now {
				return false
			}
			now = done
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSequentialStreamMostlyRowHits(t *testing.T) {
	d := New(DefaultConfig())
	now := uint64(0)
	for l := mem.Line(0); l < 256; l++ {
		now = issue(d, l, false, false, now)
	}
	st := d.Stats()
	if st.RowHits < 200 {
		t.Errorf("sequential stream row hits = %d/256, want most", st.RowHits)
	}
}

func BenchmarkIssue(b *testing.B) {
	d := New(DefaultConfig())
	now := uint64(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now = issue(d, mem.Line(i*17), false, false, now)
	}
}

func TestRefreshClosesRowAndHoldsBank(t *testing.T) {
	cfg := Config{
		Timing:   Timing{TRCD: 4, TCL: 4, TRP: 4, TRAS: 11, TRC: 15, TWR: 4, TBurst: 4, TREFI: 100, TRFC: 30},
		Geometry: Geometry{Ranks: 1, BanksPerRank: 2, RowBytes: 512},
		Power:    Power{BackgroundWatts: 1, ActivateNJ: 10, ReadNJ: 20, WriteNJ: 25, RefreshNJ: 50},
	}
	d := New(cfg)
	issue(d, 0, false, false, 0) // opens row 0 of bank 0
	// Right after the k=1 refresh at cycle 100, the bank must be held
	// until 130 and its row closed.
	if d.CanIssueD(d.Decode(0), 110) {
		t.Error("bank available during refresh window")
	}
	if !d.CanIssueD(d.Decode(0), 130) {
		t.Error("bank not released after tRFC")
	}
	// Row was closed: the access at 130 is a row miss (activate), not a
	// row hit.
	before := d.Stats().RowMisses
	issue(d, 0, false, false, 130)
	if d.Stats().RowMisses != before+1 {
		t.Error("refresh should close the open row")
	}
}

func TestRefreshDisabledWhenTREFIZero(t *testing.T) {
	d := tiny() // TREFI 0
	issue(d, 0, false, false, 0)
	if !d.CanIssueD(d.Decode(0), 1<<20) {
		t.Error("bank should be free with refresh disabled")
	}
	st := d.Stats()
	// No refresh energy contribution beyond ops+background.
	if st.EnergyNJ <= 0 {
		t.Error("energy should be positive")
	}
}

func TestRefreshEnergyCounted(t *testing.T) {
	cfg := Config{
		Timing:   Timing{TRCD: 4, TCL: 4, TRP: 4, TRC: 15, TBurst: 4, TREFI: 100, TRFC: 30},
		Geometry: Geometry{Ranks: 2, BanksPerRank: 2, RowBytes: 512},
		Power:    Power{RefreshNJ: 50},
	}
	d := New(cfg)
	issue(d, 0, false, false, 0)
	d.ObserveCycle(1000) // 10 refresh windows x 2 ranks
	st := d.Stats()
	want := 1000.0 / 100 * 2 * 50
	if math.Abs(st.EnergyNJ-want) > 1e-9 {
		t.Errorf("refresh energy = %v, want %v", st.EnergyNJ, want)
	}
}
