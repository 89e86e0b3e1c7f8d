package cpu

import (
	"testing"

	"asdsim/internal/trace"
)

// cursor returns a cursor over n loads of address 0, each after a
// 4-instruction gap.
func cursor(n int) *trace.Cursor {
	out := make([]trace.Packed, n)
	for i := range out {
		out[i] = trace.Pack(trace.Record{Gap: 4, Op: trace.Load, Addr: 0})
	}
	return trace.NewCursor(out)
}

func TestNewThreadPanics(t *testing.T) {
	for name, cfg := range map[string]Config{
		"window":      {Window: 0, MaxOutstanding: 1, BudgetInstructions: 1},
		"outstanding": {Window: 1, MaxOutstanding: 0, BudgetInstructions: 1},
		"budget":      {Window: 1, MaxOutstanding: 1, BudgetInstructions: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			NewThread(0, cursor(0), cfg)
		}()
	}
}

func TestNextRecordAccounting(t *testing.T) {
	th := NewThread(0, cursor(3), DefaultConfig(1000))
	r, ok := th.NextRecord()
	if !ok || r.Gap != 4 {
		t.Fatalf("rec = %v ok=%v", r, ok)
	}
	if th.Now != 5 || th.Instructions != 5 {
		t.Errorf("Now=%d Instr=%d, want 5,5", th.Now, th.Instructions)
	}
}

func TestBudgetEndsThread(t *testing.T) {
	th := NewThread(0, cursor(100), Config{Window: 8, MaxOutstanding: 2, BudgetInstructions: 12})
	n := 0
	for {
		if _, ok := th.NextRecord(); !ok {
			break
		}
		n++
	}
	// 5 instructions per record: records at instr 5, 10, then 15 > 12.
	if n != 3 {
		t.Errorf("records executed = %d, want 3", n)
	}
	if !th.Finished() {
		t.Error("thread should be finished")
	}
}

func TestTraceExhaustionEndsThread(t *testing.T) {
	th := NewThread(0, cursor(2), DefaultConfig(1000))
	th.NextRecord()
	th.NextRecord()
	if _, ok := th.NextRecord(); ok {
		t.Error("expected exhaustion")
	}
	if !th.Finished() {
		t.Error("thread should be finished")
	}
}

func TestBlockedOnOutstandingLimit(t *testing.T) {
	th := NewThread(0, cursor(100), Config{Window: 1000, MaxOutstanding: 2, BudgetInstructions: 1 << 30})
	th.NextRecord()
	id1 := th.AddPending(1, true)
	if th.BlockedOn() != nil {
		t.Fatal("one pending should not block")
	}
	th.AddPending(2, true)
	b := th.BlockedOn()
	if b == nil || b.ID != id1 {
		t.Fatalf("blocked on %+v, want oldest (id %d)", b, id1)
	}
	th.Complete(id1)
	if th.BlockedOn() != nil {
		t.Error("completion should unblock")
	}
}

func TestBlockedOnWindow(t *testing.T) {
	th := NewThread(0, cursor(100), Config{Window: 10, MaxOutstanding: 8, BudgetInstructions: 1 << 30})
	th.NextRecord() // instr 5
	id := th.AddPending(1, true)
	th.NextRecord() // instr 10
	if th.BlockedOn() != nil {
		t.Fatal("within window should not block")
	}
	th.NextRecord() // instr 15: 10 past the load
	b := th.BlockedOn()
	if b == nil || b.ID != id {
		t.Fatalf("blocked = %+v, want load %d", b, id)
	}
}

func TestStoreMissesDoNotBlockViaWindow(t *testing.T) {
	th := NewThread(0, cursor(100), Config{Window: 10, MaxOutstanding: 8, BudgetInstructions: 1 << 30})
	th.NextRecord()
	th.AddPending(1, false) // store miss
	for i := 0; i < 10; i++ {
		th.NextRecord()
	}
	if th.BlockedOn() != nil {
		t.Error("store miss must not block retirement")
	}
}

func TestResumeAccountsStall(t *testing.T) {
	th := NewThread(0, cursor(10), DefaultConfig(1000))
	th.NextRecord() // Now = 5
	th.Resume(50)
	if th.Now != 50 || th.StallCycles != 45 {
		t.Errorf("Now=%d Stall=%d", th.Now, th.StallCycles)
	}
	th.Resume(20) // in the past: no-op
	if th.Now != 50 || th.StallCycles != 45 {
		t.Errorf("backwards Resume changed state: Now=%d Stall=%d", th.Now, th.StallCycles)
	}
}

func TestChargeHitAndDrain(t *testing.T) {
	th := NewThread(0, cursor(10), DefaultConfig(1000))
	th.NextRecord()
	th.ChargeHit(13)
	if th.Now != 18 {
		t.Errorf("Now = %d", th.Now)
	}
	th.DrainTo(100)
	if th.Now != 100 {
		t.Errorf("DrainTo: Now = %d", th.Now)
	}
	th.DrainTo(10)
	if th.Now != 100 {
		t.Error("DrainTo must not move backwards")
	}
}

func TestCompleteUnknownIDIsNoop(t *testing.T) {
	th := NewThread(0, cursor(10), DefaultConfig(1000))
	th.AddPending(1, true)
	th.Complete(999)
	if len(th.pend) != 1 {
		t.Error("unknown completion removed a pending entry")
	}
}
