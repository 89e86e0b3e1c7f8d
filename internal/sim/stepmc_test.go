package sim

import (
	"context"
	"testing"

	"asdsim/internal/cache"
	"asdsim/internal/mem"
)

// TestStepMCToGuards pins the clock arithmetic of the background MC
// stepper: the idle jump stays MC-cycle aligned, a target inside (or
// behind) the current MC cycle makes no progress, and the NextWake
// fast-forward never oversteps the target even when the wake cycle lies
// beyond it.
func TestStepMCToGuards(t *testing.T) {
	r, err := NewBatch().buildRunner(context.Background(), "GemsFDTD", Default(NP, 1000), cache.NewHierarchy)
	if err != nil {
		t.Fatal(err)
	}

	// Idle controller: jump straight to the aligned target, no stepping.
	r.stepMCTo(103)
	if r.mcNow != 100 {
		t.Fatalf("idle jump: mcNow = %d, want 100 (103 aligned down)", r.mcNow)
	}

	// Target inside the current MC cycle: nothing to do.
	r.stepMCTo(101)
	if r.mcNow != 100 {
		t.Fatalf("in-cycle target moved the clock to %d", r.mcNow)
	}

	// Target behind the clock: must not move backwards.
	r.stepMCTo(50)
	if r.mcNow != 100 {
		t.Fatalf("past target moved the clock to %d", r.mcNow)
	}

	// Put one read in flight so only DRAM completion work remains; its
	// wake cycle is tens of CPU cycles out.
	r.cmdID++
	r.ctrl.Enqueue(mem.Command{Kind: mem.Read, Line: 42, Arrival: r.mcNow, ID: r.cmdID})
	for i := 0; i < 16 && r.ctrl.NextWake(r.mcNow) == r.mcNow+mem.CPUCyclesPerMCCycle; i++ {
		r.stepMCTo(r.mcNow + mem.CPUCyclesPerMCCycle)
	}
	wake := r.ctrl.NextWake(r.mcNow)
	if wake == ^uint64(0) || wake <= r.mcNow+mem.CPUCyclesPerMCCycle {
		t.Fatalf("expected a distant wake with a read in flight, got %d (mcNow %d)", wake, r.mcNow)
	}

	// Fast-forward with a target short of the wake: the clock advances to
	// the aligned target and stops — it must not jump to the wake cycle.
	target := r.mcNow + 2*mem.CPUCyclesPerMCCycle + 2 // mid-cycle, before wake
	if target >= wake {
		t.Fatalf("test setup: target %d not short of wake %d", target, wake)
	}
	r.stepMCTo(target)
	if want := target - target%mem.CPUCyclesPerMCCycle; r.mcNow != want {
		t.Fatalf("short target: mcNow = %d, want %d", r.mcNow, want)
	}
	if r.mcNow > target {
		t.Fatalf("stepMCTo overshot target: %d > %d", r.mcNow, target)
	}

	// Fast-forward past the wake: the clock lands on an MC-cycle boundary
	// at or after the wake, still bounded by the target.
	target = wake + 3*mem.CPUCyclesPerMCCycle
	r.stepMCTo(target)
	if r.mcNow%mem.CPUCyclesPerMCCycle != 0 {
		t.Fatalf("mcNow %d not MC-cycle aligned", r.mcNow)
	}
	if r.mcNow > target {
		t.Fatalf("stepMCTo overshot target: %d > %d", r.mcNow, target)
	}
}
