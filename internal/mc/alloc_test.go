package mc

import (
	"testing"

	"asdsim/internal/core"
	"asdsim/internal/dram"
	"asdsim/internal/mem"
)

// TestSteadyStateStepDoesNotAllocate pins the allocation-free kernel: once
// the freelists, ring buffers, and scratch slices have warmed up, driving
// the full MC pipeline (enqueue, reorder queues, arbitration, DRAM issue,
// prefetch engine, completions) must not touch the heap.
func TestSteadyStateStepDoesNotAllocate(t *testing.T) {
	d := dram.New(dram.DefaultConfig())
	sched := core.NewAdaptiveScheduler(core.DefaultSchedulerConfig())
	c := New(DefaultConfig(), d, asdEngines(1), sched)
	c.SetReadDone(func(mem.Command, uint64) {})

	var now, id uint64
	var line mem.Line
	step := func() {
		now += mem.CPUCyclesPerMCCycle
		// A sustainable demand stream (one sequential read every fourth
		// MC cycle, plus a write every 64th) keeps every pipeline stage
		// active: stream detection, LPQ prefetches, PB traffic, DRAM.
		if now%16 == 0 {
			id++
			line++
			c.Enqueue(mem.Command{Kind: mem.Read, Line: line, Arrival: now, ID: id})
		}
		if now%256 == 0 {
			id++
			c.Enqueue(mem.Command{Kind: mem.Write, Line: line - 8, Arrival: now, ID: id})
		}
		c.Step(now)
	}
	for i := 0; i < 20000; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(5000, step); avg != 0 {
		t.Errorf("steady-state MC step allocates %.3f allocs/op, want 0", avg)
	}
}

// TestSteadyStateStepDoesNotAllocateLatePBHit extends the gate to the
// second Prefetch Buffer check, which the stream above never reaches: a
// Read that waits in the CAQ behind a same-bank head while its line
// lands in the Prefetch Buffer is delivered by finalIssue's late hit. No
// Enqueue traffic stages that (see TestNextWakeWakesForPBHeldCAQHead),
// so each round installs the line itself. The measured rounds must take
// late hits and must not allocate.
func TestSteadyStateStepDoesNotAllocateLatePBHit(t *testing.T) {
	d := dram.New(dram.DefaultConfig())
	sched := core.NewAdaptiveScheduler(core.DefaultSchedulerConfig())
	h := &harness{c: New(DefaultConfig(), d, asdEngines(1), sched), d: d}
	h.c.SetReadDone(func(mem.Command, uint64) {})

	// Lines 0, 512 and 1024 share bank 0 on different rows: the first
	// holds the bank, and the other two wait in the CAQ behind it.
	lines := [...]mem.Line{0, 512, 1024}
	step := func() {
		h.now += mem.CPUCyclesPerMCCycle
		h.c.Step(h.now)
	}
	round := func() {
		for _, l := range lines {
			h.read(l)
		}
		for i := 0; h.c.caq.Len() < 2; i++ {
			if i == 64 {
				t.Fatal("the second and third Reads never queued in the CAQ")
			}
			step()
		}
		h.c.pb.Insert(h.c.caq.At(1).cmd.Line, 1)
		for h.holdsWork() {
			step()
		}
	}
	for i := 0; i < 200; i++ {
		round()
	}
	late := h.c.Stats().PBHitsLate
	if avg := testing.AllocsPerRun(500, round); avg != 0 {
		t.Errorf("a round with a late PB hit allocates %.3f allocs/op, want 0", avg)
	}
	if h.c.Stats().PBHitsLate == late {
		t.Error("no late PB hit in the measured rounds")
	}
}
