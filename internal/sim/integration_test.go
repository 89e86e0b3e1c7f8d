package sim

import (
	"testing"

	"asdsim/internal/mc"
)

// Conservation: every demand read the MC accepted was either served from
// DRAM, satisfied by the Prefetch Buffer, or merged onto a prefetch —
// nothing is lost or double-served.
func TestReadConservation(t *testing.T) {
	for _, mode := range []Mode{NP, PS, MS, PMS} {
		res, err := Run("GemsFDTD", Default(mode, 400_000))
		if err != nil {
			t.Fatal(err)
		}
		served := res.MC.DRAMReads + res.MC.PBHitsEntry + res.MC.PBHitsLate + res.MC.PFMergeHits
		if served != res.MC.RegularReads {
			t.Errorf("%v: reads=%d served=%d (dram=%d pbE=%d pbL=%d merge=%d)",
				mode, res.MC.RegularReads, served,
				res.MC.DRAMReads, res.MC.PBHitsEntry, res.MC.PBHitsLate, res.MC.PFMergeHits)
		}
	}
}

// DRAM traffic accounting: DRAM reads equal MC-issued demand reads plus
// prefetches; writes match MC writes.
func TestDRAMTrafficAccounting(t *testing.T) {
	res, err := Run("milc", Default(PMS, 400_000))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.DRAM.Reads; got != res.MC.DRAMReads+res.MC.PrefetchesToDRAM {
		t.Errorf("DRAM reads %d != demand %d + prefetch %d",
			got, res.MC.DRAMReads, res.MC.PrefetchesToDRAM)
	}
	if res.DRAM.Writes != res.MC.DRAMWrites {
		t.Errorf("DRAM writes %d != MC writes %d", res.DRAM.Writes, res.MC.DRAMWrites)
	}
}

// The NP and MS configurations execute the identical instruction stream,
// so their MC demand-read counts must match exactly (the prefetcher may
// only change *when* reads are served, never how many there are).
func TestDemandTrafficInvariantAcrossMS(t *testing.T) {
	np, err := Run("tonto", Default(NP, 400_000))
	if err != nil {
		t.Fatal(err)
	}
	ms, err := Run("tonto", Default(MS, 400_000))
	if err != nil {
		t.Fatal(err)
	}
	if np.MC.RegularReads != ms.MC.RegularReads {
		t.Errorf("demand reads differ: NP=%d MS=%d", np.MC.RegularReads, ms.MC.RegularReads)
	}
	if np.Instructions != ms.Instructions {
		t.Errorf("instructions differ: NP=%d MS=%d", np.Instructions, ms.Instructions)
	}
}

// Schedulers change ordering, never correctness: all commands complete
// under each scheduler and demand traffic is identical. MS mode is used
// because processor-side prefetch traffic legitimately varies with
// timing, while demand misses are a pure function of the access stream.
func TestSchedulersPreserveWork(t *testing.T) {
	type key struct{ reads, writes uint64 }
	seen := map[key]bool{}
	for _, sched := range []mc.SchedulerKind{mc.SchedInOrder, mc.SchedMemoryless, mc.SchedAHB} {
		cfg := Default(MS, 300_000)
		cfg.MC.Scheduler = sched
		res, err := Run("cactusADM", cfg)
		if err != nil {
			t.Fatal(err)
		}
		served := res.MC.DRAMReads + res.MC.PBHitsEntry + res.MC.PBHitsLate + res.MC.PFMergeHits
		if served != res.MC.RegularReads {
			t.Errorf("scheduler %d: conservation broken", sched)
		}
		seen[key{res.MC.RegularReads, res.MC.RegularWrites}] = true
	}
	if len(seen) != 1 {
		t.Errorf("demand traffic varies across schedulers: %v", seen)
	}
}

// Epoch histories must partition the stream observations: the per-epoch
// SLH totals sum to at most the reads-weighted stream mass.
func TestEpochHistoryConsistency(t *testing.T) {
	cfg := Default(MS, 1_200_000)
	cfg.ASD.KeepHistory = true
	res, err := Run("GemsFDTD", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EpochSLHs) < 3 {
		t.Fatalf("too few epochs: %d", len(res.EpochSLHs))
	}
	for i, h := range res.EpochSLHs {
		if h.Total() == 0 {
			t.Errorf("epoch %d empty", i)
		}
	}
}

// SMT threads share the memory system but keep private detection state:
// a 2-thread run completes both budgets and covers reads for both.
func TestSMTBothThreadsProgress(t *testing.T) {
	cfg := Default(PMS, 150_000)
	cfg.Threads = 2
	res, err := Run("milc", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions < 2*150_000 {
		t.Errorf("instructions = %d, want >= %d", res.Instructions, 2*150_000)
	}
	if res.Coverage <= 0 {
		t.Error("no coverage under SMT PMS")
	}
}
