package sim

import (
	"encoding/json"
	"strings"
	"testing"

	"asdsim/internal/mc"
	"asdsim/internal/workload"
)

const testBudget = 300_000

func run(t *testing.T, bench string, mode Mode) Result {
	t.Helper()
	cfg := Default(mode, testBudget)
	res, err := Run(bench, cfg)
	if err != nil {
		t.Fatalf("Run(%s, %v): %v", bench, mode, err)
	}
	return res
}

func TestModeAndEngineStrings(t *testing.T) {
	if NP.String() != "NP" || PS.String() != "PS" || MS.String() != "MS" || PMS.String() != "PMS" {
		t.Error("mode strings wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Error("unknown mode string")
	}
	if EngineASD.String() != "asd" || EngineNextLine.String() != "next-line" || EngineP5Style.String() != "p5-style" {
		t.Error("engine strings wrong")
	}
	if EngineKind(9).String() != "EngineKind(9)" {
		t.Error("unknown engine string")
	}
}

func TestConfigValidate(t *testing.T) {
	good := Default(NP, 1000)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := map[string]func(*Config){
		"mode":    func(c *Config) { c.Mode = Mode(9) },
		"threads": func(c *Config) { c.Threads = 3 },
		"budget":  func(c *Config) { c.InstrBudget = 0 },
		"window":  func(c *Config) { c.Window = 0 },
		// Geometries cache.New panics on come back from Run as errors.
		"L1 size":       func(c *Config) { c.Cache.L1Size = 0 },
		"L2 assoc":      func(c *Config) { c.Cache.L2Assoc = 17 },
		"L3 ragged":     func(c *Config) { c.Cache.L3Size += 64 },
		"L3 over 1 GiB": func(c *Config) { c.Cache.L3Size = 2 << 30 },
		// Capacities mc.New panics on, in a mode that prefetches.
		"read queue 0":    func(c *Config) { c.MC.ReadQueueCap = 0 },
		"write queue big": func(c *Config) { c.MC.WriteQueueCap = mc.MaxQueueCap + 1 },
		"CAQ 0":           func(c *Config) { c.MC.CAQCap = 0 },
		"LPQ 0":           func(c *Config) { c.MC.LPQCap = 0 },
		"PB 0":            func(c *Config) { c.MC.PBLines = 0 },
		"PB ragged":       func(c *Config) { c.MC.PBLines = 18 },
		"PB big":          func(c *Config) { c.MC.PBLines = 2 * mc.MaxPBLines },
		// Fields dram.New, core.NewEngine (with its Stream Filter and
		// SLH tables), core.NewAdaptiveScheduler and prefetch.NewPS
		// panic on.
		"DRAM banks 0":       func(c *Config) { c.DRAM.Geometry.BanksPerRank = 0 },
		"DRAM short rows":    func(c *Config) { c.DRAM.Geometry.RowBytes = 32 },
		"DRAM tCL 0":         func(c *Config) { c.DRAM.Timing.TCL = 0 },
		"ASD degree 0":       func(c *Config) { c.ASD.MaxDegree = 0 },
		"filter slots 0":     func(c *Config) { c.ASD.Filter.Slots = 0 },
		"filter lifetime 0":  func(c *Config) { c.ASD.Filter.Lifetime = 0 },
		"SLH length 1":       func(c *Config) { c.ASD.SLH.MaxLength = 1 },
		"SLH epoch 0":        func(c *Config) { c.ASD.SLH.EpochLen = 0 },
		"sched epoch 0":      func(c *Config) { c.Sched.EpochReads = 0 },
		"sched fixed policy": func(c *Config) { c.Sched.Fixed = 9 },
		"PS entries 0":       func(c *Config) { c.PS.DetectEntries = 0 },
		"PS L2 ahead 0":      func(c *Config) { c.PS.L2Ahead = 0 },
	}
	for name, f := range cases {
		c := Default(PMS, 1000)
		f(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
		if _, err := Run("GemsFDTD", c); err == nil {
			t.Errorf("%s: Run accepted the config", name)
		}
	}
	// A mode builds only its own prefetchers, so NP checks no LPQ,
	// Prefetch Buffer, ASD, scheduler or PS config, and a non-ASD engine
	// no ASD config.
	np := Default(NP, 1000)
	np.MC.LPQCap, np.MC.PBLines = 0, 0
	np.ASD.MaxDegree, np.Sched.EpochReads, np.PS.DetectEntries = 0, 0, 0
	if err := np.Validate(); err != nil {
		t.Errorf("NP with unsized prefetchers: %v", err)
	}
	ghb := Default(PMS, 1000)
	ghb.Engine, ghb.ASD.MaxDegree = EngineGHB, 0
	if err := ghb.Validate(); err != nil {
		t.Errorf("GHB engine with an unsized ASD config: %v", err)
	}
}

func TestRunUnknownBenchmark(t *testing.T) {
	if _, err := Run("nosuch", Default(NP, 1000)); err == nil {
		t.Error("expected error for unknown benchmark")
	}
}

// A profile whose records a packed trace could not hold never reaches a
// run: Register refuses it, so Run reports an error instead of
// simulating truncated gaps or addresses that run into thread 1's.
func TestRunRefusesUnpackableProfile(t *testing.T) {
	for name, edit := range map[string]func(*workload.Profile){
		"gap":       func(p *workload.Profile) { p.MeanGap = 1 << 20 },
		"footprint": func(p *workload.Profile) { p.FootprintLines = 1 << 40 },
	} {
		p, err := workload.ByName("milc")
		if err != nil {
			t.Fatal(err)
		}
		p.Name = "unpackable-" + name
		edit(&p)
		if err := workload.Register(p); err == nil {
			t.Fatalf("%s: Register accepted the profile", name)
		}
		if _, err := Run(p.Name, Default(PMS, 10_000)); err == nil {
			t.Errorf("%s: Run accepted the profile", name)
		}
	}
}

func TestRunCompletesAndAccounts(t *testing.T) {
	res := run(t, "GemsFDTD", NP)
	if res.Instructions < testBudget {
		t.Errorf("Instructions = %d, want >= %d", res.Instructions, testBudget)
	}
	if res.Cycles == 0 || res.IPC <= 0 {
		t.Errorf("Cycles=%d IPC=%v", res.Cycles, res.IPC)
	}
	if res.MC.RegularReads == 0 {
		t.Error("no reads reached the MC for a memory-bound benchmark")
	}
	if res.DRAM.Reads == 0 {
		t.Error("no DRAM reads")
	}
}

func TestRunDeterministic(t *testing.T) {
	a := run(t, "tonto", PMS)
	b := run(t, "tonto", PMS)
	if a.Cycles != b.Cycles || a.MC != b.MC {
		t.Errorf("non-deterministic: %d vs %d cycles", a.Cycles, b.Cycles)
	}
}

// The paper's headline ordering: PMS must beat PS and NP; MS must beat NP
// on stream-rich, memory-bound workloads.
func TestPrefetchingOrderingOnStreamingWorkload(t *testing.T) {
	np := run(t, "bwaves", NP)
	ps := run(t, "bwaves", PS)
	ms := run(t, "bwaves", MS)
	pms := run(t, "bwaves", PMS)
	t.Logf("bwaves cycles: NP=%d PS=%d MS=%d PMS=%d", np.Cycles, ps.Cycles, ms.Cycles, pms.Cycles)
	if ps.Cycles >= np.Cycles {
		t.Errorf("PS (%d) should beat NP (%d)", ps.Cycles, np.Cycles)
	}
	if ms.Cycles >= np.Cycles {
		t.Errorf("MS (%d) should beat NP (%d)", ms.Cycles, np.Cycles)
	}
	if pms.Cycles >= ps.Cycles {
		t.Errorf("PMS (%d) should beat PS (%d)", pms.Cycles, ps.Cycles)
	}
}

// Commercial workloads have low spatial locality; MS should still help
// (the paper's central claim) via short streams.
func TestMSHelpsCommercialWorkload(t *testing.T) {
	np := run(t, "notesbench", NP)
	ms := run(t, "notesbench", MS)
	t.Logf("notesbench cycles: NP=%d MS=%d (gain %.1f%%)", np.Cycles, ms.Cycles,
		100*(float64(np.Cycles)/float64(ms.Cycles)-1))
	if ms.Cycles >= np.Cycles {
		t.Errorf("MS (%d) should beat NP (%d) on commercial workload", ms.Cycles, np.Cycles)
	}
}

// Cache-resident benchmarks must see almost no effect from prefetching.
func TestCacheResidentUnaffected(t *testing.T) {
	np := run(t, "namd", NP)
	pms := run(t, "namd", PMS)
	ratio := float64(np.Cycles) / float64(pms.Cycles)
	if ratio < 0.98 || ratio > 1.05 {
		t.Errorf("namd NP/PMS cycle ratio = %.3f, want ~1.0", ratio)
	}
}

func TestFig13MetricsInRange(t *testing.T) {
	res := run(t, "milc", PMS)
	if res.Coverage <= 0 || res.Coverage > 1 {
		t.Errorf("coverage = %v", res.Coverage)
	}
	if res.UsefulPrefetchFrac <= 0 || res.UsefulPrefetchFrac > 1 {
		t.Errorf("useful = %v", res.UsefulPrefetchFrac)
	}
	if res.DelayedRegularFrac < 0 || res.DelayedRegularFrac > 0.25 {
		t.Errorf("delayed = %v", res.DelayedRegularFrac)
	}
}

func TestSLHHistogramsPopulated(t *testing.T) {
	res := run(t, "GemsFDTD", MS)
	if res.TrueLengths.Total() == 0 {
		t.Error("true lengths empty")
	}
	if res.ApproxLengths == nil || res.ApproxLengths.Total() == 0 {
		t.Error("approx lengths empty")
	}
	if res.LastEpochSLH == nil || res.LastEpochSLH.Total() == 0 {
		t.Error("epoch SLH empty")
	}
	// The filter approximation should track ground truth reasonably
	// (paper Fig. 16): L1 distance over the 16-bucket distribution.
	d := res.TrueLengths.L1Distance(res.ApproxLengths)
	t.Logf("SLH approximation L1 distance = %.3f", d)
	if d > 0.6 {
		t.Errorf("approximation too far from truth: %v vs %v", res.ApproxLengths, res.TrueLengths)
	}
}

func TestSMTRuns(t *testing.T) {
	cfg := Default(PMS, testBudget/2)
	cfg.Threads = 2
	res, err := Run("milc", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions < testBudget-2 {
		t.Errorf("SMT instructions = %d", res.Instructions)
	}
}

func TestDRAMEnergyPositive(t *testing.T) {
	res := run(t, "lbm", PMS)
	if res.DRAM.EnergyNJ <= 0 || res.DRAM.AvgPowerWatts <= 0 {
		t.Errorf("DRAM power/energy: %+v", res.DRAM)
	}
}

func TestBaselineEnginesRun(t *testing.T) {
	for _, ek := range []EngineKind{EngineNextLine, EngineP5Style} {
		cfg := Default(MS, testBudget/3)
		cfg.Engine = ek
		res, err := Run("milc", cfg)
		if err != nil {
			t.Fatalf("%v: %v", ek, err)
		}
		if res.MC.PrefetchesToDRAM == 0 {
			t.Errorf("%v issued no prefetches", ek)
		}
	}
}

// TestResultStamp pins the one place the run's two time domains meet:
// the wall-clock stamp. Every path stamps a positive duration, the rate
// is cycles over that duration, and neither field reaches the JSON that
// the determinism tests compare bit for bit.
func TestResultStamp(t *testing.T) {
	cfg := Default(PMS, 20_000)
	one, err := Run("milc", cfg)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := NewBatch().Run("milc", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]Result{"Run": one, "Batch.Run": batched} {
		if !(res.WallSeconds > 0) {
			t.Errorf("%s: WallSeconds = %v, want > 0", name, res.WallSeconds)
		}
		if want := float64(res.Cycles) / res.WallSeconds; res.CyclesPerSec != want {
			t.Errorf("%s: CyclesPerSec = %v, want Cycles/WallSeconds = %v", name, res.CyclesPerSec, want)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		for _, field := range []string{"WallSeconds", "CyclesPerSec"} {
			if strings.Contains(string(b), field) {
				t.Errorf("%s: %s is in the Result JSON", name, field)
			}
		}
	}
	sampled, err := Sampled("milc", Default(PMS, 500_000), DefaultSampleConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !(sampled.WallSeconds > 0) {
		t.Errorf("sampled: WallSeconds = %v, want > 0", sampled.WallSeconds)
	}
	if b, err := json.Marshal(sampled); err != nil || strings.Contains(string(b), "WallSeconds") {
		t.Errorf("sampled: WallSeconds is in the JSON (err %v)", err)
	}
}
