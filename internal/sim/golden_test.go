package sim

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"asdsim/internal/core"
	"asdsim/internal/obs"
)

// updateGolden regenerates the committed golden Result files instead of
// comparing against them:
//
//	go test ./internal/sim -run TestGoldenDeterminism -update-golden
//
// Run it only when a simulated-behavior change is intended; kernel-level
// performance refactors must leave every golden byte-identical.
var updateGolden = flag.Bool("update-golden", false, "rewrite golden Result files")

// goldenBudget keeps the matrix fast while still spanning several SLH
// epochs (2000 reads each), so ASD adaptation, the LPQ, the PB, and the
// adaptive scheduler all see real traffic.
const goldenBudget = 60_000

// fixedPolicyBudget is the budget of the fixed-policy golden cell. At
// goldenBudget no fixed-policy cell of either benchmark issues a
// prefetch while the CAQ holds work behind a prefetch-held bank, so
// those cells would not pin the memory controller's wake rule.
const fixedPolicyBudget = 150_000

// goldenMatrix is the seed matrix of the determinism contract: two
// benchmarks (one stream-heavy, one mixed) across all four modes and two
// memory-side engines, plus the P5-style engine in the two modes that
// run a memory-side engine, plus PMS on two threads under the fixed
// timestamp policy, which issues prefetches while the CAQ is not empty.
func goldenMatrix() []Config {
	var cfgs []Config
	for _, mode := range []Mode{NP, PS, MS, PMS} {
		for _, eng := range []EngineKind{EngineASD, EngineGHB} {
			cfg := Default(mode, goldenBudget)
			cfg.Engine = eng
			cfgs = append(cfgs, cfg)
		}
	}
	for _, mode := range []Mode{MS, PMS} {
		cfg := Default(mode, goldenBudget)
		cfg.Engine = EngineP5Style
		cfgs = append(cfgs, cfg)
	}
	cfg := Default(PMS, fixedPolicyBudget)
	cfg.Threads = 2
	cfg.Sched.Fixed = core.PolicyTimestamp
	return append(cfgs, cfg)
}

// raiseCells are golden cells whose adaptive scheduler raises its
// policy, one step more conservative after an epoch with at least
// RaiseThreshold conflicts. No goldenMatrix cell takes that branch at
// seed 1. Two threads press the DRAM harder, and each of these cells
// raises twice at fixedPolicyBudget.
var raiseCells = []struct {
	bench string
	mode  Mode
}{{"tpcc", PMS}, {"is", MS}, {"cg", PMS}}

// goldenName names a cell's golden file; a fixed-policy cell's name
// also carries the policy and the thread count, and an adaptive
// two-thread cell's the thread count.
func goldenName(bench string, cfg Config) string {
	name := fmt.Sprintf("%s_%s_%s", bench, cfg.Mode, cfg.Engine)
	switch {
	case cfg.Sched.Fixed != 0:
		name += fmt.Sprintf("_%s_%dt", cfg.Sched.Fixed, cfg.Threads)
	case cfg.Threads > 1:
		name += fmt.Sprintf("_adaptive_%dt", cfg.Threads)
	}
	return name + ".json"
}

// matchGolden compares res's canonical JSON with the committed golden
// file name, or rewrites the file under -update-golden.
func matchGolden(t *testing.T, name string, res Result) {
	t.Helper()
	dir := filepath.Join("testdata", "golden")
	got, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join(dir, name)
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Result JSON diverged from golden %s;\nif the behavior change is intended, regenerate with -update-golden", name)
	}
}

// TestGoldenDeterminism pins the simulator's observable behavior: the
// canonical Result JSON for a small benchmark × mode × engine matrix is
// committed under testdata/golden and compared byte-for-byte. Any kernel
// refactor that changes a single simulated outcome — a cycle count, a
// queue decision, a histogram bucket — fails here loudly.
func TestGoldenDeterminism(t *testing.T) {
	for _, bench := range []string{"GemsFDTD", "milc"} {
		for _, cfg := range goldenMatrix() {
			name := goldenName(bench, cfg)
			t.Run(name, func(t *testing.T) {
				res, err := Run(bench, cfg)
				if err != nil {
					t.Fatal(err)
				}
				matchGolden(t, name, res)
			})
		}
	}
}

// raiseCounter counts the adaptive scheduler's policy raises: epoch
// rolls whose new policy is more conservative than the old.
type raiseCounter struct{ raises int }

func (c *raiseCounter) Kinds() obs.KindSet { return obs.KindsOf(obs.KindSchedPolicy) }

func (c *raiseCounter) Emit(e obs.Event) {
	if e.V1 < e.V3 {
		c.raises++
	}
}

// TestGoldenAdaptiveRaise pins the raiseCells as goldens, so a defect in
// the Adaptive Scheduler's raise branch moves a golden Result, and
// requires each cell to keep taking that branch.
func TestGoldenAdaptiveRaise(t *testing.T) {
	for _, c := range raiseCells {
		cfg := Default(c.mode, fixedPolicyBudget)
		cfg.Threads = 2
		name := goldenName(c.bench, cfg)
		t.Run(name, func(t *testing.T) {
			var rc raiseCounter
			cfg.Obs = obs.NewBus(&rc)
			res, err := Run(c.bench, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rc.raises == 0 {
				t.Error("the adaptive scheduler never raised its policy; pick a cell that does")
			}
			matchGolden(t, name, res)
		})
	}
}
