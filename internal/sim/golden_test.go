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

// goldenName names a cell's golden file; a fixed-policy cell's name
// also carries the policy and the thread count.
func goldenName(bench string, cfg Config) string {
	name := fmt.Sprintf("%s_%s_%s", bench, cfg.Mode, cfg.Engine)
	if cfg.Sched.Fixed != 0 {
		name += fmt.Sprintf("_%s_%dt", cfg.Sched.Fixed, cfg.Threads)
	}
	return name + ".json"
}

// TestGoldenDeterminism pins the simulator's observable behavior: the
// canonical Result JSON for a small benchmark × mode × engine matrix is
// committed under testdata/golden and compared byte-for-byte. Any kernel
// refactor that changes a single simulated outcome — a cycle count, a
// queue decision, a histogram bucket — fails here loudly.
func TestGoldenDeterminism(t *testing.T) {
	dir := filepath.Join("testdata", "golden")
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, bench := range []string{"GemsFDTD", "milc"} {
		for _, cfg := range goldenMatrix() {
			name := goldenName(bench, cfg)
			t.Run(name, func(t *testing.T) {
				res, err := Run(bench, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.MarshalIndent(res, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, '\n')
				path := filepath.Join(dir, name)
				if *updateGolden {
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
			})
		}
	}
}
