package sim

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
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

// goldenMatrix is the seed matrix of the determinism contract: two
// benchmarks (one stream-heavy, one mixed) across all four modes and two
// memory-side engines, plus the P5-style engine in the two modes that
// run a memory-side engine.
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
	return cfgs
}

func goldenName(bench string, cfg Config) string {
	return fmt.Sprintf("%s_%s_%s.json", bench, cfg.Mode, cfg.Engine)
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
