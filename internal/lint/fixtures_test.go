package lint_test

import (
	"strings"
	"testing"

	"asdsim/internal/lint"
	"asdsim/internal/lint/linttest"
)

// Each fixture tree holds positive cases (constructs the pass must
// flag, pinned by `// want` comments) and negative cases (idioms and
// //asd:allow escapes that must stay silent).

func TestDeterminismFixture(t *testing.T) {
	linttest.Run(t, "testdata/determinism", lint.DeterminismAnalyzer)
}

func TestNoallocFixture(t *testing.T) {
	linttest.Run(t, "testdata/noalloc", lint.NoallocAnalyzer)
}

func TestNoperturbFixture(t *testing.T) {
	linttest.Run(t, "testdata/noperturb", lint.NoperturbAnalyzer)
}

func TestExhaustiveFixture(t *testing.T) {
	linttest.Run(t, "testdata/exhaustive", lint.ExhaustiveAnalyzer)
}

func TestLockorderFixture(t *testing.T) {
	linttest.Run(t, "testdata/lockorder", lint.LockorderAnalyzer)
}

func TestWirecheckFixture(t *testing.T) {
	linttest.Run(t, "testdata/wirecheck", lint.WirecheckAnalyzer)
}

// A helper reachable from two //asd:hotpath roots is attributed to the
// root declared first on every load: the closure walk is seeded in
// source order, so the "(hot: called from X)" text of a finding never
// varies between runs.
func TestHotpathAttributionNamesFirstRoot(t *testing.T) {
	const src = `package p

//asd:hotpath
func first() { shared() }

//asd:hotpath
func second() { shared() }

func shared() { _ = make([]int, 4) }
`
	for i := 0; i < 100; i++ {
		got := messages(checkSource(t, src, lint.NoallocAnalyzer), "hotpath-noalloc")
		if len(got) != 1 || !strings.Contains(got[0], "(hot: called from first)") {
			t.Fatalf("load %d: got %q, want one finding attributed to first", i, got)
		}
	}
}
