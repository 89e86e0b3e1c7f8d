package lint_test

import (
	"strings"
	"testing"

	"asdsim/internal/lint"
)

// Acceptance mutations for the flow-engine passes: each seeded
// regression must fail the `go vet -vettool=asdlint` gate. The tests
// rewrite one real source file in memory and assert the pass fires,
// proving the gate guards the property and not just today's source.

// TestSeededLockCycleFailsVet appends two functions to the workload
// trace cache that acquire a pair of mutexes in opposite orders; the
// lockorder pass must report the cycle.
func TestSeededLockCycleFailsVet(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks workload from source")
	}
	l := newRealLoader(lint.LockorderAnalyzer)
	mutated := false
	l.Transform = func(filename string, src []byte) []byte {
		if filename != "memo.go" {
			return src
		}
		mutated = true
		return append(src, []byte(`
type lintCycA struct{ mu sync.Mutex }
type lintCycB struct{ mu sync.Mutex }

func lintLockAB(a *lintCycA, b *lintCycB) {
	a.mu.Lock()
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}

func lintLockBA(a *lintCycA, b *lintCycB) {
	b.mu.Lock()
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Unlock()
}
`)...)
	}
	if _, err := l.Load("asdsim/internal/workload"); err != nil {
		t.Fatalf("loading mutated workload: %v", err)
	}
	if !mutated {
		t.Fatal("transform never ran; memo.go moved?")
	}
	found := false
	for _, d := range l.Diags() {
		if d.Pass == "lockorder" && strings.Contains(d.Message, "lock-order cycle") {
			found = true
		}
	}
	if !found {
		t.Errorf("seeded AB/BA lock order produced no lock-order cycle finding; diags: %v", l.Diags())
	}
}

// TestRenamedWireFieldFailsVet renames prov.Stream's Dropped field on
// the wire (via its json tag) without touching any Go call site; the
// wirecheck pass must flag the drift against the checked-in wire.lock.
func TestRenamedWireFieldFailsVet(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks prov from source")
	}
	l := newRealLoader(lint.WirecheckAnalyzer)
	l.Transform = func(filename string, src []byte) []byte {
		if filename != "prov.go" {
			return src
		}
		out := strings.Replace(string(src), "`json:\"dropped,omitempty\"`", "`json:\"lost,omitempty\"`", 1)
		if out == string(src) {
			t.Fatal("mutation did not apply; prov.Stream's Dropped field changed shape")
		}
		return []byte(out)
	}
	if _, err := l.Load("asdsim/internal/obs/prov"); err != nil {
		t.Fatalf("loading mutated prov: %v", err)
	}
	found := false
	for _, d := range l.Diags() {
		if d.Pass == "wirecheck" && strings.Contains(d.Message, "drifted from wire.lock") && strings.Contains(d.Message, "renamed") {
			found = true
		}
	}
	if !found {
		t.Errorf("renaming Stream.Dropped on the wire produced no wirecheck drift finding; diags: %v", l.Diags())
	}
}

// TestCyclesVsWallclockComparisonFailsVet rewrites the runner's
// wall-clock stamp to compare simulated cycles against wall seconds;
// the simtime pass must flag the cross-domain comparison.
func TestCyclesVsWallclockComparisonFailsVet(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the sim closure from source")
	}
	l := newRealLoader(lint.SimtimeAnalyzer)
	l.Transform = func(filename string, src []byte) []byte {
		if filename != "runner.go" {
			return src
		}
		out := strings.Replace(string(src),
			"if res.WallSeconds > 0 {",
			"if res.WallSeconds > float64(res.Cycles) {", 1)
		if out == string(src) {
			t.Fatal("mutation did not apply; runner.go's stamp guard changed shape")
		}
		return []byte(out)
	}
	if _, err := l.Load("asdsim/internal/sim"); err != nil {
		t.Fatalf("loading mutated sim: %v", err)
	}
	found := false
	for _, d := range l.Diags() {
		if d.Pass == "simtime" && strings.Contains(d.Message, "cross-domain time arithmetic") {
			found = true
		}
	}
	if !found {
		t.Errorf("comparing cycles against wall seconds produced no simtime finding; diags: %v", l.Diags())
	}
}
