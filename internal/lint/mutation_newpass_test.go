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

// TestRenamedWireFieldFailsVet gives stream.Config's Slots field a json
// tag, which renames it on the wire (the leaf config structs carry no
// tags, so their wire names are the Go names) without touching any Go
// call site; the wirecheck pass must flag the drift against the
// checked-in wire.lock.
func TestRenamedWireFieldFailsVet(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks stream from source")
	}
	l := newRealLoader(lint.WirecheckAnalyzer)
	l.Transform = func(filename string, src []byte) []byte {
		if filename != "filter.go" {
			return src
		}
		out := strings.Replace(string(src), "\tSlots int\n", "\tSlots int `json:\"slots\"`\n", 1)
		if out == string(src) {
			t.Fatal("mutation did not apply; stream.Config's Slots field changed shape")
		}
		return []byte(out)
	}
	if _, err := l.Load("asdsim/internal/stream"); err != nil {
		t.Fatalf("loading mutated stream: %v", err)
	}
	found := false
	for _, d := range l.Diags() {
		if d.Pass == "wirecheck" && strings.Contains(d.Message, "drifted from wire.lock") && strings.Contains(d.Message, "renamed") {
			found = true
		}
	}
	if !found {
		t.Errorf("renaming Config.Slots on the wire produced no wirecheck drift finding; diags: %v", l.Diags())
	}
}
