package sim

import "testing"

// TestMCStepCounts pins how many times the memory controller steps on a
// fixed cell set. The counts depend only on the cells, so a change to
// the controller's wake rule that adds idle Steps fails here without
// any wall clock; one that drops a needed Step moves a golden Result.
func TestMCStepCounts(t *testing.T) {
	cells := []struct {
		bench string
		steps [4]uint64 // NP, PS, MS, PMS
	}{
		{"GemsFDTD", [4]uint64{5675, 7774, 6029, 7900}},
		{"milc", [4]uint64{5696, 8265, 5823, 8069}},
		{"tpcc", [4]uint64{12239, 17443, 12894, 17165}},
	}
	b := NewBatch()
	for _, c := range cells {
		for i, mode := range []Mode{NP, PS, MS, PMS} {
			res, err := b.Run(c.bench, Default(mode, 200_000))
			if err != nil {
				t.Fatal(err)
			}
			if res.MCSteps != c.steps[i] {
				t.Errorf("%s/%s: %d MC Steps, want %d", c.bench, mode, res.MCSteps, c.steps[i])
			}
		}
	}
}
