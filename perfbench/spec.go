package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// specJSON is the benchmark's own definition: calibration reference,
// per-workload sizes, every metric's unit, direction and definition,
// the layer map and the recorded steadiness figures.
//
//go:embed spec.json
var specJSON []byte

type benchSpec struct {
	// ReferenceProbeMS is the probe time, on the host the benchmark was
	// defined on, that calibrated host times are expressed against.
	ReferenceProbeMS float64                 `json:"reference_probe_ms"`
	SimSeed          uint64                  `json:"sim_seed"`
	Workloads        map[string]workloadSpec `json:"workloads"`
	EndToEnd         []metricDef             `json:"end_to_end"`
	PerLayer         []metricDef             `json:"per_layer"`
}

type workloadSpec struct {
	// Budget is the per-cell instruction budget of the timed cells.
	Budget uint64 `json:"budget"`
	// AccuracyBudget is the budget of the farm's canonical accuracy
	// jobs (farm-local only).
	AccuracyBudget uint64 `json:"accuracy_budget,omitempty"`
	// UnitSeconds is the reference-host wall time of one timed unit
	// (a matrix pass or a farm job, probes included); --seconds is
	// turned into a fixed number of units with it, so every run of a
	// workload does the same work.
	UnitSeconds float64 `json:"unit_seconds"`
	// SetupReps is how many times set-up is repeated; setup_s is the
	// median.
	SetupReps int `json:"setup_reps"`
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec() (*benchSpec, error) {
	var s benchSpec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	if s.ReferenceProbeMS <= 0 || s.SimSeed == 0 {
		return nil, fmt.Errorf("spec.json: missing reference_probe_ms or sim_seed")
	}
	for _, name := range workloadNames() {
		w, ok := s.Workloads[name]
		if !ok || w.Budget == 0 || w.UnitSeconds <= 0 || w.SetupReps < 1 {
			return nil, fmt.Errorf("spec.json: workload %q needs budget, unit_seconds and setup_reps", name)
		}
	}
	return &s, nil
}

// units is the number of timed units for this run: --seconds worth at
// the reference rate, and at least two so a traced run has an
// untraced and a traced half.
func (b *bench) units() int {
	return max(2, int(float64(b.seconds)/b.wl.UnitSeconds+0.5))
}
