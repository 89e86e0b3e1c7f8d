package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestBenchmarkJSONMatchesSpec keeps BENCHMARK.json at the repository
// root and spec.json in step: same workloads, same metrics with the
// same units, directions and bounds.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var top struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(specJSON, &spec); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(top.Paths, []string{"perfbench"}) || len(top.Command) < 2 || top.Command[1] != "perfbench/run.sh" {
		t.Errorf("command %v, paths %v", top.Command, top.Paths)
	}
	var names []string
	for _, w := range top.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames())
	}
	same := func(kind string, a, b []metric) {
		if len(a) != len(b) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in spec.json", kind, len(a), len(b))
			return
		}
		for i := range a {
			x, y := a[i], b[i]
			if x.Name != y.Name || x.Unit != y.Unit || x.Better != y.Better ||
				(x.Bound == nil) != (y.Bound == nil) || (x.Bound != nil && *x.Bound != *y.Bound) {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, spec.json %+v", kind, i, x, y)
			}
		}
	}
	same("end_to_end", top.EndToEnd, spec.EndToEnd)
	same("per_layer", top.PerLayer, spec.PerLayer)
}
