package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMetricListsMatchBenchmarkJSON keeps the metric names and units the
// benchmark prints in step with BENCHMARK.json at the repository root.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got [][2]string, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the benchmark, %d in BENCHMARK.json", what, len(got), len(want))
		}
		for i := range got {
			if got[i][0] != want[i].Name || got[i][1] != want[i].Unit {
				t.Errorf("%s[%d]: benchmark has %s (%s), BENCHMARK.json has %s (%s)", what, i, got[i][0], got[i][1], want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", e2eMetrics, spec.EndToEnd)
	check("per_layer", layerMetrics, spec.PerLayer)
}
