package main

import (
	"encoding/json"
	"os"
	"testing"
)

// The metric tables in main.go and BENCHMARK.json must name the same
// metrics with the same units, in the same order.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Fatalf("%s: main.go has %d metrics, BENCHMARK.json %d", kind, len(defs), len(got))
		}
		for i := range defs {
			if defs[i].name != got[i].Name || defs[i].unit != got[i].Unit {
				t.Errorf("%s[%d]: main.go %s (%s), BENCHMARK.json %s (%s)", kind, i, defs[i].name, defs[i].unit, got[i].Name, got[i].Unit)
			}
		}
	}
	compare("end_to_end", endToEnd, spec.EndToEnd)
	compare("per_layer", perLayer, spec.PerLayer)
}

// Every per-layer metric has a ledger entry saying what it moves.
func TestLedgerCoversPerLayerMetrics(t *testing.T) {
	data, err := os.ReadFile("ledger.json")
	if err != nil {
		t.Fatal(err)
	}
	var ledger struct {
		Layers []struct {
			Metric string   `json:"metric"`
			Moves  []string `json:"moves"`
		} `json:"layers"`
	}
	if err := json.Unmarshal(data, &ledger); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, l := range ledger.Layers {
		seen[l.Metric] = true
	}
	for _, d := range perLayer {
		if !seen[d.name] {
			t.Errorf("ledger.json has no entry for %s", d.name)
		}
	}
}
