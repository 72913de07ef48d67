package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists in step with
// what the program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var spec struct {
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
		Workloads []struct{ Name string }               `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	units := map[string]string{"allocs_per_op": "allocs/op", "heap_peak_mb": "MiB", "setup_s": "s"}
	if len(spec.EndToEnd) != len(gated) {
		t.Fatalf("end_to_end has %d metrics, program gates %d", len(spec.EndToEnd), len(gated))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != gated[i] || m.Unit != units[m.Name] {
			t.Errorf("end_to_end[%d] = %s %s, program prints %s %s", i, m.Name, m.Unit, gated[i], units[gated[i]])
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer has %d metrics, program prints %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if p := perLayer[i]; m.Name != p.name || m.Unit != p.unit || m.Better != p.better {
			t.Errorf("per_layer[%d] = %+v, program prints %+v", i, m, p)
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ","); got != "tcp_fetch,tcp_store,sim_campus" {
		t.Errorf("workloads %s", got)
	}
}
