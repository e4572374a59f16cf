package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the repository root must name exactly the workloads
// and metrics the benchmark reports, with the same units and directions.
func TestMetricsMatchManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	if want := []string{"phase-720", "small-flows", "table6-columnar"}; !equal(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	for _, c := range []struct {
		kind       string
		got, wants []metricDef
	}{{"end_to_end", m.EndToEnd, endToEnd}, {"per_layer", m.PerLayer, perLayer}} {
		if len(c.got) != len(c.wants) {
			t.Errorf("%s lists %d metrics, the benchmark reports %d", c.kind, len(c.got), len(c.wants))
			continue
		}
		for i, want := range c.wants {
			got := c.got[i]
			if got.Name != want.Name || got.Unit != want.Unit || got.Better != want.Better {
				t.Errorf("%s[%d] = %s %s %s, want %s %s %s", c.kind, i,
					got.Name, got.Unit, got.Better, want.Name, want.Unit, want.Better)
			}
		}
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
