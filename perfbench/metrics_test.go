package main

import (
	"encoding/json"
	"os"
	"testing"
)

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestMetricsMatchBenchmarkJSON holds the metric lists the program
// prints to the ones BENCHMARK.json declares, names and units both.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []declared              `json:"end_to_end"`
		PerLayer  []declared              `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDecl, want []declared) {
		printed := map[string]string{}
		for _, d := range got {
			printed[d.name] = d.unit
		}
		for _, d := range want {
			unit, ok := printed[d.Name]
			if !ok {
				t.Errorf("%s metric %s is declared but never printed", kind, d.Name)
			} else if unit != d.Unit {
				t.Errorf("%s metric %s: printed unit %q, declared %q", kind, d.Name, unit, d.Unit)
			}
			delete(printed, d.Name)
		}
		for name := range printed {
			t.Errorf("%s metric %s is printed but not declared", kind, name)
		}
	}
	check("end-to-end", endToEnd, bench.EndToEnd)
	check("per-layer", perLayer, bench.PerLayer)

	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		if i < len(workloads) && w.Name != workloads[i] {
			t.Errorf("workload %d: declared %s, program %s", i, w.Name, workloads[i])
		}
	}
}

func TestReportPrintsExactlyTheDeclared(t *testing.T) {
	rep := newReport()
	for _, d := range endToEnd[1:] {
		rep.set(d.name, 1)
	}
	if _, err := rep.metrics(endToEnd); err == nil {
		t.Errorf("%s unset, but the report rendered", endToEnd[0].name)
	}
	rep.set(endToEnd[0].name, 1)
	got, err := rep.metrics(endToEnd)
	if err != nil || len(got) != len(endToEnd) {
		t.Fatalf("rendered %d metrics, %v; want %d", len(got), err, len(endToEnd))
	}
	rep.set("not_a_metric", 1)
	if _, err := rep.metrics(endToEnd); err == nil {
		t.Error("an undeclared metric was rendered")
	}
}
