package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// TestBenchmarkJSON checks BENCHMARK.json against its fixed form and
// against the metric lists the benchmark prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := top[k]; !ok {
			t.Errorf("key %q missing", k)
		}
	}
	if len(top) != 6 {
		t.Errorf("%d top-level keys, want 6", len(top))
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q uses characters other than letters, digits, _, . and -", name)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("unit %q of %s is not a valid unit", unit, name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range b.Workloads {
		check(w.Name, "")
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEndDefs) || len(b.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json lists %d/%d metrics, the benchmark prints %d/%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEndDefs), len(perLayerDefs))
	}
	for i, m := range b.EndToEnd {
		check(m.Name, m.Unit)
		if d := endToEndDefs[i]; d.name != m.Name || d.unit != m.Unit {
			t.Errorf("end_to_end[%d] is %s (%s), the benchmark prints %s (%s)", i, m.Name, m.Unit, d.name, d.unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	for i, m := range b.PerLayer {
		check(m.Name, m.Unit)
		if d := perLayerDefs[i]; d.name != m.Name || d.unit != m.Unit {
			t.Errorf("per_layer[%d] is %s (%s), the benchmark prints %s (%s)", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
}
