package main

import (
	"encoding/json"
	"os"
	"testing"

	"bmx/bench/internal/harness"
)

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []benchmarkMetric `json:"end_to_end"`
	PerLayer   []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

// BENCHMARK.json at the root of the repository and the harness's tables say
// the same thing: the same workloads with the same reasons, the gated
// end-to-end metrics with their units, directions and bounds, and every other
// metric as a per-layer one.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(harness.Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(b.Workloads), len(harness.Workloads))
	}
	for i, w := range harness.Workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.Name, w.Why)
		}
	}
	want := map[bool][]harness.Metric{}
	for _, m := range harness.Catalogue {
		want[m.Gated] = append(want[m.Gated], m)
	}
	check := func(what string, got []benchmarkMetric, want []harness.Metric, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the catalogue %d", what, len(got), len(want))
			return
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s, %s), the catalogue %s (%s, %s)", what, i, g.Name, g.Unit, g.Better, m.Name, m.Unit, m.Better)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != m.Bound) {
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in the catalogue", what, m.Name, g.Bound, m.Bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, want[true], true)
	check("per_layer", b.PerLayer, want[false], false)
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
}

// The driver's line holds exactly the metrics BENCHMARK.json promises for
// the trace mode, with 0 for what the workload has no event for.
func TestDriverLine(t *testing.T) {
	res := &harness.Outcome{Correct: true, Attempted: 10, Metrics: harness.Values{}}
	res.Metrics.Set("ops_per_s", 123.5, 10)
	res.Metrics.Set("dsm.msgs_per_op", 0.25, 10)
	for trace := 0; trace <= 1; trace++ {
		line := driverLine(res, trace)
		data, err := json.Marshal(line)
		if err != nil {
			t.Fatal(err)
		}
		var back struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if !back.Correct || back.Attempted != 10 || back.Failed != 0 {
			t.Errorf("trace %d: %s", trace, data)
		}
		for _, m := range harness.Catalogue {
			got, ok := back.Metrics[m.Name]
			if ok != (m.Gated == (trace == 0)) {
				t.Errorf("trace %d: %s present %v", trace, m.Name, ok)
			}
			if ok && got.Unit != m.Unit {
				t.Errorf("trace %d: %s has unit %q", trace, m.Name, got.Unit)
			}
		}
	}
	if v := driverLine(res, 0)["metrics"]; v == nil {
		t.Fatal("no metrics")
	}
}
