package main

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"bmx/bench/internal/harness"
)

// Values checked against Python: statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 8.5},
		{[]float64{2, 4}, 1.5, 4.5},
		{[]float64{3, 1, 2}, 1, 3},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; Python says %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// results writes one results file holding local_hot's ops_per_s and
// op_p50_us and returns its path.
func results(t *testing.T, dir, name string, opsPerS, p50 float64) string {
	t.Helper()
	r := harness.Results{}
	out := &harness.Outcome{Workload: "local_hot", Correct: true, Attempted: 1, Metrics: harness.Values{}}
	out.Metrics.Set("ops_per_s", opsPerS, 1)
	out.Metrics.Set("op_p50_us", p50, 1)
	r.Add(out)
	path := filepath.Join(dir, name)
	if err := harness.WriteJSON(path, r); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestVerdicts(t *testing.T) {
	dir := t.TempDir()
	base := []string{results(t, dir, "b1", 1000, 10), results(t, dir, "b2", 1010, 10.1), results(t, dir, "b3", 990, 9.9)}
	same := []string{results(t, dir, "s1", 995, 10), results(t, dir, "s2", 1005, 10.05), results(t, dir, "s3", 1000, 9.95)}
	slow := []string{results(t, dir, "w1", 500, 10), results(t, dir, "w2", 505, 10.05), results(t, dir, "w3", 495, 9.95)}
	wide := []string{results(t, dir, "n1", 600, 10), results(t, dir, "n2", 1000, 10.05), results(t, dir, "n3", 1400, 9.95)}

	if err := run(false, []string{strings.Join(base, ","), strings.Join(same, ",")}); err != nil {
		t.Errorf("same code: %v", err)
	}
	if err := run(false, []string{strings.Join(base, ","), strings.Join(slow, ",")}); err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Errorf("half the ops/s: %v", err)
	}
	// A faster side is never a regression.
	if err := run(false, []string{strings.Join(slow, ","), strings.Join(base, ",")}); err != nil {
		t.Errorf("twice the ops/s: %v", err)
	}
	// Quartiles further apart than the bound: unresolved, which is not a
	// failure of the comparison but is counted.
	if err := run(false, []string{strings.Join(base, ","), strings.Join(wide, ",")}); err != nil {
		t.Errorf("wide spread: %v", err)
	}
	// Single files compare too.
	if err := run(false, []string{base[0], slow[0]}); err == nil {
		t.Error("one run against one half as fast was not a regression")
	}
	if err := run(false, []string{base[0]}); err == nil {
		t.Error("one side alone was accepted")
	}
}

func TestMedianSetKeepsQuartiles(t *testing.T) {
	dir := t.TempDir()
	s, err := load([]string{results(t, dir, "a", 1000, 10), results(t, dir, "b", 1100, 11), results(t, dir, "c", 900, 9)})
	if err != nil {
		t.Fatal(err)
	}
	med := s.medians()
	m := med.Workloads["local_hot"].EndToEnd["ops_per_s"]
	want, _ := harness.Find("ops_per_s")
	if med.Runs != 3 || m.Value.Value != 1000 || m.Q1 == nil || *m.Q1 != 900 || *m.Q3 != 1100 || m.Bound != want.Bound {
		t.Errorf("median set: runs %d, %+v", med.Runs, m)
	}
	// A median set stands for its runs when compared.
	path := filepath.Join(dir, "HEAD.json")
	if err := harness.WriteJSON(path, med); err != nil {
		t.Fatal(err)
	}
	one, err := load([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	sm := one.sample(func(r harness.Results) (harness.ResultMetric, bool) {
		v, ok := r.Workloads["local_hot"].EndToEnd["ops_per_s"]
		return v, ok
	})
	if !sm.hasSpread || sm.q1 != 900 || sm.q3 != 1100 || one.runs() != 3 {
		t.Errorf("sample of a median set: %+v", sm)
	}
}
