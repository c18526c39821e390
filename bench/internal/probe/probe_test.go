package probe

import (
	"testing"

	"bmx/bench/internal/harness"
)

// Every probe runs, at a fraction of its length, and leaves every metric the
// catalogue marks as a probe.
func TestAllProbesReport(t *testing.T) {
	iterScale = 50
	defer func() { iterScale = 1 }()
	v := harness.Values{}
	if err := All(v, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	for _, m := range harness.Catalogue {
		got, ok := v[m.Name]
		if m.Probe != ok {
			t.Errorf("%s: probe %v, measured %v", m.Name, m.Probe, ok)
		}
		if ok && got.Value <= 0 && m.Name != "tcp.payload_cost_us" {
			t.Errorf("%s = %v", m.Name, got.Value)
		}
	}
}
