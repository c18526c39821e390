package cluster

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"bmx/internal/dsm"
)

// Soak tests: long randomized runs across the configuration matrix
// (cluster sizes, loss rates, protocol variants, token granularities). They
// are the heavyweight counterpart of the per-seed property tests and are
// skipped in -short mode.

func TestSoakMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("soak tests skipped in -short mode")
	}
	cases := []modelCfg{
		{seed: 101, nodes: 2, steps: 800},
		{seed: 102, nodes: 3, steps: 800, loss: 0.2},
		{seed: 103, nodes: 4, steps: 600, loss: 0.4},
		{seed: 104, nodes: 5, steps: 500},
		{seed: 105, nodes: 3, steps: 600, protocol: dsm.ProtocolStrict},
		{seed: 106, nodes: 3, steps: 500, protocol: dsm.ProtocolStrict, loss: 0.2},
		{seed: 107, nodes: 2, steps: 500, segmentGrain: true},
		{seed: 108, nodes: 3, steps: 400, segmentGrain: true, loss: 0.1},
	}
	for _, c := range cases {
		c := c
		name := fmt.Sprintf("n%d_s%d_loss%.0f_%v_grain%v",
			c.nodes, c.steps, c.loss*100, c.protocol, c.segmentGrain)
		t.Run(name, func(t *testing.T) {
			runModelCfg(t, c)
		})
	}
}

// sweepKnownDefects lists the model-sweep runs that fail today, by
// configuration and seed, as "entry/s2002" (ROADMAP items 10/11). The list
// may only shrink: a run outside it that fails is a regression, and a run
// that passes again leaves it. Every run passes today.
var sweepKnownDefects = map[string]bool{}

// TestModelSweep runs the randomized model over 50 seeds in three
// configurations and ratchets the result against sweepKnownDefects.
func TestModelSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("soak tests skipped in -short mode")
	}
	configs := []struct {
		name string
		cfg  modelCfg
	}{
		{"entry", modelCfg{nodes: 3, steps: 400}},
		{"loss", modelCfg{nodes: 4, steps: 300, loss: 0.2}},
		{"strict", modelCfg{nodes: 3, steps: 400, protocol: dsm.ProtocolStrict}},
	}
	var regressed, fixed []string
	for _, c := range configs {
		for seed := int64(2000); seed < 2050; seed++ {
			key := fmt.Sprintf("%s/s%d", c.name, seed)
			cfg := c.cfg
			cfg.seed = seed
			failure := sweepRun(t, cfg)
			switch {
			case failure != "" && !sweepKnownDefects[key]:
				regressed = append(regressed, key)
				t.Errorf("%s: %s", key, failure)
			case failure == "" && sweepKnownDefects[key]:
				fixed = append(fixed, key)
			}
		}
	}
	if len(fixed) > 0 {
		slices.Sort(fixed)
		t.Logf("known defects that now pass (drop them from sweepKnownDefects): %v", fixed)
	}
	if len(regressed) > 0 {
		t.Errorf("%d sweep runs outside the known-defect list fail: %v", len(regressed), regressed)
	}
}

// sweepT stands in for the test inside one sweep run: a fatal failure ends
// the run and is recorded instead of failing the whole test.
type sweepT struct {
	testing.TB
	failure string
}

func (s *sweepT) Fatalf(format string, args ...any) {
	s.failure = fmt.Sprintf(format, args...)
	runtime.Goexit()
}

func (s *sweepT) Fatal(args ...any) {
	s.failure = fmt.Sprint(args...)
	runtime.Goexit()
}

func (s *sweepT) Errorf(format string, args ...any) { s.Fatalf(format, args...) }

// Logf drops a run's diagnostics: the failure message names the defect.
func (s *sweepT) Logf(string, ...any) {}

// sweepRun runs one model configuration and returns how it failed, or ""
// when it passed. A panic counts as a failure.
func sweepRun(t *testing.T, cfg modelCfg) string {
	st := &sweepT{TB: t}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() {
			if r := recover(); r != nil {
				st.failure = fmt.Sprint("panic: ", r)
			}
		}()
		runModelCfg(st, cfg)
	}()
	<-done
	return st.failure
}

func TestSoakInvariantsThroughout(t *testing.T) {
	if testing.Short() {
		t.Skip("soak tests skipped in -short mode")
	}
	// Audit the full invariant set periodically during a long run.
	m := newModel(t, modelCfg{seed: 222, nodes: 3, steps: 600})
	for s := 0; s < 600; s++ {
		m.step()
		if s%100 == 99 {
			m.cl.Run(0)
			if bad := m.cl.CheckInvariants(); len(bad) != 0 {
				t.Fatalf("step %d: %v", s, bad)
			}
		}
	}
}
