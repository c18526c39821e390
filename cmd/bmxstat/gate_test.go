package main

import (
	"strings"
	"testing"
)

func refSummary() gateFigures {
	return gateFigures{
		MsgsPerMutatorOp:   2.0,
		GCCopyWords:        10000,
		AcquireTicksP99:    64,
		SyncsPerFlip:       1.0,
		RemoteAccessRatio:  0.5,
		OwnerMismatchCount: 4,
	}
}

func TestGatePassesOnIdenticalRun(t *testing.T) {
	if v := gateViolations(refSummary(), refSummary(), 25); len(v) != 0 {
		t.Fatalf("identical run violated the gate: %v", v)
	}
}

func TestGatePassesWithinTolerance(t *testing.T) {
	cur := refSummary()
	cur.MsgsPerMutatorOp = 2.2 // +10% < 25%
	cur.GCCopyWords = 11000    // +10%
	if v := gateViolations(cur, refSummary(), 25); len(v) != 0 {
		t.Fatalf("within-tolerance drift violated the gate: %v", v)
	}
}

func TestGatePassesOnImprovement(t *testing.T) {
	cur := refSummary()
	cur.MsgsPerMutatorOp = 1.0
	cur.GCCopyWords = 100
	cur.AcquireTicksP99 = 16
	if v := gateViolations(cur, refSummary(), 25); len(v) != 0 {
		t.Fatalf("an improvement violated the gate: %v", v)
	}
}

func TestGateTripsOnSyntheticRegressions(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*gateFigures)
		metric string
	}{
		{"msgs-per-op", func(b *gateFigures) { b.MsgsPerMutatorOp = 3.0 }, "msgs-per-mutator-op"},
		{"gc-copy-volume", func(b *gateFigures) { b.GCCopyWords = 20000 }, "gc-copy-words"},
		{"acquire-p99", func(b *gateFigures) { b.AcquireTicksP99 = 256 }, "acquire-ticks-p99"},
		{"syncs-per-flip", func(b *gateFigures) { b.SyncsPerFlip = 8.0 }, "syncs-per-flip"},
		{"locality-ratio", func(b *gateFigures) { b.RemoteAccessRatio = 0.9 }, "remote-access-ratio"},
		{"owner-mismatches", func(b *gateFigures) { b.OwnerMismatchCount = 20 }, "owner-mismatch-count"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cur := refSummary()
			tc.mutate(&cur)
			v := gateViolations(cur, refSummary(), 25)
			if len(v) != 1 {
				t.Fatalf("got %d violations, want exactly the injected one: %v", len(v), v)
			}
			if !strings.Contains(v[0], tc.metric) {
				t.Fatalf("violation %q does not name %q", v[0], tc.metric)
			}
		})
	}
}

func TestGateZeroReferenceMeansStayZero(t *testing.T) {
	ref := refSummary()
	ref.SyncsPerFlip = 0
	cur := refSummary()
	cur.SyncsPerFlip = 0.5
	v := gateViolations(cur, ref, 25)
	if len(v) != 1 || !strings.Contains(v[0], "syncs-per-flip") {
		t.Fatalf("a metric appearing over a zero reference must violate: %v", v)
	}
}
