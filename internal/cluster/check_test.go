package cluster

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

func TestCheckInvariantsCleanCluster(t *testing.T) {
	cl := New(Config{Nodes: 3, SegWords: 64, Seed: 1})
	n1, n2 := cl.Node(0), cl.Node(1)
	b := n1.NewBunch()
	o1 := n1.MustAlloc(b, 2)
	o2 := n1.MustAlloc(b, 1)
	n1.AddRoot(o1)
	n1.WriteRef(o1, 0, o2)
	n2.MapBunch(b)
	n2.AcquireWrite(o2)
	n1.CollectBunch(b)
	n2.CollectBunch(b)
	cl.Run(0)
	if bad := cl.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("violations on a clean cluster:\n%s", strings.Join(bad, "\n"))
	}
}

func TestCheckInvariantsAfterRandomRun(t *testing.T) {
	for seed := int64(31); seed <= 33; seed++ {
		m := newModel(t, modelCfg{seed: seed, nodes: 3, steps: 200})
		for s := 0; s < 200; s++ {
			m.step()
		}
		m.cl.Run(0)
		if bad := m.cl.CheckInvariants(); len(bad) != 0 {
			t.Fatalf("seed %d violations:\n%s", seed, strings.Join(bad, "\n"))
		}
	}
}

func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	cl := New(Config{Nodes: 2, SegWords: 64, Seed: 1})
	n1, n2 := cl.Node(0), cl.Node(1)
	b := n1.NewBunch()
	o := n1.MustAlloc(b, 1)
	n1.AddRoot(o)
	if err := n2.AcquireRead(o); err != nil {
		t.Fatal(err)
	}
	// Forge a second owner.
	n2.DSM().RegisterNew(o.OID, b)
	bad := cl.CheckInvariants()
	if len(bad) == 0 {
		t.Fatal("checker missed a forged second owner")
	}
	found := false
	for _, m := range bad {
		if strings.Contains(m, "owners") || strings.Contains(m, "write tokens") {
			found = true
		}
	}
	if !found {
		t.Fatalf("unexpected violation set: %v", bad)
	}

	// Forge a pointer word naming an unmapped address in the owner's copy.
	n1.mu.Lock()
	heap := n1.Collector().Heap()
	a, _ := n1.DSM().Canonical(o.OID)
	bogus := a.AddWords(1000 * 64)
	heap.SetField(a, 0, uint64(bogus), true)
	n1.mu.Unlock()
	want := fmt.Sprintf("address: %v.0 at %v names %v", o.OID, n1.ID(), bogus)
	if bad := cl.CheckInvariants(); !slices.ContainsFunc(bad, func(m string) bool { return strings.HasPrefix(m, want) }) {
		t.Fatalf("checker missed a forged pointer word (want %q): %v", want, bad)
	}
}
