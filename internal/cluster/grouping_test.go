package cluster

import (
	"testing"
)

// Tests for the SSP-connectivity grouping heuristic (§7 future work).

// buildCycle creates a dead 2-cycle spanning two fresh bunches at n.
func buildCycle(t *testing.T, n *Node) (a, b Ref) {
	t.Helper()
	b1 := n.NewBunch()
	b2 := n.NewBunch()
	a = n.MustAlloc(b1, 1)
	b = n.MustAlloc(b2, 1)
	if err := n.WriteRef(a, 0, b); err != nil {
		t.Fatal(err)
	}
	if err := n.WriteRef(b, 0, a); err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestConnectedGroupsPartition(t *testing.T) {
	cl := New(Config{Nodes: 1, SegWords: 64})
	n := cl.Node(0)
	buildCycle(t, n) // bunches 1-2 connected
	buildCycle(t, n) // bunches 3-4 connected
	iso := n.NewBunch()
	keep := n.MustAlloc(iso, 1)
	n.AddRoot(keep)

	groups := n.ConnectedGroups()
	if len(groups) != 3 {
		t.Fatalf("groups = %v, want 3 components", groups)
	}
	if len(groups[0]) != 2 || len(groups[1]) != 2 || len(groups[2]) != 1 {
		t.Fatalf("component sizes wrong: %v", groups)
	}
}

func TestCollectConnectedGroupsReclaimsCycles(t *testing.T) {
	cl := New(Config{Nodes: 1, SegWords: 64})
	n := cl.Node(0)
	a1, b1 := buildCycle(t, n)
	a2, b2 := buildCycle(t, n)
	iso := n.NewBunch()
	keep := n.MustAlloc(iso, 1)
	n.AddRoot(keep)

	st := n.CollectConnectedGroups()
	if st.Dead != 4 {
		t.Fatalf("dead = %d, want both cycles (4 objects)", st.Dead)
	}
	for _, o := range []Ref{a1, b1, a2, b2} {
		if _, ok := n.DSM().Canonical(o.OID); ok {
			t.Fatalf("cycle member %v survived", o)
		}
	}
	if _, ok := n.DSM().Canonical(keep.OID); !ok {
		t.Fatal("isolated live object reclaimed")
	}
}

func TestConnectedGroupsCheaperThanWholeSite(t *testing.T) {
	// The isolated bunch's collection must not pay for the cycles'
	// bunches: per-component collections scan fewer objects per run than
	// one whole-site group collection repeated per component.
	build := func() (*Cluster, *Node) {
		cl := New(Config{Nodes: 1, SegWords: 256})
		n := cl.Node(0)
		buildCycle(t, n)
		iso := n.NewBunch()
		for i := 0; i < 20; i++ {
			o := n.MustAlloc(iso, 1)
			n.AddRoot(o)
		}
		return cl, n
	}
	_, n1 := build()
	whole := n1.CollectGroup(nil)
	_, n2 := build()
	groups := n2.ConnectedGroups()
	// Collect only the component containing the cycle (bunches 1 and 2).
	perCycle := n2.CollectGroup(groups[0])
	if perCycle.Dead != 2 {
		t.Fatalf("cycle component reclaimed %d, want 2", perCycle.Dead)
	}
	if perCycle.Scanned >= whole.Scanned {
		t.Fatalf("component scan (%d) not cheaper than whole site (%d)",
			perCycle.Scanned, whole.Scanned)
	}
}
