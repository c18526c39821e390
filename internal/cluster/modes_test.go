package cluster

import (
	"testing"

	"bmx/internal/dsm"
)

// Tests for the §10 future-work extensions: alternative consistency
// protocols and consistency granularity. The collector must behave
// identically under every mode.

func TestStrictProtocolReadsRevalidate(t *testing.T) {
	cl := New(Config{Nodes: 2, SegWords: 64, Seed: 1, Consistency: dsm.ProtocolStrict})
	n1, n2 := cl.Node(0), cl.Node(1)
	b := n1.NewBunch()
	o := n1.MustAlloc(b, 1)
	n1.AddRoot(o)
	n1.WriteWord(o, 0, 5)

	if err := n2.AcquireRead(o); err != nil {
		t.Fatal(err)
	}
	if v, _ := n2.ReadWord(o, 0); v != 5 {
		t.Fatalf("read = %d", v)
	}
	msgs := cl.Stats().Get("msg.sent.app")
	n2.Release(o)
	if n2.Mode(o) != dsm.ModeInvalid {
		t.Fatal("strict protocol must drop the read token at release")
	}
	// The next read revalidates over the network.
	if err := n2.AcquireRead(o); err != nil {
		t.Fatal(err)
	}
	if cl.Stats().Get("msg.sent.app") == msgs {
		t.Fatal("strict re-read should have gone to the network")
	}
}

func TestStrictProtocolOwnerKeepsToken(t *testing.T) {
	cl := New(Config{Nodes: 1, SegWords: 64, Consistency: dsm.ProtocolStrict})
	n := cl.Node(0)
	b := n.NewBunch()
	o := n.MustAlloc(b, 1)
	n.AddRoot(o)
	n.Release(o)
	// The owner's copy is always consistent; release must not strand it.
	if err := n.WriteWord(o, 0, 1); err != nil {
		t.Fatal(err)
	}
}

func TestStrictProtocolDistributedGC(t *testing.T) {
	// The full distributed-reclamation flow works unchanged under the
	// strict protocol (GC orthogonality, §1).
	cl := New(Config{Nodes: 2, SegWords: 64, Seed: 1, Consistency: dsm.ProtocolStrict})
	n1, n2 := cl.Node(0), cl.Node(1)
	b1 := n1.NewBunch()
	b2 := n2.NewBunch()
	tgt := n2.MustAlloc(b2, 1)
	src := n1.MustAlloc(b1, 1)
	n1.AddRoot(src)
	if err := n1.AcquireRead(tgt); err != nil {
		t.Fatal(err)
	}
	if err := n1.WriteRef(src, 0, tgt); err != nil {
		t.Fatal(err)
	}
	settle(cl, 2)
	if _, ok := n2.DSM().Canonical(tgt.OID); !ok {
		t.Fatal("live target reclaimed under strict protocol")
	}
	n1.RemoveRoot(src)
	settle(cl, 3)
	if _, ok := n2.DSM().Canonical(tgt.OID); ok {
		t.Fatal("dead target survived under strict protocol")
	}
	if got := cl.Stats().Get("dsm.acquire.r.gc") +
		cl.Stats().Get("dsm.acquire.w.gc"); got != 0 {
		t.Fatalf("collector acquired %d tokens under strict protocol", got)
	}
}

func TestSegmentGrainFalseSharing(t *testing.T) {
	cl := New(Config{Nodes: 2, SegWords: 64, Seed: 1, SegmentGrainTokens: true})
	n1, n2 := cl.Node(0), cl.Node(1)
	b := n1.NewBunch()
	a := n1.MustAlloc(b, 1) // co-located in the same allocation segment
	c := n1.MustAlloc(b, 1)
	n1.AddRoot(a)
	n1.AddRoot(c)
	if err := n2.AcquireRead(a); err != nil {
		t.Fatal(err)
	}
	// The sibling came along with the segment's token unit.
	if n2.Mode(c) < dsm.ModeRead {
		t.Fatalf("sibling mode = %v, want at least r (false sharing)", n2.Mode(c))
	}
	// A write at n2 drags the whole unit: n1 loses both.
	if err := n2.AcquireWrite(a); err != nil {
		t.Fatal(err)
	}
	if n1.Mode(c) != dsm.ModeInvalid {
		t.Fatalf("sibling at n1 = %v, want i after coarse write", n1.Mode(c))
	}
}

func TestSegmentGrainGCUnchanged(t *testing.T) {
	cl := New(Config{Nodes: 2, SegWords: 64, Seed: 1, SegmentGrainTokens: true})
	n1 := cl.Node(0)
	b := n1.NewBunch()
	live := n1.MustAlloc(b, 1)
	dead := n1.MustAlloc(b, 1)
	_ = dead
	n1.AddRoot(live)
	if err := cl.Node(1).AcquireRead(live); err != nil {
		t.Fatal(err)
	}
	// Coarse tokens drag the dead sibling into node 1's cache, pinning it
	// until node 1's reachability tables retract — the false-sharing cost
	// of the granularity. A settle round later it is reclaimed.
	st := n1.CollectBunch(b)
	if st.Dead != 0 {
		t.Fatalf("dead = %d on the first pass, want 0 (pinned by the coarse remote cache)", st.Dead)
	}
	settle(cl, 2)
	if _, ok := n1.DSM().Canonical(dead.OID); ok {
		t.Fatal("dead sibling survived the settle rounds")
	}
	if got := cl.Stats().Get("dsm.acquire.w.gc"); got != 0 {
		t.Fatalf("collector acquired %d tokens under segment grain", got)
	}
}

func TestRandomizedStrictProtocol(t *testing.T) {
	runModelCfg(t, modelCfg{seed: 21, nodes: 3, steps: 200, protocol: dsm.ProtocolStrict})
}

func TestRandomizedSegmentGrain(t *testing.T) {
	runModelCfg(t, modelCfg{seed: 22, nodes: 2, steps: 150, segmentGrain: true})
}
