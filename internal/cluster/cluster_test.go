package cluster

import (
	"strings"
	"testing"

	"bmx/internal/dsm"
	"bmx/internal/transport"
)

func twoNodes(t *testing.T) *Cluster {
	t.Helper()
	return New(Config{Nodes: 2, SegWords: 64, Seed: 1})
}

func TestAllocReadWriteLocal(t *testing.T) {
	cl := New(Config{Nodes: 1})
	n := cl.Node(0)
	b := n.NewBunch()
	o := n.MustAlloc(b, 3)
	if err := n.WriteWord(o, 0, 42); err != nil {
		t.Fatal(err)
	}
	v, err := n.ReadWord(o, 0)
	if err != nil || v != 42 {
		t.Fatalf("ReadWord = %d, %v", v, err)
	}
	p := n.MustAlloc(b, 1)
	if err := n.WriteRef(o, 1, p); err != nil {
		t.Fatal(err)
	}
	got, err := n.ReadRef(o, 1)
	if err != nil || !n.SamePtr(got, p) {
		t.Fatalf("ReadRef = %v, %v", got, err)
	}
	if r, err := n.ReadRef(o, 2); err != nil || !r.IsNil() {
		t.Fatalf("unwritten ref field = %v, %v", r, err)
	}
}

func TestWriteWithoutTokenFails(t *testing.T) {
	cl := twoNodes(t)
	n1, n2 := cl.Node(0), cl.Node(1)
	b := n1.NewBunch()
	o := n1.MustAlloc(b, 1)
	// n2 has not acquired anything.
	if err := n2.WriteWord(o, 0, 1); err == nil {
		t.Fatal("write without token must fail")
	}
	if _, err := n2.ReadWord(o, 0); err == nil {
		t.Fatal("read without token must fail")
	}
}

func TestCrossNodeSharing(t *testing.T) {
	cl := twoNodes(t)
	n1, n2 := cl.Node(0), cl.Node(1)
	b := n1.NewBunch()
	o := n1.MustAlloc(b, 2)
	n1.WriteWord(o, 0, 7)

	if err := n2.AcquireRead(o); err != nil {
		t.Fatal(err)
	}
	if v, err := n2.ReadWord(o, 0); err != nil || v != 7 {
		t.Fatalf("remote read = %d, %v", v, err)
	}
	// Write from n2: invalidates n1, transfers ownership.
	if err := n2.AcquireWrite(o); err != nil {
		t.Fatal(err)
	}
	n2.WriteWord(o, 0, 9)
	if !n2.IsOwner(o) || n1.IsOwner(o) {
		t.Fatal("ownership did not transfer")
	}
	if n1.Mode(o) != dsm.ModeInvalid {
		t.Fatalf("n1 mode = %v, want i", n1.Mode(o))
	}
	// n1 re-reads: fresh value.
	if err := n1.AcquireRead(o); err != nil {
		t.Fatal(err)
	}
	if v, _ := n1.ReadWord(o, 0); v != 9 {
		t.Fatalf("n1 sees %d, want 9", v)
	}
}

func TestReferenceTravelsAcrossNodes(t *testing.T) {
	cl := twoNodes(t)
	n1, n2 := cl.Node(0), cl.Node(1)
	b := n1.NewBunch()
	o1 := n1.MustAlloc(b, 1)
	o2 := n1.MustAlloc(b, 1)
	n1.WriteWord(o2, 0, 1234)
	if err := n1.WriteRef(o1, 0, o2); err != nil {
		t.Fatal(err)
	}
	// n2 acquires o1; invariant 1 must make o2's address valid there.
	if err := n2.AcquireRead(o1); err != nil {
		t.Fatal(err)
	}
	got, err := n2.ReadRef(o1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !n2.SamePtr(got, o2) {
		t.Fatalf("ref = %v, want %v", got, o2)
	}
	// Following the reference: acquire the target and read it.
	if err := n2.AcquireRead(got); err != nil {
		t.Fatal(err)
	}
	if v, _ := n2.ReadWord(got, 0); v != 1234 {
		t.Fatalf("target value = %d", v)
	}
}

func TestWriteBarrierCreatesInterBunchSSP(t *testing.T) {
	cl := twoNodes(t)
	n1 := cl.Node(0)
	b1 := n1.NewBunch()
	b2 := n1.NewBunch()
	src := n1.MustAlloc(b1, 1)
	tgt := n1.MustAlloc(b2, 1)
	if err := n1.WriteRef(src, 0, tgt); err != nil {
		t.Fatal(err)
	}
	tab1 := n1.Collector().Replica(b1).Table
	if len(tab1.InterStubs) != 1 {
		t.Fatalf("stub table has %d entries, want 1", len(tab1.InterStubs))
	}
	tab2 := n1.Collector().Replica(b2).Table
	if len(tab2.InterScions) != 1 {
		t.Fatalf("scion table has %d entries, want 1", len(tab2.InterScions))
	}
	// Intra-bunch writes create no SSPs.
	src2 := n1.MustAlloc(b1, 1)
	n1.WriteRef(src, 0, src2)
	if len(tab1.InterStubs) != 1 {
		t.Fatal("intra-bunch write created a stub")
	}
}

func TestScionMessageAcrossNodes(t *testing.T) {
	cl := twoNodes(t)
	n1, n2 := cl.Node(0), cl.Node(1)
	b1 := n1.NewBunch()
	b2 := n2.NewBunch() // only mapped at n2
	tgt := n2.MustAlloc(b2, 1)

	src := n1.MustAlloc(b1, 1)
	// n1 learns about tgt by reading it (gets its manifest).
	if err := n1.AcquireRead(tgt); err != nil {
		t.Fatal(err)
	}
	before := cl.Stats().Get("core.scionMsgs")
	if err := n1.WriteRef(src, 0, tgt); err != nil {
		t.Fatal(err)
	}
	if cl.Stats().Get("core.scionMsgs") != before+1 {
		t.Fatal("scion-message not sent for remote target bunch")
	}
	// The scion lives at n2 (where b2 is mapped), the stub at n1.
	if len(n2.Collector().Replica(b2).Table.InterScions) != 1 {
		t.Fatal("scion not installed at n2")
	}
	stubs := n1.Collector().Replica(b1).Table.InterStubList()
	if len(stubs) != 1 || stubs[0].ScionNode != n2.ID() {
		t.Fatalf("stub = %+v", stubs)
	}
}

func TestBGCCollectsLocalGarbage(t *testing.T) {
	cl := New(Config{Nodes: 1, SegWords: 64})
	n := cl.Node(0)
	b := n.NewBunch()
	live := n.MustAlloc(b, 2)
	n.AddRoot(live)
	dead := n.MustAlloc(b, 2)
	_ = dead

	st := n.CollectBunch(b)
	if st.Dead != 1 {
		t.Fatalf("dead = %d, want 1 (the unrooted object)", st.Dead)
	}
	if st.Copied != 1 {
		t.Fatalf("copied = %d, want 1 (the rooted object)", st.Copied)
	}
	// The live object remains usable at its new address.
	if err := n.WriteWord(live, 0, 5); err != nil {
		t.Fatal(err)
	}
	if v, _ := n.ReadWord(live, 0); v != 5 {
		t.Fatal("live object unusable after GC")
	}
	// The dead object is gone.
	if _, err := n.ReadWord(dead, 0); err == nil {
		t.Fatal("dead object still readable")
	}
}

func TestBGCPreservesGraphStructure(t *testing.T) {
	cl := New(Config{Nodes: 1, SegWords: 64})
	n := cl.Node(0)
	b := n.NewBunch()
	// root -> a -> b -> c, with values.
	a := n.MustAlloc(b, 2)
	bb := n.MustAlloc(b, 2)
	c := n.MustAlloc(b, 2)
	n.AddRoot(a)
	n.WriteRef(a, 0, bb)
	n.WriteRef(bb, 0, c)
	n.WriteWord(a, 1, 1)
	n.WriteWord(bb, 1, 2)
	n.WriteWord(c, 1, 3)

	n.CollectBunch(b)

	x, err := n.ReadRef(a, 0)
	if err != nil || !n.SamePtr(x, bb) {
		t.Fatalf("a.0 = %v, %v", x, err)
	}
	y, err := n.ReadRef(x, 0)
	if err != nil || !n.SamePtr(y, c) {
		t.Fatalf("b.0 = %v, %v", y, err)
	}
	for i, o := range []Ref{a, bb, c} {
		if v, _ := n.ReadWord(o, 1); v != uint64(i+1) {
			t.Fatalf("value of object %d = %d", i, v)
		}
	}
}

func TestBGCOnlyCopiesOwnedObjects(t *testing.T) {
	// Figure 2: B1 on N1 and N2; N1 owns O1 and O3, N2 owns O2. The BGC at
	// N2 copies only O2; O1 and O3 are merely scanned.
	cl := twoNodes(t)
	n1, n2 := cl.Node(0), cl.Node(1)
	b := n1.NewBunch()
	o1 := n1.MustAlloc(b, 2)
	o2 := n1.MustAlloc(b, 2)
	o3 := n1.MustAlloc(b, 2)
	n1.AddRoot(o1)
	n1.WriteRef(o1, 0, o2)
	n1.WriteRef(o2, 0, o3)

	if err := n2.MapBunch(b); err != nil {
		t.Fatal(err)
	}
	n2.AddRoot(o1)
	// N2 takes ownership of O2 only.
	if err := n2.AcquireWrite(o2); err != nil {
		t.Fatal(err)
	}
	st := n2.CollectBunch(b)
	if st.Copied != 1 {
		t.Fatalf("N2 copied %d objects, want 1 (only locally-owned O2)", st.Copied)
	}
	if st.LiveStrong != 3 {
		t.Fatalf("live = %d, want 3", st.LiveStrong)
	}
	// N1's addresses for O2 are stale but its mutator still works after
	// synchronizing (invariant 1).
	if err := n1.AcquireRead(o2); err != nil {
		t.Fatal(err)
	}
	if r, err := n1.ReadRef(o2, 0); err != nil || !n1.SamePtr(r, o3) {
		t.Fatalf("o2.0 at n1 = %v, %v", r, err)
	}
}

func TestGCNeverAcquiresTokens(t *testing.T) {
	cl := twoNodes(t)
	n1, n2 := cl.Node(0), cl.Node(1)
	b := n1.NewBunch()
	o1 := n1.MustAlloc(b, 2)
	o2 := n1.MustAlloc(b, 2)
	n1.AddRoot(o1)
	n1.WriteRef(o1, 0, o2)
	n2.MapBunch(b)
	n2.AcquireWrite(o2)

	st := cl.Stats()
	tokensBefore := acquireCount(st) // includes app acquires above
	invalBefore := st.Get("dsm.invalidation.gc")
	n1.CollectBunch(b)
	n2.CollectBunch(b)
	cl.Run(0)
	if got := acquireCount(st); got != tokensBefore {
		t.Fatalf("collections performed %d token acquires", got-tokensBefore)
	}
	if st.Get("dsm.invalidation.gc") != invalBefore {
		t.Fatal("collections caused invalidations")
	}
}

func TestMapBunchCopiesContent(t *testing.T) {
	cl := twoNodes(t)
	n1, n2 := cl.Node(0), cl.Node(1)
	b := n1.NewBunch()
	o := n1.MustAlloc(b, 1)
	n1.WriteWord(o, 0, 77)
	if err := n2.MapBunch(b); err != nil {
		t.Fatal(err)
	}
	// n2 has the replica (headers and an initial image) but must still
	// acquire before reading.
	if err := n2.AcquireRead(o); err != nil {
		t.Fatal(err)
	}
	if v, _ := n2.ReadWord(o, 0); v != 77 {
		t.Fatalf("replica read = %d", v)
	}
	if !cl.Directory().HasReplica(b, n2.ID()) {
		t.Fatal("directory does not list the new replica")
	}
	if err := n2.MapBunch(b); err != nil {
		t.Fatal("remap should be a no-op")
	}
}

func TestAllocGrowsSegments(t *testing.T) {
	cl := New(Config{Nodes: 1, SegWords: 16})
	n := cl.Node(0)
	b := n.NewBunch()
	for i := 0; i < 10; i++ {
		r := n.MustAlloc(b, 5) // 8 words with header: 2 per 16-word segment
		n.AddRoot(r)
	}
	segs := cl.Directory().Segments(b)
	if len(segs) < 5 {
		t.Fatalf("bunch has %d segments, want >= 5", len(segs))
	}
}

func TestAllocTooLargeFails(t *testing.T) {
	cl := New(Config{Nodes: 1, SegWords: 16})
	n := cl.Node(0)
	b := n.NewBunch()
	if _, err := n.Alloc(b, 14); err == nil {
		t.Fatal("oversized allocation must fail")
	}
	if _, err := n.Alloc(b, -1); err == nil {
		t.Fatal("negative allocation must fail")
	}
}

func TestSamePtrThroughMove(t *testing.T) {
	cl := New(Config{Nodes: 1, SegWords: 64})
	n := cl.Node(0)
	b := n.NewBunch()
	o := n.MustAlloc(b, 1)
	n.AddRoot(o)
	before, _ := n.DSM().Canonical(o.OID)
	n.CollectBunch(b)
	after, _ := n.DSM().Canonical(o.OID)
	if before == after {
		t.Fatal("GC did not move the object (test needs a move)")
	}
	// The handle still names the same object (the pointer-comparison
	// semantics of §4.2).
	if !n.SamePtr(o, o) {
		t.Fatal("SamePtr broken")
	}
	if v := n.Mode(o); v != dsm.ModeWrite {
		t.Fatalf("owner mode = %v", v)
	}
}

// acquireCount sums every dsm.acquire.* counter: token acquires of any mode
// and class, local or remote.
func acquireCount(st *transport.Stats) int64 {
	var n int64
	for k, v := range st.Snapshot() {
		if strings.HasPrefix(k, "dsm.acquire.") {
			n += v
		}
	}
	return n
}
