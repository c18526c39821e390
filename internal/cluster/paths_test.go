package cluster

import (
	"testing"

	"bmx/internal/addr"
)

// Tests for the less-travelled protocol paths.

func TestRerouteViaManagerHint(t *testing.T) {
	cl := New(Config{Nodes: 3, SegWords: 64, Seed: 1})
	n1, n2, n3 := cl.Node(0), cl.Node(1), cl.Node(2)
	b := n1.NewBunch()
	o := n1.MustAlloc(b, 1)
	n1.AddRoot(o)
	// Ownership moves to n2; n3 learns a route.
	if err := n2.AcquireWrite(o); err != nil {
		t.Fatal(err)
	}
	if err := n3.AcquireRead(o); err != nil {
		t.Fatal(err)
	}
	// Corrupt n3's route into a cycle with n1 (stale learn-edges can do
	// this in principle); the chain must spot the revisit at n1 and route
	// around it to the manager's probable owner instead of bouncing.
	n3.DSM().Learn(o.OID, b, n3.ID()) // no-op on existing state
	// Force-corrupt: point n3 at n1 and n1 at n3.
	n1.DSM().Forget(o.OID)
	n1.DSM().Learn(o.OID, b, n3.ID())
	n3.DSM().Forget(o.OID)
	n3.DSM().Learn(o.OID, b, n1.ID())
	before := cl.Stats().Get("dsm.route.cycleAvoided")
	if err := n3.AcquireWrite(o); err != nil {
		t.Fatalf("acquire through corrupted chain: %v", err)
	}
	if cl.Stats().Get("dsm.route.cycleAvoided") != before+1 {
		t.Fatal("recovery did not route around the cycle")
	}
	if !n3.IsOwner(o) {
		t.Fatal("ownership did not arrive")
	}
}

func TestScionHostFallback(t *testing.T) {
	// The bunch creator drops its replica; a reference created elsewhere
	// must host its scion at a remaining holder.
	cl := New(Config{Nodes: 3, SegWords: 64, Seed: 1})
	n1, n2, n3 := cl.Node(0), cl.Node(1), cl.Node(2)
	bT := n1.NewBunch() // created at n1
	tgt := n1.MustAlloc(bT, 1)
	if err := n2.MapBunch(bT); err != nil {
		t.Fatal(err)
	}
	// Move the object's ownership (and the mutator's interest) to n2,
	// then the creator unmaps.
	if err := n2.AcquireWrite(tgt); err != nil {
		t.Fatal(err)
	}
	n2.AddRoot(tgt)
	if err := n1.UnmapBunch(bT); err != nil {
		t.Fatal(err)
	}
	if cl.Directory().HasReplica(bT, n1.ID()) {
		t.Fatal("creator still a replica")
	}

	// n3 creates an inter-bunch reference to tgt: the scion must land on
	// n2 (the remaining replica), not the departed creator.
	bS := n3.NewBunch()
	src := n3.MustAlloc(bS, 1)
	n3.AddRoot(src)
	if err := n3.AcquireRead(tgt); err != nil {
		t.Fatal(err)
	}
	if err := n3.WriteRef(src, 0, tgt); err != nil {
		t.Fatal(err)
	}
	stubs := n3.Collector().Replica(bS).Table.InterStubList()
	if len(stubs) != 1 || stubs[0].ScionNode != n2.ID() {
		t.Fatalf("stub = %+v, want scion at N2", stubs)
	}
	if len(n2.Collector().Replica(bT).Table.InterScionList()) != 1 {
		t.Fatal("scion not installed at the fallback host")
	}
	// And the scion actually protects the target.
	for i := 0; i < 3; i++ {
		n2.CollectBunch(bT)
		cl.Run(0)
	}
	if _, ok := n2.DSM().Canonical(tgt.OID); !ok {
		t.Fatal("target reclaimed despite its scion")
	}
}

func TestUnmapAndRemapBunch(t *testing.T) {
	cl := New(Config{Nodes: 2, SegWords: 64, Seed: 1})
	n1, n2 := cl.Node(0), cl.Node(1)
	b := n1.NewBunch()
	o := n1.MustAlloc(b, 1)
	n1.AddRoot(o)
	n1.WriteWord(o, 0, 9)
	if err := n2.MapBunch(b); err != nil {
		t.Fatal(err)
	}
	if err := n2.UnmapBunch(b); err != nil {
		t.Fatal(err)
	}
	// Remap: content comes back from the surviving replica.
	if err := n2.MapBunch(b); err != nil {
		t.Fatal(err)
	}
	if err := n2.AcquireRead(o); err != nil {
		t.Fatal(err)
	}
	if v, _ := n2.ReadWord(o, 0); v != 9 {
		t.Fatalf("after remap read = %d", v)
	}
}

func TestInvariant2FanOutUnderLoss(t *testing.T) {
	// Copy-set location forwarding is lossy; a lost forward must be
	// repaired at the holder's next acquire (invariant 1), never crash.
	cl := New(Config{Nodes: 3, SegWords: 64, Seed: 5, Faults: lossy(1.0)})
	n1, n2, n3 := cl.Node(0), cl.Node(1), cl.Node(2)
	b := n1.NewBunch()
	o := n1.MustAlloc(b, 2)
	p := n1.MustAlloc(b, 1)
	n1.AddRoot(o)
	n1.WriteRef(o, 0, p)
	// Copy-set chain: n2 from owner, n3 from n2.
	if err := n2.AcquireRead(o); err != nil {
		t.Fatal(err)
	}
	if err := n3.AcquireRead(o); err != nil {
		t.Fatal(err)
	}
	// Owner collects: p moves; the async fan-out to n3 is lost.
	n1.CollectBunch(b)
	cl.Run(0)
	// n3 re-acquires o after the owner invalidates (write) — a real
	// exchange that must deliver the fresh addresses.
	if err := n1.AcquireWrite(o); err != nil {
		t.Fatal(err)
	}
	if err := n3.AcquireRead(o); err != nil {
		t.Fatal(err)
	}
	r, err := n3.ReadRef(o, 0)
	if err != nil || !n3.SamePtr(r, p) {
		t.Fatalf("after lossy fan-out: %v, %v", r, err)
	}
}

func TestGCClassNeverUsedByCollector(t *testing.T) {
	// Belt and braces for the central claim: drive every collector
	// entry point and assert no dsm call was made with the GC class.
	cl := New(Config{Nodes: 2, SegWords: 64, Seed: 1})
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
	n1.CollectGroup(nil)
	n1.ReclaimFromSpace(b)
	n1.FlushLocations()
	cl.Run(0)
	st := cl.Stats()
	for _, k := range []string{"dsm.acquire.r.gc", "dsm.acquire.w.gc", "dsm.invalidation.gc"} {
		if st.Get(k) != 0 {
			t.Fatalf("%s = %d", k, st.Get(k))
		}
	}
	// While the baseline does use it (sanity that the counter works).
	if err := n1.AcquireLiveWrite(b); err != nil {
		t.Fatal(err)
	}
	if st.Get("dsm.acquire.w.gc") != 2 { // o1 and o2
		t.Fatal("counter inert")
	}
}

func TestOwnerHintTracksTransfers(t *testing.T) {
	cl := New(Config{Nodes: 3, SegWords: 64, Seed: 1})
	n1, n2, n3 := cl.Node(0), cl.Node(1), cl.Node(2)
	b := n1.NewBunch()
	o := n1.MustAlloc(b, 1)
	n1.AddRoot(o)
	dir := cl.Directory()
	// The allocation site is the hint until ownership first moves.
	if bb, h := dir.Locate(o.OID); bb != b || h != n1.ID() {
		t.Fatalf("initial locate = %v, %v", bb, h)
	}
	n2.AcquireWrite(o)
	if _, h := dir.Locate(o.OID); h != n2.ID() {
		t.Fatalf("hint after transfer = %v", h)
	}
	n3.AcquireWrite(o)
	if _, h := dir.Locate(o.OID); h != n3.ID() {
		t.Fatalf("hint after second transfer = %v", h)
	}
	if bb, h := dir.Locate(addr.OID(9999)); bb != addr.NoBunch || h != addr.NoNode {
		t.Fatal("unknown object must have no bunch and no hint")
	}
}

func TestAddressRecycling(t *testing.T) {
	// §1: "there is a need for memory reorganization and address
	// recycling". A segment freed by the §4.5 protocol is handed out
	// again, and stale words pointing into the recycled range dangle
	// cleanly instead of resolving to the new tenant.
	cl := New(Config{Nodes: 1, SegWords: 64})
	n := cl.Node(0)
	b := n.NewBunch()
	o := n.MustAlloc(b, 2)
	n.AddRoot(o)
	firstSeg := cl.Directory().Allocator().Lookup(mustCanonical(t, n, o))

	n.CollectBunch(b)
	cl.Run(0)
	if st := n.ReclaimFromSpace(b); st.Segments == 0 {
		t.Fatal("nothing reclaimed")
	}

	// Allocate until the freed range is recycled.
	before := recycledRanges(cl)
	b2 := n.NewBunch()
	for i := 0; i < 4; i++ {
		r := n.MustAlloc(b2, 12)
		n.AddRoot(r)
	}
	if recycledRanges(cl) == before {
		t.Fatal("freed segment never recycled")
	}
	// A stale word into the recycled range must not name the OLD object
	// any more (it may name the new tenant, which is correct).
	if got := n.Collector().Heap().OIDAt(firstSeg.Base); got == o.OID {
		t.Fatal("a recycled address still resolves to the old object")
	}
	// The original object still works at its post-GC home.
	if err := n.WriteWord(o, 0, 5); err != nil {
		t.Fatal(err)
	}
	if v, _ := n.ReadWord(o, 0); v != 5 {
		t.Fatal("survivor corrupted by recycling")
	}
	if bad := cl.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("invariants after recycling: %v", bad)
	}
}

// recycledRanges counts the segment allocations that reused a freed address
// range: each one bumps its range's generation.
func recycledRanges(cl *Cluster) int {
	alloc := cl.Directory().Allocator()
	n := 0
	for id := addr.SegID(0); alloc.Meta(id) != nil; id++ {
		n += int(alloc.Meta(id).Gen)
	}
	return n
}

// A granted image may hold a pointer word the receiver has no header for:
// the granter still has the referee at its old address, and the receiver
// rejected the granter's manifest for it because it already knows a newer
// location. The grant's manifest for that word still names the object, so
// the receiver identifies the word by it (invariant 1, §5).
func TestGrantIdentifiesStaleWordByItsManifest(t *testing.T) {
	cl := New(Config{Nodes: 3, SegWords: 64})
	n0, n1, n2 := cl.Node(0), cl.Node(1), cl.Node(2)
	b := n0.NewBunch()
	y := n0.MustAlloc(b, 1)
	n0.AddRoot(y)

	if err := n1.AcquireRead(y); err != nil {
		t.Fatal(err)
	}
	n1.Release(y)
	x := n1.MustAlloc(n1.NewBunch(), 1)
	n1.AddRoot(x)
	if err := n1.WriteRef(x, 0, y); err != nil {
		t.Fatal(err)
	}

	// y moves at its owner; n1 still holds x.0 at y's old address.
	oldY := mustCanonical(t, n0, y)
	n0.CollectBunch(b)
	if mustCanonical(t, n0, y) == oldY {
		t.Fatal("the collection did not move y")
	}

	// n2 learns y's new location first, then receives x from n1.
	if err := n2.AcquireRead(y); err != nil {
		t.Fatal(err)
	}
	n2.Release(y)
	if err := n2.AcquireRead(x); err != nil {
		t.Fatal(err)
	}
	got, err := n2.ReadRef(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != y {
		t.Fatalf("x.0 = %v at n2, want %v", got, y)
	}
}

// TestWideGrant: a granted image carries its words' reference-map bits as
// mask words, one per 64 words; a 70-field object's references on both
// sides of the first mask word's end reach the reader intact.
func TestWideGrant(t *testing.T) {
	cl := New(Config{Nodes: 2, Seed: 1})
	checkWideGrant(t, cl.Node(0), cl.Node(1))
}

// checkWideGrant has owner build a 70-field object with references at
// fields 60 and 65 and a scalar between them, move it with a collection,
// then has reader acquire it and read all three back.
func checkWideGrant(t *testing.T, owner, reader *Node) {
	t.Helper()
	b := owner.NewBunch()
	x := owner.MustAlloc(b, 70)
	y, z := owner.MustAlloc(b, 1), owner.MustAlloc(b, 1)
	owner.AddRoot(x)
	for _, err := range []error{owner.WriteRef(x, 60, y), owner.WriteRef(x, 65, z), owner.WriteWord(x, 64, 64)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if st := owner.CollectBunch(b); st.Copied != 3 {
		t.Fatalf("the owner's collection copied %d objects, want 3", st.Copied)
	}
	if err := reader.AcquireRead(x); err != nil {
		t.Fatal(err)
	}
	defer reader.Release(x)
	for f, want := range map[int]Ref{60: y, 65: z} {
		if got, err := reader.ReadRef(x, f); err != nil || got != want {
			t.Fatalf("x.%d at the reader = %v, %v; want %v", f, got, err, want)
		}
	}
	if v, err := reader.ReadWord(x, 64); err != nil || v != 64 {
		t.Fatalf("x.64 at the reader = %d, %v; want 64", v, err)
	}
}

// A granter may have reclaimed its own replica of a referee — a non-owned
// object its collection of the referee's bunch found dead locally — while
// an object it grants still points at it. Its header still identifies the
// word, so the grant ships a manifest for it and the receiver can follow
// the reference (invariant 1, §5).
func TestGrantShipsManifestOfLocallyReclaimedReferee(t *testing.T) {
	cl := New(Config{Nodes: 3, SegWords: 64})
	n0, n1, n2 := cl.Node(0), cl.Node(1), cl.Node(2)
	by := n1.NewBunch()
	y := n1.MustAlloc(by, 1)
	n1.AddRoot(y)

	x := n0.MustAlloc(n0.NewBunch(), 1)
	n0.AddRoot(x)
	if err := n0.AcquireRead(y); err != nil {
		t.Fatal(err)
	}
	n0.Release(y)
	if err := n0.WriteRef(x, 0, y); err != nil {
		t.Fatal(err)
	}
	cl.Run(0)
	if st := n0.CollectBunch(by); st.Dead == 0 {
		t.Fatal("n0's collection of y's bunch reclaimed nothing")
	}

	if err := n2.AcquireRead(x); err != nil {
		t.Fatal(err)
	}
	got, err := n2.ReadRef(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != y {
		t.Fatalf("x.0 = %v at n2, want %v", got, y)
	}
}

func mustCanonical(t *testing.T, n *Node, r Ref) addr.Addr {
	t.Helper()
	a, ok := n.DSM().Canonical(r.OID)
	if !ok {
		t.Fatalf("no canonical for %v", r)
	}
	return a
}

func TestRecyclingUnderChurn(t *testing.T) {
	// Repeated collect+reclaim cycles across two nodes must keep reusing
	// address ranges without corrupting anything.
	cl := New(Config{Nodes: 2, SegWords: 64, Seed: 1})
	n1, n2 := cl.Node(0), cl.Node(1)
	b := n1.NewBunch()
	keeper := n1.MustAlloc(b, 2)
	n1.AddRoot(keeper)
	n1.WriteWord(keeper, 1, 777)
	n2.MapBunch(b)

	for round := 0; round < 6; round++ {
		// Fresh garbage every round.
		for i := 0; i < 4; i++ {
			n1.MustAlloc(b, 8)
		}
		n1.CollectBunch(b)
		n2.CollectBunch(b)
		cl.Run(0)
		n1.ReclaimFromSpace(b)
		cl.Run(0)
	}
	if recycledRanges(cl) == 0 {
		t.Fatal("no recycling over six churn rounds")
	}
	if err := n2.AcquireRead(keeper); err != nil {
		t.Fatal(err)
	}
	if v, _ := n2.ReadWord(keeper, 1); v != 777 {
		t.Fatalf("keeper = %d after churny recycling", v)
	}
	if bad := cl.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("invariants: %v", bad)
	}
}
