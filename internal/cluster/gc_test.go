package cluster

import (
	"slices"
	"testing"

	"bmx/internal/addr"
	"bmx/internal/core"
	"bmx/internal/mem"
	"bmx/internal/ssp"
)

// settle runs collections at every node over every mapped bunch and drains
// background traffic, rounds times. This is the "repeated BGC + scion
// cleaner" schedule distributed garbage collection converges under.
func settle(cl *Cluster, rounds int) {
	for r := 0; r < rounds; r++ {
		for i := 0; i < cl.Nodes(); i++ {
			n := cl.Node(i)
			for _, b := range n.Collector().MappedBunches() {
				n.CollectBunch(b)
			}
			cl.Run(0)
		}
	}
}

func TestDistributedAcyclicGarbage(t *testing.T) {
	// A cross-node, cross-bunch chain: root@N1 -> a(B1) -> b(B2@N2).
	// Cutting the root must reclaim both, using only table messages.
	cl := New(Config{Nodes: 2, SegWords: 64, Seed: 1})
	n1, n2 := cl.Node(0), cl.Node(1)
	b1 := n1.NewBunch()
	b2 := n2.NewBunch()
	bObj := n2.MustAlloc(b2, 1)
	a := n1.MustAlloc(b1, 1)
	n1.AddRoot(a)
	if err := n1.AcquireRead(bObj); err != nil {
		t.Fatal(err)
	}
	if err := n1.WriteRef(a, 0, bObj); err != nil {
		t.Fatal(err)
	}

	// While rooted, nothing dies.
	settle(cl, 2)
	if _, ok := n2.DSM().Canonical(bObj.OID); !ok {
		t.Fatal("live target collected at its home node")
	}

	// Cut the root: a dies at N1, the stub disappears from N1's next
	// table, the cleaner at N2 deletes the scion, and b dies at N2.
	n1.RemoveRoot(a)
	settle(cl, 3)
	if _, ok := n1.DSM().Canonical(a.OID); ok {
		t.Fatal("a still present at N1")
	}
	if len(n2.Collector().Replica(b2).Table.InterScions) != 0 {
		t.Fatal("scion for dead reference not cleaned")
	}
	if _, ok := n2.DSM().Canonical(bObj.OID); ok {
		t.Fatal("b still present at N2 after scion cleaning")
	}
}

func TestScionKeepsRemoteObjectAlive(t *testing.T) {
	cl := New(Config{Nodes: 2, SegWords: 64, Seed: 1})
	n1, n2 := cl.Node(0), cl.Node(1)
	b1 := n1.NewBunch()
	b2 := n2.NewBunch()
	tgt := n2.MustAlloc(b2, 1)
	src := n1.MustAlloc(b1, 1)
	n1.AddRoot(src)
	n1.AcquireRead(tgt)
	n1.WriteRef(src, 0, tgt)

	// N2 has no local root for tgt; only the scion (from N1's stub) keeps
	// it alive. Collect at N2 repeatedly: must survive.
	for i := 0; i < 3; i++ {
		n2.CollectBunch(b2)
		cl.Run(0)
	}
	if _, ok := n2.DSM().Canonical(tgt.OID); !ok {
		t.Fatal("scion failed to keep the target alive")
	}
}

func TestEnteringOwnerPtrKeepsOwnerReplicaAlive(t *testing.T) {
	// N2 takes ownership of an object rooted only at N1. N2's replica has
	// no local root; the entering ownerPtr (N1 -> N2) must keep it alive
	// at N2 until N1 drops it.
	cl := New(Config{Nodes: 2, SegWords: 64, Seed: 1})
	n1, n2 := cl.Node(0), cl.Node(1)
	b := n1.NewBunch()
	o := n1.MustAlloc(b, 1)
	n1.AddRoot(o)
	n2.MapBunch(b)
	if err := n2.AcquireWrite(o); err != nil {
		t.Fatal(err)
	}
	// Collect at N2 (owner, no local root): object must survive via the
	// entering ownerPtr from N1.
	settle(cl, 2)
	if _, ok := n2.DSM().Canonical(o.OID); !ok {
		t.Fatal("owner's replica died while a remote replica still points at it")
	}
	// N1 drops its root; after tables propagate, N2 may reclaim.
	n1.RemoveRoot(o)
	settle(cl, 3)
	if _, ok := n2.DSM().Canonical(o.OID); ok {
		t.Fatal("object survived at owner after the last reference died")
	}
}

func TestIntraBunchSSPChainFigure4(t *testing.T) {
	// Figure 4 and §6.2: O1 cached on N1, N2, N3; reachable from a single
	// mutator at N1. Ownership history gives N3 an intra-bunch scion
	// (ownership moved from N3 to N2), so O1 stays alive at N3 only
	// through it; its exiting ownerPtr is omitted, breaking the cycle.
	cl := New(Config{Nodes: 3, SegWords: 64, Seed: 1})
	n1, n2, n3 := cl.Node(0), cl.Node(1), cl.Node(2)
	bOther := n1.NewBunch()
	b := n3.NewBunch() // O1's bunch, created at N3
	o1 := n3.MustAlloc(b, 1)

	// N3 creates an inter-bunch reference from O1 into bOther, so N3
	// holds an inter-bunch stub for O1.
	other := n1.MustAlloc(bOther, 1)
	n1.AddRoot(other)
	if err := n3.AcquireRead(other); err != nil {
		t.Fatal(err)
	}
	if err := n3.WriteRef(o1, 0, other); err != nil {
		t.Fatal(err)
	}

	// Ownership moves N3 -> N2: invariant 3 creates the intra-bunch SSP
	// (scion at N3, stub at N2).
	n2.MapBunch(b)
	if err := n2.AcquireWrite(o1); err != nil {
		t.Fatal(err)
	}
	if len(n3.Collector().Replica(b).Table.IntraScions) != 1 {
		t.Fatal("intra-bunch scion missing at old owner N3")
	}
	if len(n2.Collector().Replica(b).Table.IntraStubs) != 1 {
		t.Fatal("intra-bunch stub missing at new owner N2")
	}

	// N1 holds the only mutator reference.
	n1.MapBunch(b)
	if err := n1.AcquireRead(o1); err != nil {
		t.Fatal(err)
	}
	n1.AddRoot(o1)

	// While N1's root lives, O1 survives everywhere (N3 via intra scion).
	settle(cl, 3)
	for i, n := range []*Node{n1, n2, n3} {
		if _, ok := n.DSM().Canonical(o1.OID); !ok {
			t.Fatalf("O1 prematurely dead at N%d", i+1)
		}
	}

	// The reference to O1 is deleted from N1's root: the deletion chain of
	// §6.2 must reclaim O1 at N1, then N2 (entering ownerPtr removed),
	// then N3 (intra-bunch scion deleted).
	n1.RemoveRoot(o1)
	settle(cl, 4)
	for i, n := range []*Node{n1, n2, n3} {
		if _, ok := n.DSM().Canonical(o1.OID); ok {
			t.Fatalf("O1 still present at N%d after deletion chain", i+1)
		}
	}
	if len(n3.Collector().Replica(b).Table.IntraScions) != 0 {
		t.Fatal("intra-bunch scion not cleaned at N3")
	}
	// And the inter-bunch scion for O1 -> other was dropped, so other dies
	// too once its own root goes.
	n1.RemoveRoot(other)
	settle(cl, 3)
	if _, ok := n1.DSM().Canonical(other.OID); ok {
		t.Fatal("inter-bunch target not reclaimed after chain unwound")
	}
}

func TestGGCCollectsInterBunchCycle(t *testing.T) {
	// A dead cycle spanning two bunches at one site: BGCs alone cannot
	// reclaim it (each bunch's scion keeps the other alive); the GGC must.
	cl := New(Config{Nodes: 1, SegWords: 64})
	n := cl.Node(0)
	b1 := n.NewBunch()
	b2 := n.NewBunch()
	x := n.MustAlloc(b1, 1)
	y := n.MustAlloc(b2, 1)
	n.WriteRef(x, 0, y)
	n.WriteRef(y, 0, x)

	// Independent bunch collections do not reclaim the cycle (§7: objects
	// are artificially held over by SSPs from within the group).
	for i := 0; i < 3; i++ {
		n.CollectBunch(b1)
		n.CollectBunch(b2)
		cl.Run(0)
	}
	if _, ok := n.DSM().Canonical(x.OID); !ok {
		t.Fatal("BGC alone should NOT reclaim the cycle (scions are roots)")
	}

	// The GGC with both bunches in the group reclaims it.
	st := n.CollectGroup(nil)
	if st.Dead != 2 {
		t.Fatalf("GGC reclaimed %d objects, want 2", st.Dead)
	}
	if _, ok := n.DSM().Canonical(x.OID); ok {
		t.Fatal("cycle member x survived the GGC")
	}
	if _, ok := n.DSM().Canonical(y.OID); ok {
		t.Fatal("cycle member y survived the GGC")
	}
}

func TestGGCKeepsLiveCycle(t *testing.T) {
	cl := New(Config{Nodes: 1, SegWords: 64})
	n := cl.Node(0)
	b1 := n.NewBunch()
	b2 := n.NewBunch()
	x := n.MustAlloc(b1, 1)
	y := n.MustAlloc(b2, 1)
	n.WriteRef(x, 0, y)
	n.WriteRef(y, 0, x)
	n.AddRoot(x)
	n.CollectGroup(nil)
	if _, ok := n.DSM().Canonical(x.OID); !ok {
		t.Fatal("live cycle reclaimed")
	}
	if _, ok := n.DSM().Canonical(y.OID); !ok {
		t.Fatal("live cycle member reclaimed")
	}
}

func TestGGCRespectsRemoteStubs(t *testing.T) {
	// A cycle between B1 and B2 whose B1->B2 edge was created at another
	// node: the GGC at N1 must NOT exclude the remotely-sourced scion, so
	// the cycle survives (it is not provably dead at this site alone).
	cl := New(Config{Nodes: 2, SegWords: 64, Seed: 1})
	n1, n2 := cl.Node(0), cl.Node(1)
	b1 := n1.NewBunch()
	b2 := n1.NewBunch()
	x := n1.MustAlloc(b1, 1)
	y := n1.MustAlloc(b2, 1)
	// y -> x created at N1 (local SSP); x -> y created at N2.
	n1.WriteRef(y, 0, x)
	n2.MapBunch(b1)
	n2.MapBunch(b2)
	if err := n2.AcquireWrite(x); err != nil {
		t.Fatal(err)
	}
	if err := n2.WriteRef(x, 0, y); err != nil {
		t.Fatal(err)
	}
	// The x->y scion at N2... both bunches mapped at N2, so the SSP is
	// local to N2. N1's GGC sees an intra-group scion for x<-y (local) but
	// y's scion from N2's stub must stay a root.
	n1.CollectGroup(nil)
	cl.Run(0)
	if _, ok := n1.DSM().Canonical(y.OID); !ok {
		t.Fatal("GGC collected an object still referenced by a remote stub")
	}
}

func TestFromSpaceReclaim(t *testing.T) {
	cl := New(Config{Nodes: 2, SegWords: 64, Seed: 1})
	n1, n2 := cl.Node(0), cl.Node(1)
	b := n1.NewBunch()
	o1 := n1.MustAlloc(b, 2)
	o2 := n1.MustAlloc(b, 2)
	n1.AddRoot(o1)
	n1.WriteRef(o1, 0, o2)
	n2.MapBunch(b)
	n2.AddRoot(o1)

	// N1 collects: o1, o2 move to to-space; the original segment becomes
	// from-space.
	n1.CollectBunch(b)
	cl.Run(0)
	if len(n1.Collector().FromSpaceSegments(b)) == 0 {
		t.Fatal("no from-space segments after collection")
	}
	segsBefore := len(cl.Directory().Segments(b))

	st := n1.ReclaimFromSpace(b)
	if st.Segments == 0 {
		t.Fatal("nothing reclaimed")
	}
	if len(cl.Directory().Segments(b)) >= segsBefore {
		t.Fatal("segment count did not shrink")
	}
	cl.Run(0)

	// Both nodes still see a working graph.
	if err := n2.AcquireRead(o1); err != nil {
		t.Fatal(err)
	}
	r, err := n2.ReadRef(o1, 0)
	if err != nil || !n2.SamePtr(r, o2) {
		t.Fatalf("graph broken after reclaim: %v, %v", r, err)
	}
	if err := n1.AcquireWrite(o2); err != nil {
		t.Fatal(err)
	}
	if err := n1.WriteWord(o2, 1, 42); err != nil {
		t.Fatal(err)
	}
}

func TestFromSpaceReclaimWithRemoteOwner(t *testing.T) {
	// An object in N1's from-space segment is owned by N2: the reclaim
	// protocol must ask N2 to copy it out (§4.5).
	cl := New(Config{Nodes: 2, SegWords: 64, Seed: 1})
	n1, n2 := cl.Node(0), cl.Node(1)
	b := n1.NewBunch()
	o := n1.MustAlloc(b, 1)
	n1.AddRoot(o)
	n2.MapBunch(b)
	if err := n2.AcquireWrite(o); err != nil {
		t.Fatal(err)
	}
	n2.WriteWord(o, 0, 99)

	// N1's BGC does not copy o (not owned); o's canonical at N1 stays in
	// the original segment.
	n1.CollectBunch(b)
	cl.Run(0)
	before := cl.Stats().Get("core.copyOut.msgs")
	n1.ReclaimFromSpace(b)
	if cl.Stats().Get("core.copyOut.msgs") == before {
		t.Fatal("no copy-out request for the remotely owned object")
	}
	cl.Run(0)
	// o still alive and consistent everywhere.
	if err := n1.AcquireRead(o); err != nil {
		t.Fatal(err)
	}
	if v, _ := n1.ReadWord(o, 0); v != 99 {
		t.Fatalf("value after reclaim = %d", v)
	}
}

// TestReclaimResolvesWordToDroppedReplica pins the lazy location path: a
// node keeps a pointer word whose referee it dropped, so no copy-set tells
// it where the referee moves. When its §4.5 round would free the header
// the word names, it asks the owner where the object lives.
func TestReclaimResolvesWordToDroppedReplica(t *testing.T) {
	cl := New(Config{Nodes: 3, SegWords: 64, Seed: 1})
	a, owner, host := cl.Node(0), cl.Node(1), cl.Node(2)
	b1 := host.NewBunch() // the inter-bunch scion for y lives here
	b2 := a.NewBunch()
	y := a.MustAlloc(b1, 1) // y's header lies in a segment a created
	x := a.MustAlloc(b2, 1)
	a.AddRoot(x)
	if err := a.WriteRef(x, 0, y); err != nil {
		t.Fatal(err)
	}
	a.Release(x)
	if err := owner.AcquireWrite(y); err != nil {
		t.Fatal(err)
	}
	owner.Release(y)
	owner.AddRoot(y)
	cl.Run(0)

	// a's collection of b1 drops its replica of y, and its table retires
	// the owner's entering ownerPtr from a.
	a.CollectBunch(b1)
	cl.Run(0)
	if _, ok := a.DSM().Canonical(y.OID); ok {
		t.Fatal("a still holds a replica of y")
	}
	if slices.Contains(owner.DSM().ReplicaNodes(y.OID), a.ID()) {
		t.Fatal("the owner still counts a among y's replica holders")
	}
	for range 2 {
		owner.CollectBunch(b1)
		cl.Run(0)
	}
	if got := cl.Stats().Get("core.gc.copied"); got < 2 {
		t.Fatalf("objects copied = %d, want y moved twice", got)
	}

	before := cl.Stats().Get("core.reclaim.segments")
	a.ReclaimFromSpace(b1)
	cl.Run(0)
	if cl.Stats().Get("core.reclaim.segments") == before {
		t.Fatal("a reclaimed no from-space segment")
	}
	got, err := a.ReadRef(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != y {
		t.Fatalf("x.0 = %v after the reclaim, want %v", got, y)
	}
}

// TestReclaimResolvesWordToDroppedReplicaRefusesWithoutOwner: a participant
// holding such a word while its owner is unreachable refuses the round
// before it unmaps anything, and the initiator keeps the batch for a retry.
func TestReclaimResolvesWordToDroppedReplicaRefusesWithoutOwner(t *testing.T) {
	cl := New(Config{Nodes: 4, SegWords: 64, Seed: 1})
	initiator, p, owner, host := cl.Node(0), cl.Node(1), cl.Node(2), cl.Node(3)
	b1 := host.NewBunch()
	b2 := p.NewBunch()
	y := initiator.MustAlloc(b1, 1)
	initiator.AddRoot(y)
	x := p.MustAlloc(b2, 1)
	p.AddRoot(x)
	if err := p.AcquireRead(y); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteRef(x, 0, y); err != nil {
		t.Fatal(err)
	}
	p.Release(x)
	if err := owner.AcquireWrite(y); err != nil {
		t.Fatal(err)
	}
	owner.Release(y)
	owner.AddRoot(y)
	initiator.RemoveRoot(y)
	cl.Run(0)
	// p and the initiator drop their replicas of y; the owner moves it.
	p.CollectBunch(b1)
	cl.Run(0)
	initiator.CollectBunch(b1)
	cl.Run(0)
	for _, n := range []*Node{p, initiator} {
		if _, ok := n.DSM().Canonical(y.OID); ok {
			t.Fatalf("node %v still holds a replica of y", n.ID())
		}
	}
	owner.CollectBunch(b1)
	cl.Run(0)

	cl.Partition(1, 2)
	initiator.ReclaimFromSpace(b1)
	if cl.Stats().Get("core.reclaim.refused") == 0 || cl.Stats().Get("core.reclaim.aborted") == 0 {
		t.Fatal("the round went ahead without the owner's answer")
	}
	if len(initiator.Collector().FromSpaceSegments(b1)) == 0 {
		t.Fatal("the aborted batch left the initiator's from-space")
	}
	cl.HealAll()
	before := cl.Stats().Get("core.reclaim.segments")
	initiator.ReclaimFromSpace(b1)
	if cl.Stats().Get("core.reclaim.segments") == before {
		t.Fatal("the retried round reclaimed nothing")
	}
	if err := p.AcquireRead(x); err != nil {
		t.Fatal(err)
	}
	if got, err := p.ReadRef(x, 0); err != nil || got != y {
		t.Fatalf("x.0 = %v, %v after the retried round, want %v", got, err, y)
	}
}

// TestReclaimRefusesWhenEvacuationCopyOutFails: a participant holds a read
// copy of y headquartered in the batch, and a word of its own names y. Its
// evacuation asks y's owner to copy y out, across a partition. The word's
// object is identified but not placed outside the batch, whatever its
// stale canonical address there says, so the participant asks again and,
// still cut off, refuses the round rather than strand the word.
func TestReclaimRefusesWhenEvacuationCopyOutFails(t *testing.T) {
	cl := New(Config{Nodes: 4, SegWords: 64, Seed: 1})
	initiator, p, owner, host := cl.Node(0), cl.Node(1), cl.Node(2), cl.Node(3)
	b1 := host.NewBunch()
	b2 := p.NewBunch()
	y := initiator.MustAlloc(b1, 1)
	initiator.AddRoot(y)
	if err := owner.AcquireWrite(y); err != nil {
		t.Fatal(err)
	}
	owner.Release(y)
	owner.AddRoot(y)
	x := p.MustAlloc(b2, 1)
	p.AddRoot(x)
	if err := p.AcquireRead(y); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteRef(x, 0, y); err != nil {
		t.Fatal(err)
	}
	p.Release(x)
	initiator.RemoveRoot(y)
	cl.Run(0)
	initiator.CollectBunch(b1)
	cl.Run(0)
	if _, ok := initiator.DSM().Canonical(y.OID); ok {
		t.Fatal("the initiator still holds a replica of y")
	}

	cl.Partition(int(p.ID()), int(owner.ID()))
	initiator.ReclaimFromSpace(b1)
	if cl.Stats().Get("core.reclaim.refused") == 0 || cl.Stats().Get("core.reclaim.aborted") == 0 {
		t.Fatal("the round went ahead without the owner's copy-out")
	}
	if len(initiator.Collector().FromSpaceSegments(b1)) == 0 {
		t.Fatal("the aborted batch left the initiator's from-space")
	}
	cl.HealAll()
	before := cl.Stats().Get("core.reclaim.segments")
	initiator.ReclaimFromSpace(b1)
	if cl.Stats().Get("core.reclaim.segments") == before {
		t.Fatal("the retried round reclaimed nothing")
	}
	if got, err := p.ReadRef(x, 0); err != nil || got != y {
		t.Fatalf("x.0 = %v, %v after the retried round, want %v", got, err, y)
	}
}

// TestAddrChangeSkipsUnheldObjects: a §4.5 round informs the nodes
// affected by its address changes. A holder that maps the bunch but never
// held the batch's objects skips their manifests, and ends the round with
// no canonical address and no protocol state for them.
func TestAddrChangeSkipsUnheldObjects(t *testing.T) {
	cl := New(Config{Nodes: 2, SegWords: 64, Seed: 1})
	n0, n1 := cl.Node(0), cl.Node(1)
	b := n0.NewBunch()
	if err := n1.MapBunch(b); err != nil {
		t.Fatal(err)
	}
	var objs []Ref
	for range 3 {
		o := n0.MustAlloc(b, 2)
		n0.AddRoot(o)
		objs = append(objs, o)
	}
	for range 2 {
		n0.CollectBunch(b)
		cl.Run(0)
	}
	if !slices.Contains(cl.dir.Holders(b), n1.ID()) {
		t.Fatal("n1 is not a holder of the bunch")
	}
	if st := n0.ReclaimFromSpace(b); st.Segments == 0 {
		t.Fatal("n0 reclaimed no from-space segment")
	}
	cl.Run(0)
	for _, o := range objs {
		if a, ok := n1.DSM().Canonical(o.OID); ok {
			t.Errorf("n1 gained a canonical address %v for %v", a, o.OID)
		}
		if n1.DSM().Knows(o.OID) {
			t.Errorf("n1 gained protocol state for %v", o.OID)
		}
	}
	if cl.Stats().Get("core.reclaim.manifestsSkipped") == 0 {
		t.Error("core.reclaim.manifestsSkipped = 0, want the unheld objects' manifests skipped")
	}
}

// TestAddrChangeLateManifestHighestEpoch: a peer holds a word naming an
// object only through a header in the batch, with no state for the object,
// so it skips the object's manifests and consults them only when its
// rewrite pass finds the word. The round names the object twice: at its
// current address, and in an older queued update that points inside the
// batch. The newest wins whatever the order, so the word resolves without a
// gc.copyOut lookup.
func TestAddrChangeLateManifestHighestEpoch(t *testing.T) {
	cl := New(Config{Nodes: 2, SegWords: 64, Seed: 1})
	owner, p := cl.Node(0), cl.Node(1)
	b1 := owner.NewBunch()
	b2 := p.NewBunch()
	y := owner.MustAlloc(b1, 1)
	owner.AddRoot(y)
	x := p.MustAlloc(b2, 1)
	p.AddRoot(x)
	if err := p.AcquireRead(y); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteRef(x, 0, y); err != nil {
		t.Fatal(err)
	}
	p.Release(x)
	p.Release(y)
	cl.Run(0)

	// The owner moves y once while p holds a replica: the move is queued
	// for p. The owner's write revokes p's copy (an invalidation carries
	// no location), p's collection drops what is left of its replica, and
	// the owner moves y again, telling p nothing more.
	owner.CollectBunch(b1)
	cl.Run(0)
	if err := owner.AcquireWrite(y); err != nil {
		t.Fatal(err)
	}
	owner.Release(y)
	p.CollectBunch(b1)
	cl.Run(0)
	if _, ok := p.DSM().Canonical(y.OID); ok || p.DSM().Knows(y.OID) {
		t.Fatal("p still holds state for y")
	}
	owner.CollectBunch(b1)
	cl.Run(0)

	copyOuts := cl.Stats().Get("core.copyOut.msgs")
	if st := owner.ReclaimFromSpace(b1); st.Segments == 0 {
		t.Fatal("the owner reclaimed no from-space segment")
	}
	cl.Run(0)
	if got := cl.Stats().Get("core.reclaim.manifestsLate"); got < 1 {
		t.Fatalf("core.reclaim.manifestsLate = %d, want ≥ 1", got)
	}
	if got := cl.Stats().Get("core.copyOut.msgs"); got != copyOuts {
		t.Fatalf("core.copyOut.msgs rose %d → %d: the late manifest did not place y", copyOuts, got)
	}
	got, err := p.ReadRef(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != y {
		t.Fatalf("x.0 = %v after the round, want %v", got, y)
	}
	can, _ := owner.DSM().Canonical(y.OID)
	if w := addr.Addr(p.Collector().Heap().GetField(mustCanonical(t, p, x), 0)); w != can {
		t.Fatalf("p's word x.0 = %v, want y's current address %v", w, can)
	}
}

// TestFromSpaceReclaimBatch reclaims two from-space segments linked by a
// forwarding chain — o1 was copied from the first into the second and on
// into to-space — in one round: one gc.addrChange per peer per call, every
// reference resolving afterwards. Across a partition the whole batch stays
// queued, and is reclaimed after heal.
func TestFromSpaceReclaimBatch(t *testing.T) {
	cl := New(Config{Nodes: 3, SegWords: 64, Seed: 1})
	n0, n1, n2 := cl.Node(0), cl.Node(1), cl.Node(2)
	b := n0.NewBunch()
	o1 := n0.MustAlloc(b, 2)
	o2 := n0.MustAlloc(b, 2)
	n0.AddRoot(o1)
	n0.WriteRef(o1, 0, o2)
	n0.WriteWord(o2, 1, 42)
	for _, n := range []*Node{n1, n2} {
		if err := n.MapBunch(b); err != nil {
			t.Fatal(err)
		}
		n.AddRoot(o1)
	}
	heap := n0.Collector().Heap()
	first, _ := n0.DSM().Canonical(o1.OID)

	// Two collections: the allocation segment and then the first to-space
	// both become from-space, and o1's first header forwards into the
	// second segment, whose header forwards on into to-space.
	n0.CollectBunch(b)
	cl.Run(0)
	mid, _ := n0.DSM().Canonical(o1.OID)
	n0.CollectBunch(b)
	cl.Run(0)
	batch := n0.Collector().FromSpaceSegments(b)
	if len(batch) < 2 {
		t.Fatalf("from-space batch = %v, want at least two segments", batch)
	}
	doomed := func(a addr.Addr) bool {
		id, ok := heap.Allocator().SegIndex(a)
		return ok && slices.Contains(batch, id)
	}
	chained := doomed(first) && doomed(mid) && heap.SegAt(first) != heap.SegAt(mid) &&
		heap.Forwarded(first) && heap.Forwarded(mid) && !doomed(heap.Resolve(mid))
	if !chained {
		t.Fatalf("want a chain doomed %v -> other doomed %v -> to-space, got -> %v", first, mid, heap.Resolve(mid))
	}

	// Across a partition the round aborts and the whole batch is requeued.
	cl.Partition(0, 2)
	if st := n0.ReclaimFromSpace(b); st.Segments != 0 {
		t.Fatalf("reclaimed %d segments across a partition", st.Segments)
	}
	if got := n0.Collector().FromSpaceSegments(b); !slices.Equal(got, batch) {
		t.Fatalf("after abort from-space = %v, want the whole batch %v", got, batch)
	}
	cl.HealAll()

	rounds := cl.Stats().Get("msg.sent.kind.gc.addrChange")
	st := n0.ReclaimFromSpace(b)
	if st.Segments != len(batch) {
		t.Fatalf("reclaimed %d segments, want the batch of %d", st.Segments, len(batch))
	}
	if got := cl.Stats().Get("msg.sent.kind.gc.addrChange") - rounds; got != 2 {
		t.Fatalf("gc.addrChange messages for one reclaim = %d, want one per peer (2)", got)
	}
	if segs := n0.Collector().FromSpaceSegments(b); len(segs) != 0 {
		t.Fatalf("from-space after reclaim = %v", segs)
	}
	cl.Run(0)

	for _, n := range []*Node{n0, n1, n2} {
		h := n.Collector().Heap()
		h.ForEachSegment(func(s *mem.Segment) {
			if doomed(s.Meta.Base) {
				t.Fatalf("node %v still maps reclaimed segment %v", n.ID(), s.Meta.ID)
			}
		})
		// The replica's own word, before any acquire refreshes it, must
		// already have been rewritten out of the freed batch.
		if can, ok := n.DSM().Canonical(o1.OID); ok && h.IsObjectAt(can) {
			if w := addr.Addr(h.GetField(can, 0)); doomed(w) {
				t.Fatalf("node %v: o1[0] = %v still points into the freed batch", n.ID(), w)
			}
		} else {
			t.Fatalf("node %v lost its replica of o1", n.ID())
		}
		if err := n.AcquireRead(o1); err != nil {
			t.Fatalf("node %v: %v", n.ID(), err)
		}
		r, err := n.ReadRef(o1, 0)
		if err != nil || !n.SamePtr(r, o2) {
			t.Fatalf("node %v: o1[0] = %v, %v; want o2", n.ID(), r, err)
		}
		n.Release(o1)
		if err := n.AcquireRead(o2); err != nil {
			t.Fatalf("node %v: %v", n.ID(), err)
		}
		if v, _ := n.ReadWord(o2, 1); v != 42 {
			t.Fatalf("node %v: o2[1] = %d, want 42", n.ID(), v)
		}
		n.Release(o2)
	}
	if vs := cl.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("invariants violated after batched reclaim: %v", vs)
	}
}

// TestCopyOverflowSegmentsAreReclaimed pins that every segment a collection
// opens is eventually reclaimable. The live set fills more than one to-space
// segment, so the copy phase overflows into fresh ones; those must join the
// node's own segments like allocation segments do, or every collect-reclaim
// round leaks them and every holder of the bunch maps more of them.
func TestCopyOverflowSegmentsAreReclaimed(t *testing.T) {
	cl := New(Config{Nodes: 2, SegWords: 64, Seed: 1})
	n0, n1 := cl.Node(0), cl.Node(1)
	b := n0.NewBunch()
	objs := make([]Ref, 40)
	for i := range objs {
		objs[i] = n0.MustAlloc(b, 4)
		n0.AddRoot(objs[i])
	}
	if err := n1.MapBunch(b); err != nil {
		t.Fatal(err)
	}
	mapped := func() int { return mappedSegments(n0) }
	var wantMapped, wantDir int
	for round := 1; round <= 6; round++ {
		n0.CollectBunch(b)
		cl.Run(0)
		n0.ReclaimFromSpace(b)
		cl.Run(0)
		gotMapped, gotDir := mapped(), len(cl.Directory().Segments(b))
		if round == 2 {
			wantMapped, wantDir = gotMapped, gotDir
			continue
		}
		if round > 2 && (gotMapped > wantMapped || gotDir > wantDir) {
			t.Fatalf("round %d: n0 maps %d segments and the bunch has %d, up from %d and %d after round 2",
				round, gotMapped, gotDir, wantMapped, wantDir)
		}
	}
	for i, o := range objs {
		if err := n1.AcquireRead(o); err != nil {
			t.Fatalf("object %d: %v", i, err)
		}
		n1.Release(o)
	}
	if vs := cl.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("invariants violated: %v", vs)
	}
}

// TestEveryNodeReclaimsItsOwnFromSpace pins the §4.5 reuse trigger in the
// collector: with no explicit ReclaimFromSpace, every node that collects a
// shared bunch under churn reuses its own from-space, so the segments each
// node maps stop growing, and no rooted object loses its value.
func TestEveryNodeReclaimsItsOwnFromSpace(t *testing.T) {
	const nodes, perNode, churn, rounds = 4, 12, 4, 40
	cl := New(Config{Nodes: nodes, SegWords: 64, Seed: 1})
	b := cl.Node(0).NewBunch()
	for i := 1; i < nodes; i++ {
		if err := cl.Node(i).MapBunch(b); err != nil {
			t.Fatal(err)
		}
	}
	type slot struct {
		ref Ref
		val uint64
	}
	var next uint64
	write := func(n *Node, s *slot) {
		next++
		if err := n.AcquireWrite(s.ref); err != nil {
			t.Fatal(err)
		}
		if err := n.WriteWord(s.ref, 0, next); err != nil {
			t.Fatal(err)
		}
		n.Release(s.ref)
		s.val = next
	}
	fresh := func(n *Node) slot {
		s := slot{ref: n.MustAlloc(b, 4)}
		n.AddRoot(s.ref)
		write(n, &s)
		return s
	}
	slots := make([][]slot, nodes)
	for i := range slots {
		for range perNode {
			slots[i] = append(slots[i], fresh(cl.Node(i)))
		}
	}

	reclaimed := make([]int64, nodes)
	mappedAt10 := make([]int, nodes)
	for k := 1; k <= rounds; k++ {
		for i := range nodes {
			n := cl.Node(i)
			for j := range churn {
				s := &slots[i][(k*churn+j)%perNode]
				n.RemoveRoot(s.ref)
				*s = fresh(n)
			}
			// Read a neighbour's object and rewrite one of its own, so
			// replicas and ownership cross nodes between collections.
			peer := slots[(i+1)%nodes][k%perNode].ref
			if err := n.AcquireRead(peer); err != nil {
				t.Fatal(err)
			}
			n.Release(peer)
			write(n, &slots[i][(k+1)%perNode])

			before := cl.Stats().Get("core.reclaim.segments")
			n.CollectBunch(b)
			reclaimed[i] += cl.Stats().Get("core.reclaim.segments") - before
			cl.Run(0)
		}
		for i := range nodes {
			mapped := mappedSegments(cl.Node(i))
			switch k {
			case 10:
				mappedAt10[i] = mapped
			case rounds:
				if mapped > mappedAt10[i] {
					t.Errorf("node %d maps %d segments after collection %d, up from %d after collection 10",
						i, mapped, k, mappedAt10[i])
				}
			}
		}
	}
	for i, r := range reclaimed {
		if r == 0 {
			t.Errorf("node %d never reclaimed a from-space segment", i)
		}
	}
	for i := range slots {
		n := cl.Node(i)
		for _, s := range slots[i] {
			if err := n.AcquireRead(s.ref); err != nil {
				t.Fatalf("node %d: %v", i, err)
			}
			if v, err := n.ReadWord(s.ref, 0); err != nil || v != s.val {
				t.Fatalf("node %d: %v holds %d (%v), want %d", i, s.ref, v, err, s.val)
			}
			n.Release(s.ref)
		}
	}
	if vs := cl.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("invariants violated: %v", vs)
	}
}

func TestTablesTolerateLoss(t *testing.T) {
	// Table messages are idempotent snapshots: with 40% background loss,
	// repeated collection rounds still reclaim distributed garbage and
	// never touch live objects.
	cl := New(Config{Nodes: 2, SegWords: 64, Seed: 7, Faults: lossy(0.4)})
	n1, n2 := cl.Node(0), cl.Node(1)
	b1 := n1.NewBunch()
	b2 := n2.NewBunch()
	live := n2.MustAlloc(b2, 1)
	dead := n2.MustAlloc(b2, 1)
	src := n1.MustAlloc(b1, 2)
	n1.AddRoot(src)
	n1.AcquireRead(live)
	n1.AcquireRead(dead)
	n1.WriteRef(src, 0, live)
	n1.WriteRef(src, 1, dead)
	settle(cl, 2)

	// Cut the dead branch.
	n1.AcquireWrite(src)
	n1.WriteRef(src, 1, Nil)
	settle(cl, 8) // enough rounds that some tables get through

	if _, ok := n2.DSM().Canonical(dead.OID); ok {
		t.Fatal("dead object survived repeated rounds under loss")
	}
	if _, ok := n2.DSM().Canonical(live.OID); !ok {
		t.Fatal("live object lost under message loss — SAFETY violation")
	}
}

func TestPersistenceCheckpointRecover(t *testing.T) {
	cl := New(Config{Nodes: 1, SegWords: 64, WithDisk: true})
	n := cl.Node(0)
	b := n.NewBunch()
	a := n.MustAlloc(b, 2)
	c := n.MustAlloc(b, 2)
	n.AddRoot(a)
	n.WriteRef(a, 0, c)
	n.WriteWord(c, 1, 123)
	if err := n.Checkpoint(b); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint mutation, synced via the RVM log.
	n.WriteWord(c, 1, 456)
	n.Sync()
	// And one more that is lost in the crash.
	n.WriteWord(c, 1, 789)

	if err := n.Crash(b); err != nil {
		t.Fatal(err)
	}
	if _, err := n.ReadWord(c, 1); err == nil {
		t.Fatal("reads must fail after crash")
	}
	if err := n.RecoverBunch(b); err != nil {
		t.Fatal(err)
	}
	r, err := n.ReadRef(a, 0)
	if err != nil || !n.SamePtr(r, c) {
		t.Fatalf("graph after recovery: %v, %v", r, err)
	}
	v, err := n.ReadWord(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v != 456 {
		t.Fatalf("recovered value = %d, want 456 (synced) not 789 (unsynced) nor 123 (checkpoint)", v)
	}
}

func TestRecoveryOfPostCheckpointAllocation(t *testing.T) {
	cl := New(Config{Nodes: 1, SegWords: 64, WithDisk: true})
	n := cl.Node(0)
	b := n.NewBunch()
	a := n.MustAlloc(b, 1)
	n.AddRoot(a)
	n.Checkpoint(b)
	// Allocated and linked after the checkpoint; survives via the log.
	fresh := n.MustAlloc(b, 1)
	n.WriteRef(a, 0, fresh)
	n.WriteWord(fresh, 0, 7)
	n.Sync()
	n.Crash(b)
	if err := n.RecoverBunch(b); err != nil {
		t.Fatal(err)
	}
	r, err := n.ReadRef(a, 0)
	if err != nil || !n.SamePtr(r, fresh) {
		t.Fatalf("post-checkpoint allocation lost: %v, %v", r, err)
	}
	if v, _ := n.ReadWord(fresh, 0); v != 7 {
		t.Fatalf("recovered fresh value = %d", v)
	}
}

func TestConcurrentCollectionWithMutator(t *testing.T) {
	// O'Toole-style: the mutator runs between the root snapshot and the
	// trace. New objects and writes during the collection must survive.
	cl := New(Config{Nodes: 1, SegWords: 64})
	n := cl.Node(0)
	b := n.NewBunch()
	root := n.MustAlloc(b, 2)
	n.AddRoot(root)
	var during Ref
	st := n.CollectBunchOpts(b, core.CollectOpts{DuringTrace: func() {
		during = n.MustAlloc(b, 1)
		if err := n.WriteRef(root, 0, during); err != nil {
			t.Error(err)
		}
		if err := n.WriteWord(during, 0, 11); err != nil {
			t.Error(err)
		}
	}})
	if st.PauseFlipTicks == 0 {
		t.Fatal("mutation log replay should have charged the flip pause")
	}
	r, err := n.ReadRef(root, 0)
	if err != nil || !n.SamePtr(r, during) {
		t.Fatalf("object allocated during GC lost: %v, %v", r, err)
	}
	if v, _ := n.ReadWord(during, 0); v != 11 {
		t.Fatalf("value written during GC = %d", v)
	}
	// It must also survive the NEXT collection (now traced normally).
	n.CollectBunch(b)
	if v, _ := n.ReadWord(during, 0); v != 11 {
		t.Fatal("object allocated during GC lost in the following GC")
	}
}

func TestUnmapBunch(t *testing.T) {
	cl := New(Config{Nodes: 2, SegWords: 64, Seed: 1})
	n1, n2 := cl.Node(0), cl.Node(1)
	b := n1.NewBunch()
	o := n1.MustAlloc(b, 1)
	n1.AddRoot(o)
	n2.MapBunch(b)
	if err := n2.AcquireWrite(o); err != nil {
		t.Fatal(err)
	}
	// N2 owns o: unmap must refuse.
	if err := n2.UnmapBunch(b); err == nil {
		t.Fatal("unmap with owned objects must fail")
	}
	// Hand ownership back, then unmap succeeds.
	if err := n1.AcquireWrite(o); err != nil {
		t.Fatal(err)
	}
	if err := n2.UnmapBunch(b); err != nil {
		t.Fatal(err)
	}
	if cl.Directory().HasReplica(b, n2.ID()) {
		t.Fatal("directory still lists dropped replica")
	}
}

// strayCanonicals returns the objects whose canonical address at n lies in a
// segment of bunch b that n does not map.
func strayCanonicals(n *Node, b addr.BunchID) []addr.OID {
	n.mu.Lock()
	defer n.mu.Unlock()
	heap := n.col.Heap()
	segs := n.cl.dir.Segments(b)
	var out []addr.OID
	n.dsm.ForEachCanonical(func(o addr.OID, a addr.Addr) {
		for _, meta := range segs {
			if meta.Contains(a) && heap.Seg(meta.ID) == nil {
				out = append(out, o)
			}
		}
	})
	return out
}

// TestDroppedReplicaLeavesNoCanonicalAddress pins what dropping a bunch's
// replica must forget: after UnmapBunch, and after Crash and then
// RecoverBunch, no canonical address points into a segment of the bunch the
// node does not map. A stale one would resolve into a replica the node no
// longer has.
func TestDroppedReplicaLeavesNoCanonicalAddress(t *testing.T) {
	cl := New(Config{Nodes: 2, SegWords: 64, Seed: 1, WithDisk: true})
	n1, n2 := cl.Node(0), cl.Node(1)
	b := n1.NewBunch()
	var objs []Ref
	for i := 0; i < 12; i++ { // more than one segment's worth
		o := n1.MustAlloc(b, 4)
		n1.AddRoot(o)
		n1.WriteWord(o, 0, uint64(i))
		objs = append(objs, o)
	}
	if err := n2.MapBunch(b); err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		if err := n2.AcquireRead(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := n2.UnmapBunch(b); err != nil {
		t.Fatal(err)
	}
	if stray := strayCanonicals(n2, b); len(stray) != 0 {
		t.Fatalf("after UnmapBunch, canonical addresses into unmapped segments: %v", stray)
	}

	if err := n1.Checkpoint(b); err != nil {
		t.Fatal(err)
	}
	if err := n1.Crash(b); err != nil {
		t.Fatal(err)
	}
	if stray := strayCanonicals(n1, b); len(stray) != 0 {
		t.Fatalf("after Crash, canonical addresses into unmapped segments: %v", stray)
	}
	if err := n1.RecoverBunch(b); err != nil {
		t.Fatal(err)
	}
	if stray := strayCanonicals(n1, b); len(stray) != 0 {
		t.Fatalf("after RecoverBunch, canonical addresses into unmapped segments: %v", stray)
	}
	for i, o := range objs {
		if v, err := n1.ReadWord(o, 0); err != nil || v != uint64(i) {
			t.Fatalf("%v after recovery = %d, %v; want %d", o, v, err, i)
		}
	}
	if bad := cl.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("invariants: %v", bad)
	}
}

// TestCoMappedCrossNodeCycle reproduces examples/migration: a dead 2-cycle
// x(B1@N1) <-> y(B2@N2), both edges created at N1 (so both stubs live at N1),
// must survive independent BGCs but die once both bunches are co-mapped at N1
// and the group collector runs at both sites.
func TestCoMappedCrossNodeCycle(t *testing.T) {
	cl := New(Config{Nodes: 2, SegWords: 512, Seed: 1})
	n1, n2 := cl.Node(0), cl.Node(1)
	b1 := n1.NewBunch()
	b2 := n2.NewBunch()
	x := n1.MustAlloc(b1, 1)
	y := n2.MustAlloc(b2, 1)
	control := n1.MustAlloc(b1, 1)
	n1.AddRoot(control)
	if err := n1.AcquireWrite(y); err != nil {
		t.Fatal(err)
	}
	if err := n1.WriteRef(x, 0, y); err != nil {
		t.Fatal(err)
	}
	if err := n1.WriteRef(y, 0, x); err != nil {
		t.Fatal(err)
	}

	// Independent BGCs must conservatively keep the cycle.
	for round := 0; round < 4; round++ {
		n1.CollectBunch(b1)
		n2.CollectBunch(b2)
		cl.Run(0)
	}
	has := func(n *Node, r Ref) bool {
		_, ok := n.DSM().Canonical(r.OID)
		return ok
	}
	if !has(n1, x) || !has(n2, y) {
		t.Fatal("cycle reclaimed by independent BGCs (must be conservative)")
	}

	// Co-map and group-collect: the cycle is group-internal at N1 now.
	if err := n1.MapBunch(b2); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		n1.CollectGroup(nil)
		n2.CollectGroup(nil)
		cl.Run(0)
	}
	if has(n1, x) || has(n1, y) {
		t.Fatalf("group-internal cycle still present at N1: x=%v y=%v", has(n1, x), has(n1, y))
	}
	if has(n2, x) || has(n2, y) {
		t.Fatalf("cycle still present at N2: x=%v y=%v", has(n2, x), has(n2, y))
	}
	if !has(n1, control) {
		t.Fatal("control object lost")
	}
}

// mappedSegments counts the segment replicas n maps.
func mappedSegments(n *Node) int {
	count := 0
	n.Collector().Heap().ForEachSegment(func(*mem.Segment) { count++ })
	return count
}

// TestDenseSurvivorSegmentsStayInPlace pins the bunch collector's keep
// rule: a node's first collection of a bunch copies every owned live
// object; after that, a segment the node created, that survived its last
// collection and is still at least 4/5 live stays where it is — no copy,
// no forwarding pointer, no new address, no location update — and a
// segment that drops below 4/5 is evacuated whole and freed by §4.5.
func TestDenseSurvivorSegmentsStayInPlace(t *testing.T) {
	// Five data words and a three-word header: a 64-word segment holds
	// exactly eight objects.
	cl := New(Config{Nodes: 3, SegWords: 64, Seed: 1})
	n0 := cl.Node(0)
	b := n0.NewBunch()
	objs := make([]Ref, 16)
	for i := range objs {
		objs[i] = n0.MustAlloc(b, 5)
		n0.AddRoot(objs[i])
		if err := n0.WriteWord(objs[i], 0, uint64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	heap := n0.col.Heap()
	where := func(r Ref) (addr.Addr, addr.SegID) {
		n0.mu.Lock()
		defer n0.mu.Unlock()
		a, _ := n0.dsm.Canonical(r.OID)
		id, _ := heap.Allocator().SegIndex(a)
		return a, id
	}
	dead := map[Ref]bool{}
	check := func(when string) {
		t.Helper()
		for i, r := range objs {
			if dead[r] {
				continue
			}
			if err := n0.AcquireRead(r); err != nil {
				t.Fatalf("%s: object %d: %v", when, i, err)
			}
			v, err := n0.ReadWord(r, 0)
			n0.Release(r)
			if err != nil || v != uint64(100+i) {
				t.Fatalf("%s: object %d = %d, %v", when, i, v, err)
			}
		}
		if bad := cl.CheckInvariants(); len(bad) != 0 {
			t.Fatalf("%s: invariants: %v", when, bad)
		}
	}
	stat := cl.Stats().Get

	// The first collection copies everything into two full segments.
	if st := n0.CollectBunch(b); st.Copied != len(objs) {
		t.Fatalf("first collection copied %d objects, want %d", st.Copied, len(objs))
	}
	cl.Run(0)
	segs := map[addr.SegID][]Ref{}
	for _, r := range objs {
		_, id := where(r)
		segs[id] = append(segs[id], r)
	}
	if len(segs) != 2 {
		t.Fatalf("first collection spread 16 objects over %d segments, want 2", len(segs))
	}
	var ids []addr.SegID
	for id := range segs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	sparse, full := segs[ids[0]], segs[ids[1]]
	// The peers read every object but the two that lose their root below:
	// a copy of any of the others owes them a location update.
	for _, p := range []*Node{cl.Node(1), cl.Node(2)} {
		for _, r := range objs {
			if r == sparse[0] || r == sparse[1] {
				continue
			}
			if err := p.AcquireRead(r); err != nil {
				t.Fatal(err)
			}
			p.Release(r)
		}
	}
	cl.Run(0)
	check("after the first collection")

	// The second collection finds both segments survivors and full.
	addrs := map[Ref]addr.Addr{}
	for _, r := range objs {
		addrs[r], _ = where(r)
	}
	kept, batches, flushes := stat("core.gc.segsKept"), stat("msg.sent.kind.dsm.locBatch"), stat("core.locFlush.msgs")
	if st := n0.CollectBunch(b); st.Copied != 0 {
		t.Fatalf("second collection copied %d objects, want 0", st.Copied)
	}
	if got := stat("core.gc.segsKept") - kept; got != 2 {
		t.Fatalf("second collection kept %d segments, want 2", got)
	}
	for _, r := range objs {
		if a, _ := where(r); a != addrs[r] || heap.Forwarded(a) {
			t.Fatalf("kept object %v moved from %v to %v (forwarded %v)", r, addrs[r], a, heap.Forwarded(a))
		}
	}
	// Nothing moved, so nothing is owed: neither a background flush nor
	// the consistency traffic of the peers' next acquires carries a
	// location update.
	n0.FlushLocations()
	cl.Run(0)
	for _, p := range []*Node{cl.Node(1), cl.Node(2)} {
		if err := p.AcquireWrite(full[0]); err != nil {
			t.Fatal(err)
		}
		p.Release(full[0])
	}
	cl.Run(0)
	if got := stat("msg.sent.kind.dsm.locBatch") - batches; got != 0 {
		t.Fatalf("a collection that moved nothing led to %d dsm.locBatch messages", got)
	}
	if got := stat("core.locFlush.msgs") - flushes; got != 0 {
		t.Fatalf("a collection that moved nothing owed %d location flushes", got)
	}
	check("after the keeping collection")

	// Unrooting two objects of the first segment leaves it 6/8 live, below
	// 4/5: exactly its six survivors move, and the full segment stays.
	n0.RemoveRoot(sparse[0])
	n0.RemoveRoot(sparse[1])
	dead[sparse[0]], dead[sparse[1]] = true, true
	st := n0.CollectBunch(b)
	if st.Copied != 6 || st.Dead != 2 {
		t.Fatalf("collection after unrooting copied %d and reclaimed %d, want 6 and 2", st.Copied, st.Dead)
	}
	for _, r := range sparse[2:] {
		if a, id := where(r); a == addrs[r] || id == ids[0] {
			t.Fatalf("survivor %v of the sparse segment still at %v", r, a)
		}
	}
	for _, r := range full {
		if a, _ := where(r); a != addrs[r] {
			t.Fatalf("object %v of the full segment moved from %v to %v", r, addrs[r], a)
		}
	}
	if !slices.Contains(n0.Collector().FromSpaceSegments(b), ids[0]) {
		t.Fatalf("evacuated segment %v not on the from-space list %v", ids[0], n0.Collector().FromSpaceSegments(b))
	}
	// The survivors' new addresses are owed to the peers that read them.
	n0.FlushLocations()
	if stat("core.locFlush.msgs") == flushes {
		t.Fatal("the evacuated survivors' moves owed no location update")
	}
	cl.Run(0)
	check("after evacuating the sparse segment")
	n0.ReclaimFromSpace(b)
	cl.Run(0)
	if heap.Seg(ids[0]) != nil || heap.Seg(ids[1]) == nil {
		t.Fatalf("after §4.5: sparse segment mapped %v, full segment mapped %v",
			heap.Seg(ids[0]) != nil, heap.Seg(ids[1]) != nil)
	}
	check("after §4.5 freed the sparse segment")
}

// TestStaleMarkDoesNotKeepObject collects, unroots one object and collects
// again: the mark the first collection left in the object's record is of an
// older epoch, so it must not keep the object, which the second collection
// reclaims.
func TestStaleMarkDoesNotKeepObject(t *testing.T) {
	cl := New(Config{Nodes: 1, SegWords: 64, Seed: 1})
	n := cl.Node(0)
	b := n.NewBunch()
	keep, drop := n.MustAlloc(b, 1), n.MustAlloc(b, 1)
	n.AddRoot(keep)
	n.AddRoot(drop)
	if st := n.CollectBunch(b); st.LiveStrong != 2 || st.Dead != 0 {
		t.Fatalf("first collection: %d strongly live, %d dead; want 2, 0", st.LiveStrong, st.Dead)
	}
	n.RemoveRoot(drop)
	if st := n.CollectBunch(b); st.LiveStrong != 1 || st.Dead != 1 {
		t.Fatalf("second collection: %d strongly live, %d dead; want 1, 1", st.LiveStrong, st.Dead)
	}
	if _, ok := n.DSM().Canonical(drop.OID); ok {
		t.Fatal("the unrooted object survived on its stale mark")
	}
	if _, ok := n.DSM().Canonical(keep.OID); !ok {
		t.Fatal("the rooted object was reclaimed")
	}
}

// TestLiveOIDsLeavesMarksAlone runs the same schedule on two clusters, one
// of which calls LiveOIDs between the two collections: LiveOIDs keeps its
// own marks, so the next collection must decide exactly as without it.
func TestLiveOIDsLeavesMarksAlone(t *testing.T) {
	run := func(probe bool) (core.CollectStats, []addr.OID) {
		cl := New(Config{Nodes: 1, SegWords: 64, Seed: 1})
		n := cl.Node(0)
		b := n.NewBunch()
		root := n.MustAlloc(b, 2)
		n.AddRoot(root)
		var objs []Ref
		for i := range 6 {
			objs = append(objs, n.MustAlloc(b, 1))
			if i < 2 {
				mustOK(t, n.WriteRef(root, i, objs[i]))
			} else {
				n.AddRoot(objs[i])
			}
		}
		n.CollectBunch(b)
		var live []addr.OID
		if probe {
			n.mu.Lock()
			live = n.col.LiveOIDs(b)
			n.mu.Unlock()
		}
		mustOK(t, n.WriteRef(root, 1, Ref{}))
		n.RemoveRoot(objs[2])
		n.RemoveRoot(objs[3])
		st := n.CollectBunch(b)
		if _, ok := n.DSM().Canonical(objs[1].OID); ok {
			t.Fatalf("probe %v: the unreferenced object survived", probe)
		}
		return st, live
	}
	want, _ := run(false)
	got, live := run(true)
	if len(live) != 7 {
		t.Fatalf("LiveOIDs listed %d objects, want 7", len(live))
	}
	if got.LiveStrong != want.LiveStrong || got.LiveWeak != want.LiveWeak || got.Dead != want.Dead ||
		got.Scanned != want.Scanned || got.Copied != want.Copied {
		t.Fatalf("after LiveOIDs the collection gave %+v, without it %+v", got, want)
	}
	if want.LiveStrong != 4 || want.Dead != 3 {
		t.Fatalf("collection found %d strongly live and %d dead, want 4 and 3", want.LiveStrong, want.Dead)
	}
}

// TestUnrecordedRootMarkedOnce roots a collection at an object the node
// keeps no record of, through two scions and an intra-bunch scion: the
// trace marks it in the collector's side map, counts it once as unknown
// and once as strongly live.
func TestUnrecordedRootMarkedOnce(t *testing.T) {
	cl := New(Config{Nodes: 2, SegWords: 64, Seed: 1})
	n := cl.Node(0)
	b := n.NewBunch()
	root, gone := n.MustAlloc(b, 1), n.MustAlloc(b, 1)
	n.AddRoot(root)
	n.CollectBunch(b) // gone dies here: its record goes with it
	cl.Run(0)
	if n.DSM().Record(gone.OID) != nil {
		t.Fatal("the dead object kept its record")
	}
	n.mu.Lock()
	tab := n.col.Replica(b).Table
	for _, src := range []addr.OID{100, 101} {
		tab.AddInterScion(ssp.InterScion{TargetOID: gone.OID, TargetBunch: b, SrcOID: src, SrcBunch: b + 1, SrcNode: 1})
	}
	tab.AddIntraScion(ssp.IntraScion{OID: gone.OID, Bunch: b, NewOwner: 1})
	n.mu.Unlock()
	before := cl.Stats().Get("core.gc.rootUnknown")
	st := n.CollectBunch(b)
	if got := cl.Stats().Get("core.gc.rootUnknown") - before; got != 1 {
		t.Fatalf("the unrecorded root counted %d times as unknown, want 1", got)
	}
	if st.LiveStrong != 2 || st.LiveWeak != 0 {
		t.Fatalf("%d strongly and %d weakly live, want 2 and 0", st.LiveStrong, st.LiveWeak)
	}
}
