package bmx_test

// Executable reproductions of the paper's four figures (F1-F4 in
// DESIGN.md). Each test constructs exactly the configuration the figure
// shows, drives it through the real protocol stack, and asserts every state
// the figure and its caption describe: token letters (r/w/o/i), stub and
// scion tables, ownerPtr direction, forwarding pointers, and the staged
// deletion chain of §6.2.

import (
	"testing"

	"bmx"
)

// figure1 builds the Figure 1 configuration:
//
//	B1 mapped on N1 and N2, B2 mapped only on N3.
//	O3 (in B1) references O5 (in B2); the reference was created at N2, so
//	the single inter-bunch stub lives at N2 and its scion at N3.
//	O3's write token then moved from N2 to N1, creating the intra-bunch
//	SSP: stub at N1 (new owner), scion at N2 (old owner).
func figure1(t *testing.T) (cl *bmx.Cluster, b1, b2 bmx.BunchID, o1, o3, o5 bmx.Ref) {
	t.Helper()
	cl = bmx.New(bmx.Config{Nodes: 3, SegWords: 64, Seed: 1})
	n1, n2, n3 := cl.Node(0), cl.Node(1), cl.Node(2)

	b1 = n1.NewBunch()
	b2 = n3.NewBunch()
	o1 = n1.MustAlloc(b1, 2)
	o3 = n1.MustAlloc(b1, 2)
	o5 = n3.MustAlloc(b2, 1)
	n1.AddRoot(o1)
	n3.AddRoot(o5)
	if err := n1.WriteRef(o1, 0, o3); err != nil {
		t.Fatal(err)
	}

	// B1 is mapped on N2; the O3->O5 reference is created at N2.
	if err := n2.MapBunch(b1); err != nil {
		t.Fatal(err)
	}
	if err := n2.AcquireWrite(o3); err != nil {
		t.Fatal(err)
	}
	if err := n2.AcquireRead(o5); err != nil {
		t.Fatal(err)
	}
	if err := n2.WriteRef(o3, 0, o5); err != nil {
		t.Fatal(err)
	}

	// O3's write token goes from N2 to N1.
	if err := n1.AcquireWrite(o3); err != nil {
		t.Fatal(err)
	}
	return cl, b1, b2, o1, o3, o5
}

func TestFigure1TokenLetters(t *testing.T) {
	cl, _, _, _, o3, o5 := figure1(t)
	n1, n2, n3 := cl.Node(0), cl.Node(1), cl.Node(2)

	// O3: N1 holds the write token and is the owner (thicker object in the
	// figure); N2's copy is inconsistent (i).
	if n1.Mode(o3) != bmx.ModeWrite || !n1.IsOwner(o3) {
		t.Fatalf("O3 at N1: mode %v owner %v, want w/o", n1.Mode(o3), n1.IsOwner(o3))
	}
	if n2.Mode(o3) != bmx.ModeInvalid || n2.IsOwner(o3) {
		t.Fatalf("O3 at N2: mode %v owner %v, want i", n2.Mode(o3), n2.IsOwner(o3))
	}
	// O5 is owned at N3 with a read copy at N2.
	if !n3.IsOwner(o5) {
		t.Fatal("O5 must be owned at N3")
	}
	if n2.Mode(o5) != bmx.ModeRead {
		t.Fatalf("O5 at N2: mode %v, want r", n2.Mode(o5))
	}
}

func TestFigure1SingleInterBunchStub(t *testing.T) {
	cl, b1, b2, _, o3, o5 := figure1(t)
	n1, n2, n3 := cl.Node(0), cl.Node(1), cl.Node(2)

	// "In spite of the fact that O3 is cached on N1 and N2, there is only
	// one inter-bunch stub due to O3->O5 that is kept at N2" (§3.1).
	stubsN2 := n2.Collector().Replica(b1).Table.InterStubList()
	if len(stubsN2) != 1 {
		t.Fatalf("N2 holds %d inter-bunch stubs, want 1", len(stubsN2))
	}
	s := stubsN2[0]
	if s.SrcOID != o3.OID || s.TargetOID != o5.OID || s.ScionNode != n3.ID() {
		t.Fatalf("stub = %+v", s)
	}
	if got := n1.Collector().Replica(b1).Table.InterStubList(); len(got) != 0 {
		t.Fatalf("inter-bunch stub replicated at N1: %v", got)
	}
	// The matching scion is at N3, in B2's table.
	scions := n3.Collector().Replica(b2).Table.InterScionList()
	if len(scions) != 1 || scions[0].TargetOID != o5.OID || scions[0].SrcNode != n2.ID() {
		t.Fatalf("scions at N3 = %+v", scions)
	}
}

func TestFigure1IntraBunchSSPDirection(t *testing.T) {
	cl, b1, _, _, o3, _ := figure1(t)
	n1, n2 := cl.Node(0), cl.Node(1)

	// "When O3's write token goes from N2 ... to N1, the corresponding
	// intra-bunch SSP from N1 to N2 is created" — stub at the new owner
	// N1, scion at the old owner N2, opposite to the ownerPtr (N2 -> N1).
	intraStubs := n1.Collector().Replica(b1).Table.IntraStubList()
	if len(intraStubs) != 1 || intraStubs[0].OID != o3.OID || intraStubs[0].OldOwner != n2.ID() {
		t.Fatalf("intra stubs at N1 = %+v", intraStubs)
	}
	intraScions := n2.Collector().Replica(b1).Table.IntraScionList()
	if len(intraScions) != 1 || intraScions[0].OID != o3.OID || intraScions[0].NewOwner != n1.ID() {
		t.Fatalf("intra scions at N2 = %+v", intraScions)
	}
	// The ownerPtr at N2 points at N1 (opposite direction of the SSP).
	if got := n2.DSM().OwnerPtrOf(o3.OID); got != n1.ID() {
		t.Fatalf("ownerPtr at N2 = %v, want N1", got)
	}
}

func TestFigure1StubKeepsO3AliveAtN2(t *testing.T) {
	// "In spite of being unreachable by the mutator at N2, object O3 must
	// be kept alive at this node" — the intra-bunch scion is a (weak) root.
	cl, b1, _, _, o3, _ := figure1(t)
	n2 := cl.Node(1)
	for i := 0; i < 3; i++ {
		n2.CollectBunch(b1)
		cl.Run(0)
	}
	if _, ok := n2.DSM().Canonical(o3.OID); !ok {
		t.Fatal("O3 reclaimed at N2 while its inter-bunch stub is still needed")
	}
}

// figure2 builds the Figure 2 configuration: B1 on N1 and N2 with
// O1 -> O2 -> O3; N1 owns O1 and O3, N2 owns O2. The BGC then runs on N2.
func figure2(t *testing.T) (cl *bmx.Cluster, b bmx.BunchID, o1, o2, o3 bmx.Ref) {
	t.Helper()
	cl = bmx.New(bmx.Config{Nodes: 2, SegWords: 64, Seed: 1})
	n1, n2 := cl.Node(0), cl.Node(1)
	b = n1.NewBunch()
	o1 = n1.MustAlloc(b, 2)
	o2 = n1.MustAlloc(b, 2)
	o3 = n1.MustAlloc(b, 2)
	n1.AddRoot(o1)
	if err := n1.WriteRef(o1, 0, o2); err != nil {
		t.Fatal(err)
	}
	if err := n1.WriteRef(o2, 0, o3); err != nil {
		t.Fatal(err)
	}
	if err := n2.MapBunch(b); err != nil {
		t.Fatal(err)
	}
	n2.AddRoot(o1)
	if err := n2.AcquireWrite(o2); err != nil {
		t.Fatal(err)
	}
	return cl, b, o1, o2, o3
}

func TestFigure2BGCCopiesOnlyO2(t *testing.T) {
	cl, b, _, _, _ := figure2(t)
	n2 := cl.Node(1)
	st := n2.CollectBunch(b)
	if st.Copied != 1 {
		t.Fatalf("BGC at N2 copied %d objects, want 1 (only locally-owned O2)", st.Copied)
	}
	if st.LiveStrong != 3 {
		t.Fatalf("live = %d, want O1, O2, O3", st.LiveStrong)
	}
	if st.Dead != 0 {
		t.Fatalf("dead = %d, want 0", st.Dead)
	}
}

func TestFigure2ForwardingPointerAndLocalUpdate(t *testing.T) {
	cl, b, o1, o2, _ := figure2(t)
	n1, n2 := cl.Node(0), cl.Node(1)
	heap2 := n2.Collector().Heap()
	oldAddr, _ := n2.DSM().Canonical(o2.OID)

	n2.CollectBunch(b)

	// A forwarding pointer was written into O2's from-space header at N2.
	newAddr, _ := n2.DSM().Canonical(o2.OID)
	if newAddr == oldAddr {
		t.Fatal("O2 did not move at N2")
	}
	if !heap2.Forwarded(oldAddr) || heap2.Resolve(oldAddr) != newAddr {
		t.Fatal("no forwarding pointer left in O2's old header")
	}
	// N2's copy of O1 now points at the new O2 ("the update of pointers to
	// O2"); this happened WITHOUT acquiring O1's write token.
	a1, _ := n2.DSM().Canonical(o1.OID)
	if got := bmx.Addr(heap2.GetField(a1, 0)); got != newAddr {
		t.Fatalf("O1.0 at N2 = %v, want updated %v", got, newAddr)
	}
	// N1 has not been informed: its canonical O2 address is still the old
	// one — "Node N1 has not yet been informed of O2's new address".
	if got, _ := n1.DSM().Canonical(o2.OID); got != oldAddr {
		t.Fatalf("O2 at N1 = %v, want still %v", got, oldAddr)
	}
	// Yet the mutator at N1 continues to work correctly.
	if err := n1.AcquireRead(o1); err != nil {
		t.Fatal(err)
	}
	if r, err := n1.ReadRef(o1, 0); err != nil || !n1.SamePtr(r, o2) {
		t.Fatalf("N1 mutator broken: %v, %v", r, err)
	}
}

func TestFigure2LazyUpdateViaPiggyback(t *testing.T) {
	cl, b, _, o2, o3 := figure2(t)
	n1, n2 := cl.Node(0), cl.Node(1)
	n2.CollectBunch(b)
	newAddr, _ := n2.DSM().Canonical(o2.OID)

	// "O2's new address can be sent from N2 to N1 in a message due to the
	// consistency protocol": N1 acquires O2 (owner is N2) and receives the
	// location with the grant — with zero additional GC messages.
	gcMsgsBefore := cl.Stats().Get("msg.sent.gc")
	if err := n1.AcquireRead(o2); err != nil {
		t.Fatal(err)
	}
	if got := cl.Stats().Get("msg.sent.gc"); got != gcMsgsBefore {
		t.Fatalf("location update used %d extra GC messages, want 0", got-gcMsgsBefore)
	}
	if got, _ := n1.DSM().Canonical(o2.OID); got != newAddr {
		t.Fatalf("O2 at N1 = %v after sync, want %v", got, newAddr)
	}
	// O2's content (the reference to O3) arrived intact.
	if r, err := n1.ReadRef(o2, 0); err != nil || !n1.SamePtr(r, o3) {
		t.Fatalf("O2.0 at N1 = %v, %v", r, err)
	}
}

// figure3 builds the Figure 3 base: bunch B on N1 and N2, O1 -> O2, both
// owned at N1, with N2 holding stale read copies.
func figure3(t *testing.T) (cl *bmx.Cluster, b bmx.BunchID, o1, o2 bmx.Ref) {
	t.Helper()
	cl = bmx.New(bmx.Config{Nodes: 2, SegWords: 64, Seed: 1})
	n1, n2 := cl.Node(0), cl.Node(1)
	b = n1.NewBunch()
	o1 = n1.MustAlloc(b, 2)
	o2 = n1.MustAlloc(b, 2)
	n1.AddRoot(o1)
	if err := n1.WriteRef(o1, 0, o2); err != nil {
		t.Fatal(err)
	}
	n1.WriteWord(o2, 1, 7)
	if err := n2.MapBunch(b); err != nil {
		t.Fatal(err)
	}
	n2.AddRoot(o1)
	if err := n2.AcquireRead(o1); err != nil {
		t.Fatal(err)
	}
	if err := n2.AcquireRead(o2); err != nil {
		t.Fatal(err)
	}
	return cl, b, o1, o2
}

// addressesValid asserts invariant 1 after a write acquire of O1 at n: O1
// and O2 both resolve to addresses mapped at n.
func addressesValid(t *testing.T, n *bmx.Node, o1, o2 bmx.Ref) {
	t.Helper()
	heap := n.Collector().Heap()
	for _, o := range []bmx.Ref{o1, o2} {
		a, ok := n.DSM().Canonical(o.OID)
		if !ok || !heap.Mapped(heap.Resolve(a)) {
			t.Fatalf("%v at node %v: canonical %v (present %v) does not resolve to a mapped address", o.OID, n.ID(), a, ok)
		}
	}
}

func TestFigure3CaseA_NoCopies(t *testing.T) {
	// Case (a): nothing was copied anywhere; the acquire needs no special
	// operation.
	cl, _, o1, o2 := figure3(t)
	n2 := cl.Node(1)
	locBefore := cl.Stats().Get("core.loc.applied")
	if err := n2.AcquireWrite(o1); err != nil {
		t.Fatal(err)
	}
	if got := cl.Stats().Get("core.loc.applied"); got != locBefore {
		t.Fatalf("case (a) applied %d location updates, want 0", got-locBefore)
	}
	addressesValid(t, n2, o1, o2)
	// The reference chain is intact.
	if r, err := n2.ReadRef(o1, 0); err != nil || !n2.SamePtr(r, o2) {
		t.Fatalf("O1.0 at N2 = %v, %v", r, err)
	}
}

func TestFigure3CaseB_AcquiredObjectCopiedAtGranter(t *testing.T) {
	// Case (b): O1 was copied to to-space at N1; its new location is
	// piggybacked on the token grant and processed before the acquire
	// returns (invariant 1).
	cl, b, o1, o2 := figure3(t)
	n1, n2 := cl.Node(0), cl.Node(1)
	n1.CollectBunch(b)
	newAddr, _ := n1.DSM().Canonical(o1.OID)

	if err := n2.AcquireWrite(o1); err != nil {
		t.Fatal(err)
	}
	if got, _ := n2.DSM().Canonical(o1.OID); got != newAddr {
		t.Fatalf("O1 at N2 = %v, want granter's to-space address %v", got, newAddr)
	}
	addressesValid(t, n2, o1, o2)
	if err := n2.WriteWord(o1, 1, 9); err != nil {
		t.Fatal(err)
	}
}

func TestFigure3CaseC_ReferencedObjectCopiedAtGranter(t *testing.T) {
	// Case (c): O2 (pointed at by O1) was copied at N1; acquiring O1 at N2
	// must also deliver O2's new location.
	cl, b, o1, o2 := figure3(t)
	n1, n2 := cl.Node(0), cl.Node(1)
	n1.CollectBunch(b)
	newO2, _ := n1.DSM().Canonical(o2.OID)

	if err := n2.AcquireWrite(o1); err != nil {
		t.Fatal(err)
	}
	if got, _ := n2.DSM().Canonical(o2.OID); got != newO2 {
		t.Fatalf("O2 at N2 = %v, want %v (invariant 1 covers referenced objects)", got, newO2)
	}
	addressesValid(t, n2, o1, o2)
	// Following the pointer works immediately.
	r, err := n2.ReadRef(o1, 0)
	if err != nil || !n2.SamePtr(r, o2) {
		t.Fatalf("O1.0 at N2 = %v, %v", r, err)
	}
}

func TestFigure3CaseD_ReferencedObjectCopiedAtAcquirer(t *testing.T) {
	// Case (d): O2 was copied at N2 itself (N2 owns O2 and collected)
	// before the write-token acquire of O1. When the valid copy of O1
	// arrives, its references to forwarding pointers in from-space are
	// updated to point directly into to-space.
	cl, b, o1, o2 := figure3(t)
	n2 := cl.Node(1)
	if err := n2.AcquireWrite(o2); err != nil { // N2 becomes O2's owner
		t.Fatal(err)
	}
	n2.CollectBunch(b) // copies O2 at N2
	newO2, _ := n2.DSM().Canonical(o2.OID)

	if err := n2.AcquireWrite(o1); err != nil { // token + valid O1 from N1
		t.Fatal(err)
	}
	addressesValid(t, n2, o1, o2)
	heap2 := n2.Collector().Heap()
	a1, _ := n2.DSM().Canonical(o1.OID)
	raw := bmx.Addr(heap2.GetField(a1, 0))
	if heap2.Resolve(raw) != newO2 {
		t.Fatalf("O1.0 at N2 resolves to %v, want N2's to-space copy %v", heap2.Resolve(raw), newO2)
	}
	if r, err := n2.ReadRef(o1, 0); err != nil || !n2.SamePtr(r, o2) {
		t.Fatalf("read through updated ref: %v, %v", r, err)
	}
	if v, _ := n2.ReadWord(o2, 1); v != 7 {
		t.Fatalf("O2 data after case (d) = %d, want 7", v)
	}
}

// TestFigure4DeletionChain reproduces Figure 4 and the §6.2 walk-through
// step by step: O1 cached on N1, N2 and N3; N2 is the owner; N3 (an old
// owner holding an inter-bunch stub for O1) keeps O1 only via the
// intra-bunch scion; N1 holds the single mutator reference.
func TestFigure4DeletionChain(t *testing.T) {
	cl := bmx.New(bmx.Config{Nodes: 3, SegWords: 64, Seed: 1})
	n1, n2, n3 := cl.Node(0), cl.Node(1), cl.Node(2)

	bOther := n1.NewBunch()
	other := n1.MustAlloc(bOther, 1)
	n1.AddRoot(other)

	b := n3.NewBunch()
	o1 := n3.MustAlloc(b, 1)
	// N3 creates an inter-bunch reference O1 -> other, so N3 holds an
	// inter-bunch stub for O1.
	if err := n3.AcquireRead(other); err != nil {
		t.Fatal(err)
	}
	if err := n3.WriteRef(o1, 0, other); err != nil {
		t.Fatal(err)
	}
	// Ownership moves N3 -> N2 (intra-bunch SSP: stub at N2, scion at N3).
	if err := n2.MapBunch(b); err != nil {
		t.Fatal(err)
	}
	if err := n2.AcquireWrite(o1); err != nil {
		t.Fatal(err)
	}
	// N1 holds the only mutator reference, with a read token from N2.
	if err := n1.MapBunch(b); err != nil {
		t.Fatal(err)
	}
	if err := n1.AcquireRead(o1); err != nil {
		t.Fatal(err)
	}
	n1.AddRoot(o1)

	// Step 1 (§6.2): BGC at N3. The new exiting list does not include the
	// ownerPtr N3 -> N2 (O1 is reachable at N3 only via the intra-bunch
	// scion), which breaks the replica cycle. O1 stays alive at N3.
	n3.CollectBunch(b)
	cl.Run(0)
	if _, ok := n3.DSM().Canonical(o1.OID); !ok {
		t.Fatal("O1 reclaimed at N3 while the intra-bunch scion protects it")
	}
	// The cleaner at N2 dropped the entering ownerPtr from N3...
	entering := n2.DSM().EnteringOf(o1.OID)
	for _, e := range entering {
		if e == n3.ID() {
			t.Fatalf("entering ownerPtr from N3 not removed at N2: %v", entering)
		}
	}
	// ...but O1 remains alive at N2 thanks to the entering ownerPtr that
	// originates at N1.
	n2.CollectBunch(b)
	cl.Run(0)
	if _, ok := n2.DSM().Canonical(o1.OID); !ok {
		t.Fatal("O1 reclaimed at N2 while N1 still references it")
	}

	// Step 2: the reference is deleted from N1's root and N1 collects:
	// O1 reclaimed at N1, and N1's exiting ownerPtr disappears.
	n1.RemoveRoot(o1)
	n1.CollectBunch(b)
	cl.Run(0)
	if _, ok := n1.DSM().Canonical(o1.OID); ok {
		t.Fatal("O1 still present at N1")
	}

	// Step 3: N2 collects; O1 is no longer reachable there, so the
	// intra-bunch stub to N3 drops out of the new table.
	n2.CollectBunch(b)
	cl.Run(0)
	if _, ok := n2.DSM().Canonical(o1.OID); ok {
		t.Fatal("O1 still present at N2 after N1's table arrived")
	}
	if got := n2.Collector().Replica(b).Table.IntraStubList(); len(got) != 0 {
		t.Fatalf("intra-bunch stub survived at N2: %v", got)
	}

	// Step 4: the cleaner at N3 deletes the intra-bunch scion, and N3's
	// next BGC reclaims O1 there as well.
	if got := n3.Collector().Replica(b).Table.IntraScionList(); len(got) != 0 {
		t.Fatalf("intra-bunch scion survived at N3: %v", got)
	}
	n3.CollectBunch(b)
	cl.Run(0)
	if _, ok := n3.DSM().Canonical(o1.OID); ok {
		t.Fatal("O1 still present at N3 at the end of the deletion chain")
	}
}
