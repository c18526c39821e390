package dsm

import (
	"fmt"
	"math/rand"
	"testing"

	"bmx/internal/addr"
	"bmx/internal/simnet"
)

// fakeEnv wires dsm Nodes with minimal in-test hooks: object contents are a
// per-node map, addresses a per-node table, and SSP activity is recorded.
type fakeEnv struct {
	net    *simnet.Network
	nodes  map[addr.NodeID]*Node
	hooks  map[addr.NodeID]*fakeHooks
	bunch  map[addr.OID]addr.BunchID
	hint   map[addr.OID]addr.NodeID
	refs   map[addr.OID][]addr.OID // object graph for GrantManifests
	sizeOf map[addr.OID]int
	// candidates backs RouteCandidates; reestablishable gates Reestablish.
	candidates      map[addr.OID][]addr.NodeID
	reestablishable map[addr.OID]bool
}

type fakeHooks struct {
	env *fakeEnv
	id  addr.NodeID

	addrs         map[addr.OID]addr.Addr
	data          map[addr.OID][]uint64
	stubsFor      map[addr.OID]bool // node holds stubs for these (invariant 3)
	pending       map[addr.NodeID][]Manifest
	applied       []Manifest
	intraMade     []IntraSSPReq // scions created here as old owner
	intraGot      []IntraSSPReq // stubs created here as new owner
	reestablished []addr.OID    // objects faulted back in at this node
	onOwned       func(addr.OID)
}

// copySetOf returns the nodes n granted read tokens to for o.
func copySetOf(n *Node, o addr.OID) []addr.NodeID {
	if st := n.objs[o]; st != nil {
		return st.CopySet
	}
	return nil
}

func newFakeEnv(t *testing.T, n int) *fakeEnv {
	t.Helper()
	env := &fakeEnv{
		net:    simnet.New(simnet.Options{Seed: 1}),
		nodes:  make(map[addr.NodeID]*Node),
		hooks:  make(map[addr.NodeID]*fakeHooks),
		bunch:  make(map[addr.OID]addr.BunchID),
		hint:   make(map[addr.OID]addr.NodeID),
		refs:   make(map[addr.OID][]addr.OID),
		sizeOf: make(map[addr.OID]int),

		candidates:      make(map[addr.OID][]addr.NodeID),
		reestablishable: make(map[addr.OID]bool),
	}
	for i := 0; i < n; i++ {
		id := addr.NodeID(i)
		h := &fakeHooks{
			env: env, id: id,
			addrs:    make(map[addr.OID]addr.Addr),
			data:     make(map[addr.OID][]uint64),
			stubsFor: make(map[addr.OID]bool),
			pending:  make(map[addr.NodeID][]Manifest),
		}
		nd := NewNode(id, env.net, h, n)
		env.hooks[id] = h
		env.nodes[id] = nd
		env.net.Register(id, nd.HandleAsync, nd.HandleCall)
	}
	return env
}

// newObj creates an object owned at node with given contents.
func (env *fakeEnv) newObj(o addr.OID, b addr.BunchID, node addr.NodeID, words ...uint64) {
	env.bunch[o] = b
	env.hint[o] = node
	env.sizeOf[o] = len(words)
	env.hooks[node].addrs[o] = addr.Addr(0x1000 + 0x100*uint64(o))
	env.hooks[node].data[o] = words
	env.nodes[node].RegisterNew(o, b)
}

func (h *fakeHooks) GrantManifests(o addr.OID) []Manifest {
	out := []Manifest{h.manifest(o)}
	for _, r := range h.env.refs[o] {
		out = append(out, h.manifest(r))
	}
	return out
}

func (h *fakeHooks) manifest(o addr.OID) Manifest {
	return Manifest{OID: o, Addr: h.addrs[o], Size: h.env.sizeOf[o], Bunch: h.env.bunch[o]}
}

func (h *fakeHooks) ApplyManifests(ms []Manifest, from addr.NodeID) {
	for _, m := range ms {
		h.addrs[m.OID] = m.Addr
		h.applied = append(h.applied, m)
		h.env.nodes[h.id].Learn(m.OID, m.Bunch, from)
	}
}

func (h *fakeHooks) ObjectImage(o addr.OID) ObjectImage {
	return ObjectImage{Manifest: h.manifest(o), Words: h.data[o]}
}

func (h *fakeHooks) InstallImage(img ObjectImage, _ []Manifest, from addr.NodeID) {
	h.data[img.OID] = img.Words
	h.addrs[img.OID] = img.Addr
}

func (h *fakeHooks) PrepareOwnershipTransfer(o addr.OID, newOwner addr.NodeID, gen uint64) *IntraSSPReq {
	if !h.stubsFor[o] {
		return nil
	}
	req := IntraSSPReq{OID: o, Bunch: h.env.bunch[o], OldOwner: h.id}
	h.intraMade = append(h.intraMade, req)
	return &req
}

func (h *fakeHooks) ApplyIntraSSP(req *IntraSSPReq) { h.intraGot = append(h.intraGot, *req) }

func (h *fakeHooks) OnOwnershipAcquired(o addr.OID) {
	if h.onOwned != nil {
		h.onOwned(o)
	}
}

func (h *fakeHooks) TakePendingManifests(peer addr.NodeID) []Manifest {
	out := h.pending[peer]
	delete(h.pending, peer)
	return out
}

func (h *fakeHooks) NextTableGen(b addr.BunchID) uint64 { return 1 }

func (h *fakeHooks) Locate(o addr.OID) (addr.BunchID, addr.NodeID) {
	return h.env.bunch[o], h.env.hint[o]
}

func (h *fakeHooks) RouteCandidates(o addr.OID) []addr.NodeID { return h.env.candidates[o] }

func (h *fakeHooks) Reestablish(o addr.OID) bool {
	if h.env.reestablishable[o] {
		h.reestablished = append(h.reestablished, o)
		return true
	}
	return false
}

// ---- tests ----------------------------------------------------------------

func TestRegisterNewOwnsWriteToken(t *testing.T) {
	env := newFakeEnv(t, 2)
	env.newObj(1, 1, 0, 42)
	n0 := env.nodes[0]
	if !n0.IsOwner(1) || n0.ModeOf(1) != ModeWrite {
		t.Fatal("allocator must own the fresh object with a write token")
	}
	// Fast paths: no messages for local acquires.
	if err := n0.Acquire(1, ModeWrite, simnet.ClassApp); err != nil {
		t.Fatal(err)
	}
	if err := n0.Acquire(1, ModeRead, simnet.ClassApp); err != nil {
		t.Fatal(err)
	}
	if env.net.Stats().Get("msg.sent.app") != 0 {
		t.Fatal("local acquires must not send messages")
	}
}

func TestReadAcquireFromOwner(t *testing.T) {
	env := newFakeEnv(t, 2)
	env.newObj(1, 1, 0, 7, 8)
	n0, n1 := env.nodes[0], env.nodes[1]
	if err := n1.Acquire(1, ModeRead, simnet.ClassApp); err != nil {
		t.Fatal(err)
	}
	if n1.ModeOf(1) != ModeRead {
		t.Fatalf("mode at N2 = %v", n1.ModeOf(1))
	}
	if n1.OwnerPtrOf(1) != 0 {
		t.Fatalf("ownerPtr at N2 = %v, want N1", n1.OwnerPtrOf(1))
	}
	if cs := copySetOf(n0, 1); len(cs) != 1 || cs[0] != 1 {
		t.Fatalf("owner copy-set = %v", cs)
	}
	if e := n0.EnteringOf(1); len(e) != 1 || e[0] != 1 {
		t.Fatalf("owner entering = %v", e)
	}
	// Data shipped with the grant.
	if d := env.hooks[1].data[1]; len(d) != 2 || d[0] != 7 {
		t.Fatalf("image data at N2 = %v", d)
	}
}

func TestOwnerDowngradesOnReadGrant(t *testing.T) {
	env := newFakeEnv(t, 2)
	env.newObj(1, 1, 0)
	env.nodes[1].Acquire(1, ModeRead, simnet.ClassApp)
	if env.nodes[0].ModeOf(1) != ModeRead {
		t.Fatal("owner must downgrade write->read when granting a read token")
	}
	if !env.nodes[0].IsOwner(1) {
		t.Fatal("ownership must not move on a read grant")
	}
}

func TestWriteAcquireTransfersOwnership(t *testing.T) {
	env := newFakeEnv(t, 2)
	env.newObj(1, 1, 0, 5)
	n0, n1 := env.nodes[0], env.nodes[1]
	if err := n1.Acquire(1, ModeWrite, simnet.ClassApp); err != nil {
		t.Fatal(err)
	}
	if !n1.IsOwner(1) || n1.ModeOf(1) != ModeWrite {
		t.Fatal("requester must become owner with write token")
	}
	if n0.IsOwner(1) {
		t.Fatal("old owner must relinquish ownership")
	}
	if n0.ModeOf(1) != ModeInvalid {
		t.Fatalf("old owner mode = %v, want i", n0.ModeOf(1))
	}
	if n0.OwnerPtrOf(1) != 1 {
		t.Fatalf("old owner ownerPtr = %v, want N2", n0.OwnerPtrOf(1))
	}
	// The new owner records the entering ownerPtr from the old owner.
	if e := n1.EnteringOf(1); len(e) != 1 || e[0] != 0 {
		t.Fatalf("entering at new owner = %v", e)
	}
}

func TestWriteAcquireInvalidatesReaders(t *testing.T) {
	env := newFakeEnv(t, 4)
	env.newObj(1, 1, 0)
	// Build a distributed copy-set: N2 reads from owner N1, N3 reads from
	// N2, N4 reads from N3.
	for i := 1; i <= 3; i++ {
		r := env.nodes[addr.NodeID(i)]
		// Point each at the previous read holder so grants chain.
		r.Learn(1, 1, addr.NodeID(i-1))
		if err := r.Acquire(1, ModeRead, simnet.ClassApp); err != nil {
			t.Fatal(err)
		}
	}
	if cs := copySetOf(env.nodes[1], 1); len(cs) != 1 || cs[0] != 2 {
		t.Fatalf("distributed copy-set at N2 = %v", cs)
	}
	// Now N1 upgrades to write: every reader must be invalidated
	// transitively down the copy-set tree.
	if err := env.nodes[0].Acquire(1, ModeWrite, simnet.ClassApp); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if m := env.nodes[addr.NodeID(i)].ModeOf(1); m != ModeInvalid {
			t.Fatalf("N%d mode = %v, want i", i+1, m)
		}
	}
	if got := env.net.Stats().Get("dsm.invalidation.app"); got != 3 {
		t.Fatalf("invalidations = %d, want 3", got)
	}
}

func TestOwnerPtrChainForwarding(t *testing.T) {
	env := newFakeEnv(t, 3)
	env.newObj(1, 1, 0)
	// Ownership moves N1 -> N2.
	env.nodes[1].Acquire(1, ModeWrite, simnet.ClassApp)
	// N3 only knows the allocation site N1; its request must forward
	// N1 -> N2 along the chain.
	if err := env.nodes[2].Acquire(1, ModeWrite, simnet.ClassApp); err != nil {
		t.Fatal(err)
	}
	if !env.nodes[2].IsOwner(1) {
		t.Fatal("N3 must own after chained write acquire")
	}
	if env.net.Stats().Get("dsm.forwards") == 0 {
		t.Fatal("request should have been forwarded along the chain")
	}
	// Li repointing: the intermediate N1 now points directly at N3.
	if env.nodes[0].OwnerPtrOf(1) != 2 {
		t.Fatalf("N1 ownerPtr = %v, want N3", env.nodes[0].OwnerPtrOf(1))
	}
	// And N3 has entering entries for both chain nodes.
	if e := env.nodes[2].EnteringOf(1); len(e) != 2 {
		t.Fatalf("entering at N3 = %v, want N1 and N2", e)
	}
}

func TestReadFromReadHolder(t *testing.T) {
	env := newFakeEnv(t, 3)
	env.newObj(1, 1, 0)
	env.nodes[1].Acquire(1, ModeRead, simnet.ClassApp)
	// N3 asks N2 (a read holder, not the owner) directly.
	env.nodes[2].Learn(1, 1, 1)
	if err := env.nodes[2].Acquire(1, ModeRead, simnet.ClassApp); err != nil {
		t.Fatal(err)
	}
	if env.nodes[2].ModeOf(1) != ModeRead {
		t.Fatal("read from read-holder failed")
	}
	if cs := copySetOf(env.nodes[1], 1); len(cs) != 1 || cs[0] != 2 {
		t.Fatalf("N2 copy-set = %v, want [N3]", cs)
	}
	// The owner's copy-set does not contain N3: copy-sets are distributed.
	if cs := copySetOf(env.nodes[0], 1); len(cs) != 1 || cs[0] != 1 {
		t.Fatalf("owner copy-set = %v, want [N2]", cs)
	}
}

func TestIntraSSPCreatedOnTransfer(t *testing.T) {
	env := newFakeEnv(t, 2)
	env.newObj(3, 1, 0)
	env.hooks[0].stubsFor[3] = true // old owner holds an inter-bunch stub for O3
	if err := env.nodes[1].Acquire(3, ModeWrite, simnet.ClassApp); err != nil {
		t.Fatal(err)
	}
	if len(env.hooks[0].intraMade) != 1 {
		t.Fatal("old owner must create the intra-bunch scion before granting")
	}
	if len(env.hooks[1].intraGot) != 1 {
		t.Fatal("new owner must create the intra-bunch stub")
	}
	got := env.hooks[1].intraGot[0]
	if got.OID != 3 || got.OldOwner != 0 {
		t.Fatalf("intra SSP = %+v", got)
	}
}

func TestNoIntraSSPWithoutStubs(t *testing.T) {
	env := newFakeEnv(t, 2)
	env.newObj(3, 1, 0)
	env.nodes[1].Acquire(3, ModeWrite, simnet.ClassApp)
	if len(env.hooks[0].intraMade) != 0 || len(env.hooks[1].intraGot) != 0 {
		t.Fatal("no intra-bunch SSP should be created when the old owner holds no stubs")
	}
}

func TestManifestsArriveBeforeAcquireCompletes(t *testing.T) {
	env := newFakeEnv(t, 2)
	env.newObj(1, 1, 0)
	env.newObj(2, 1, 0)
	env.refs[1] = []addr.OID{2} // O1 references O2
	if err := env.nodes[1].Acquire(1, ModeRead, simnet.ClassApp); err != nil {
		t.Fatal(err)
	}
	// Invariant 1: N2 must now hold valid addresses for O1 and O2.
	h := env.hooks[1]
	if h.addrs[1] != env.hooks[0].addrs[1] || h.addrs[2] != env.hooks[0].addrs[2] {
		t.Fatalf("addresses at N2 = %v, want both synced", h.addrs)
	}
}

func TestLocUpdateForwardedDownCopySet(t *testing.T) {
	env := newFakeEnv(t, 3)
	env.newObj(1, 1, 0)
	env.newObj(2, 1, 0)
	env.refs[1] = []addr.OID{2}
	// N2 reads from owner; N3 reads from N2 -> N3 is in N2's copy-set.
	env.nodes[1].Acquire(1, ModeRead, simnet.ClassApp)
	env.nodes[2].Learn(1, 1, 1)
	env.nodes[2].Acquire(1, ModeRead, simnet.ClassApp)

	// Owner moves O2 (simulating a BGC move) and N2 re-acquires O1.
	env.hooks[0].addrs[2] = 0x9999
	env.nodes[1].objs[1].Mode = ModeInvalid // force a real re-acquire
	before := len(env.hooks[2].applied)
	env.nodes[1].Acquire(1, ModeRead, simnet.ClassApp)
	env.net.Run(0) // deliver the async copy-set forwards

	// Invariant 2: N3, a copy-set member of N2, hears about the update.
	if len(env.hooks[2].applied) == before {
		t.Fatal("location update not forwarded down the copy-set")
	}
	if env.hooks[2].addrs[2] != 0x9999 {
		t.Fatalf("O2 address at N3 = %v, want 0x9999", env.hooks[2].addrs[2])
	}
}

func TestPiggybackDrainedOnAcquire(t *testing.T) {
	env := newFakeEnv(t, 2)
	env.newObj(1, 1, 0)
	// N2 has pending location updates destined for N1.
	env.hooks[1].pending[0] = []Manifest{{OID: 77, Addr: 0x7777, Bunch: 1}}
	if err := env.nodes[1].Acquire(1, ModeRead, simnet.ClassApp); err != nil {
		t.Fatal(err)
	}
	if env.hooks[0].addrs[77] != 0x7777 {
		t.Fatal("piggybacked manifest not applied at the grant server")
	}
	if len(env.hooks[1].pending[0]) != 0 {
		t.Fatal("pending queue not drained")
	}
	if env.net.Stats().Get("bytes.piggyback") == 0 {
		t.Fatal("piggyback bytes not accounted")
	}
}

func TestAcquireUnknownObjectFails(t *testing.T) {
	env := newFakeEnv(t, 2)
	env.bunch[9] = 1
	env.hint[9] = addr.NoNode
	if err := env.nodes[1].Acquire(9, ModeRead, simnet.ClassApp); err == nil {
		t.Fatal("expected routing error")
	}
}

func TestInvalidModeRejected(t *testing.T) {
	env := newFakeEnv(t, 1)
	if err := env.nodes[0].Acquire(1, ModeInvalid, simnet.ClassApp); err == nil {
		t.Fatal("expected error for invalid mode")
	}
}

func TestHopLimitOnCorruptChain(t *testing.T) {
	env := newFakeEnv(t, 2)
	env.newObj(1, 1, 0)
	// Corrupt the state to create an ownerPtr cycle N1 <-> N2.
	env.nodes[0].objs[1].Owner = false
	env.nodes[0].objs[1].Mode = ModeInvalid
	env.nodes[0].objs[1].OwnerPtr = 1
	env.nodes[1].Learn(1, 1, 0)
	if err := env.nodes[1].Acquire(1, ModeWrite, simnet.ClassApp); err == nil {
		t.Fatal("expected hop-limit error on cyclic chain")
	}
}

func TestGCClassAttribution(t *testing.T) {
	env := newFakeEnv(t, 2)
	env.newObj(1, 1, 0)
	env.nodes[1].Acquire(1, ModeWrite, simnet.ClassGC) // baseline collector behaviour
	st := env.net.Stats()
	if st.Get("dsm.acquire.w.gc") != 1 {
		t.Fatalf("gc write acquires = %d", st.Get("dsm.acquire.w.gc"))
	}
	if st.Get("dsm.acquire.w.app") != 0 {
		t.Fatal("app counter polluted")
	}
}

func TestReleaseIsLocal(t *testing.T) {
	env := newFakeEnv(t, 2)
	env.newObj(1, 1, 0)
	env.nodes[1].Acquire(1, ModeRead, simnet.ClassApp)
	msgs := env.net.Stats().Get("msg.sent.app")
	env.nodes[1].Release(1)
	if env.net.Stats().Get("msg.sent.app") != msgs {
		t.Fatal("release must not send messages under entry consistency")
	}
	if env.nodes[1].ModeOf(1) != ModeRead {
		t.Fatal("token must stay cached after release")
	}
}

func TestRemoveEnteringUpTo(t *testing.T) {
	env := newFakeEnv(t, 2)
	env.newObj(1, 1, 0)
	env.nodes[1].Acquire(1, ModeRead, simnet.ClassApp)
	n0 := env.nodes[0]
	// Entry was created at gen 1 (fake hooks); a table of gen 0 is too old.
	if n0.RemoveEnteringUpTo(1, 1, 0, nil) != 0 {
		t.Fatal("entry newer than table must be preserved")
	}
	if n0.RemoveEnteringUpTo(1, 1, 1, map[addr.OID]bool{1: true}) != 0 {
		t.Fatal("entry the table still names must be preserved")
	}
	if n0.RemoveEnteringUpTo(2, 1, 5, nil) != 0 {
		t.Fatal("another bunch's table should remove nothing")
	}
	if n0.RemoveEnteringUpTo(1, 1, 1, nil) != 1 {
		t.Fatal("entry at gen <= table gen must be removed")
	}
	if len(n0.EnteringOf(1)) != 0 {
		t.Fatal("entry still present")
	}
}

func TestNonOwnedLiveAndEnteringRoots(t *testing.T) {
	env := newFakeEnv(t, 2)
	env.newObj(1, 1, 0)
	env.newObj(2, 2, 0)
	env.nodes[1].Acquire(1, ModeRead, simnet.ClassApp)
	env.nodes[1].Acquire(2, ModeRead, simnet.ClassApp)
	nol := env.nodes[1].NonOwnedLive(1)
	if len(nol) != 1 || nol[1] != 0 {
		t.Fatalf("NonOwnedLive = %v", nol)
	}
	roots := env.nodes[0].EnteringRoots(1)
	if len(roots) != 1 || roots[0] != 1 {
		t.Fatalf("EnteringRoots = %v", roots)
	}
	var objs []addr.OID
	env.nodes[0].ForEachObjectInBunch(2, func(o addr.OID) { objs = append(objs, o) })
	if len(objs) != 1 || objs[0] != 2 {
		t.Fatalf("ForEachObjectInBunch(2) = %v", objs)
	}
}

func TestForgetAndKnows(t *testing.T) {
	env := newFakeEnv(t, 1)
	env.newObj(1, 1, 0)
	if !env.nodes[0].Knows(1) {
		t.Fatal("should know registered object")
	}
	env.nodes[0].Forget(1)
	if env.nodes[0].Knows(1) {
		t.Fatal("forget failed")
	}
	env.newObj(2, 1, 0)
	env.newObj(3, 2, 0)
	env.nodes[0].ForgetBunch(1)
	if env.nodes[0].Knows(2) || !env.nodes[0].Knows(3) {
		t.Fatal("ForgetBunch(1) must forget bunch 1's objects and only those")
	}
}

func TestModeString(t *testing.T) {
	if ModeInvalid.String() != "i" || ModeRead.String() != "r" || ModeWrite.String() != "w" {
		t.Fatal("mode letters must match the paper's figures")
	}
	if Mode(9).String() != "mode(9)" {
		t.Fatal("unknown mode string")
	}
}

// TestTokenConservationProperty drives random acquires on a small cluster
// and asserts the entry-consistency invariants after every operation:
// at most one owner per object, a write token excludes all other consistent
// copies, and acquires always succeed (chains never dangle).
func TestTokenConservationProperty(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		env := newFakeEnv(t, 4)
		env.newObj(1, 1, 0)
		env.newObj(2, 1, 1)
		rng := rand.New(rand.NewSource(seed))
		for step := 0; step < 200; step++ {
			node := env.nodes[addr.NodeID(rng.Intn(4))]
			o := addr.OID(1 + rng.Intn(2))
			mode := ModeRead
			if rng.Intn(2) == 0 {
				mode = ModeWrite
			}
			if err := node.Acquire(o, mode, simnet.ClassApp); err != nil {
				t.Fatalf("seed %d step %d: acquire %v %v at %v: %v",
					seed, step, o, mode, node.id, err)
			}
			env.net.Run(0)
			checkTokenInvariants(t, env, o, fmt.Sprintf("seed %d step %d", seed, step))
		}
	}
}

func checkTokenInvariants(t *testing.T, env *fakeEnv, o addr.OID, ctx string) {
	t.Helper()
	owners, writers, readers := 0, 0, 0
	for _, n := range env.nodes {
		st, ok := n.objs[o]
		if !ok {
			continue
		}
		if st.Owner {
			owners++
			if st.OwnerPtr != addr.NoNode && st.Mode == ModeWrite {
				t.Fatalf("%s: owner of %v has dangling ownerPtr", ctx, o)
			}
		}
		switch st.Mode {
		case ModeWrite:
			writers++
		case ModeRead:
			readers++
		}
	}
	if owners != 1 {
		t.Fatalf("%s: %v has %d owners, want exactly 1", ctx, o, owners)
	}
	if writers > 1 {
		t.Fatalf("%s: %v has %d write tokens", ctx, o, writers)
	}
	if writers == 1 && readers > 0 {
		t.Fatalf("%s: %v has a writer and %d readers", ctx, o, readers)
	}
}
