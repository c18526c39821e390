package cluster

import (
	"errors"
	"maps"
	"net"
	"strings"
	"testing"
	"time"

	"bmx/internal/transport"
)

// reserveAddrs grabs n distinct loopback addresses by binding ephemeral
// listeners and releasing them. The window between release and the peer's
// own bind is racy in principle; in practice the kernel does not reissue an
// ephemeral port that fast, and the multi-process protocol needs the
// address set agreed before any process starts.
func reserveAddrs(t *testing.T, n int) []string {
	t.Helper()
	var ls []net.Listener
	var addrs []string
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ls = append(ls, l)
		addrs = append(addrs, l.Addr().String())
	}
	for _, l := range ls {
		l.Close()
	}
	return addrs
}

// startPeers builds one Peer per address (all in this process, each with
// its own TCP transport — the same wiring bmxd uses across processes) and
// waits for the mesh.
func startPeers(t *testing.T, addrs []string) []*Peer {
	t.Helper()
	return startPeersSeg(t, addrs, 0)
}

// startPeersSeg is startPeers with segments of segWords words (0: the
// default).
func startPeersSeg(t *testing.T, addrs []string, segWords int) []*Peer {
	t.Helper()
	peers := make([]*Peer, len(addrs))
	// The seed closes last, as bmxd shuts it down last: a delivery still
	// draining at a follower may call the seed's directory, and only a
	// follower's own Close lets that call fail quietly.
	t.Cleanup(func() {
		for _, seedPass := range []bool{false, true} {
			for _, p := range peers {
				if p != nil && p.IsSeed() == seedPass {
					p.Close()
				}
			}
		}
	})
	for i, a := range addrs {
		var others []string
		for j, b := range addrs {
			if j != i {
				others = append(others, b)
			}
		}
		p, err := NewPeer(PeerConfig{Listen: a, Peers: others, Seed: int64(i), SegWords: segWords})
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = p
	}
	for _, p := range peers {
		if err := p.WaitReady(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	return peers
}

func seedOf(t *testing.T, peers []*Peer) *Peer {
	t.Helper()
	for _, p := range peers {
		if p.IsSeed() {
			return p
		}
	}
	t.Fatal("no seed among peers")
	return nil
}

// Three single-node clusters over real sockets behave like the simulated
// three-node cluster: the seed allocates a shared structure, the others map
// the bunch through the directory proxy, write tokens migrate between
// processes, every replica runs its bunch collector, and the paper's §5
// probe (zero collector-initiated acquires) holds in every process.
func TestPeerClusterSharedMutationAndGC(t *testing.T) {
	peers := startPeers(t, reserveAddrs(t, 3))
	seed := seedOf(t, peers)
	sn := seed.Node()

	b := sn.NewBunch()
	var objs []Ref
	for i := 0; i < 8; i++ {
		o := sn.MustAlloc(b, 4)
		sn.AddRoot(o)
		objs = append(objs, o)
		if err := sn.AcquireWrite(o); err != nil {
			t.Fatal(err)
		}
		if err := sn.WriteWord(o, 1, uint64(100+i)); err != nil {
			t.Fatal(err)
		}
		sn.Release(o)
	}

	// Every other process maps the bunch via the remote directory and takes
	// write tokens away from the seed.
	round := uint64(0)
	for _, p := range peers {
		if p.IsSeed() {
			continue
		}
		if err := p.Node().MapBunch(b); err != nil {
			t.Fatalf("peer %v map: %v", p.ID(), err)
		}
		round++
		for i, o := range objs {
			if err := p.Node().AcquireWrite(o); err != nil {
				t.Fatalf("peer %v acquire %v: %v", p.ID(), o, err)
			}
			if err := p.Node().WriteWord(o, 1, 1000*round+uint64(i)); err != nil {
				t.Fatal(err)
			}
			p.Node().Release(o)
		}
	}

	// Collections at every replica, then location flushes.
	for _, p := range peers {
		p.Node().CollectBunch(b)
		p.Node().FlushLocations()
	}

	// The seed re-acquires and must observe the last writer's values.
	for i, o := range objs {
		if err := sn.AcquireRead(o); err != nil {
			t.Fatalf("seed re-acquire %v: %v", o, err)
		}
		v, err := sn.ReadWord(o, 1)
		if err != nil {
			t.Fatal(err)
		}
		if want := 1000*round + uint64(i); v != want {
			t.Fatalf("object %v: read %d, want %d", o, v, want)
		}
		sn.Release(o)
	}

	// §5, per process: the collector acquired no token and caused no
	// invalidation anywhere in the cluster.
	for _, p := range peers {
		st := p.Cluster().Stats()
		if n := st.Get("dsm.acquire.r.gc") + st.Get("dsm.acquire.w.gc"); n != 0 {
			t.Errorf("peer %v: collector acquired %d tokens", p.ID(), n)
		}
		if n := st.Get("dsm.invalidation.gc"); n != 0 {
			t.Errorf("peer %v: collector caused %d invalidations", p.ID(), n)
		}
	}
}

// TestPeerWideGrant is TestWideGrant over real sockets: the image's
// two mask words survive the acquireReply codec.
func TestPeerWideGrant(t *testing.T) {
	peers := startPeers(t, reserveAddrs(t, 2))
	seed := seedOf(t, peers)
	for _, p := range peers {
		if p != seed {
			checkWideGrant(t, seed.Node(), p.Node())
		}
	}
}

// The driver-control channel: a ctl call round-trips to a registered
// handler and an unregistered peer reports a clean error.
func TestPeerControlChannel(t *testing.T) {
	peers := startPeers(t, reserveAddrs(t, 2))
	seed := seedOf(t, peers)
	var other *Peer
	for _, p := range peers {
		if !p.IsSeed() {
			other = p
		}
	}
	other.SetControl(func(m transport.Msg) (any, int, error) {
		if m.Kind != "ctl.ping" {
			t.Errorf("unexpected ctl kind %q", m.Kind)
		}
		return m.Payload.(int) + 1, 8, nil
	})
	raw, err := seed.Control(other.ID(), "ctl.ping", 41, 8)
	if err != nil {
		t.Fatal(err)
	}
	if raw.(int) != 42 {
		t.Fatalf("ctl reply = %v, want 42", raw)
	}
	if _, err := other.Control(seed.ID(), "ctl.ping", 1, 8); err == nil {
		t.Fatal("ctl call to handlerless seed should fail")
	}
}

// A closed follower may still have a delivery draining — a gc.locFlush
// whose manifest names a segment it never saw — and resolving that segment
// through the directory's mirror allocator calls the seed over a transport
// that is gone. That must come back empty, not panic the process: the
// transport reports transport.ErrClosed and the directory proxy gives up
// quietly, while every other call failure still panics.
func TestClosedPeerResolvesUnseenSegmentToNil(t *testing.T) {
	peers := startPeers(t, reserveAddrs(t, 2))
	seed := seedOf(t, peers)
	var follower *Peer
	for _, p := range peers {
		if !p.IsSeed() {
			follower = p
		}
	}
	meta := seed.cl.dir.AddSegment(seed.Node().NewBunch())
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	if got := follower.cl.dir.Allocator().Lookup(meta.Base); got != nil {
		t.Fatalf("closed follower resolved segment %v to %+v, want nil", meta.ID, got)
	}
	if _, err := follower.Control(seed.ID(), "ctl.ping", 1, 8); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("call after Close: err = %v, want transport.ErrClosed", err)
	}
}

// dirTraffic sums, over every peer, the msg.sent.kind.dir.* counters: each
// directory message a process sent, and each reply its calls received.
func dirTraffic(peers []*Peer) map[string]int64 {
	out := make(map[string]int64)
	for _, p := range peers {
		for k, v := range p.Cluster().Stats().Snapshot() {
			if strings.HasPrefix(k, "msg.sent.kind.dir.") {
				out[k] += v
			}
		}
	}
	return out
}

func sumCounter(peers []*Peer, name string) int64 {
	var n int64
	for _, p := range peers {
		n += p.Cluster().Stats().Get(name)
	}
	return n
}

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// Once every follower has protocol state for every object, remote acquires
// between followers make no synchronous directory call: an object's bunch
// is local state (Collector.BunchOf), and the owner hint a write grant
// leaves behind goes to the seed one-way. Only first contact, in the
// warm-up, asks the seed anything.
func TestPeerSteadyStateAcquiresCallNoDirectory(t *testing.T) {
	peers := startPeers(t, reserveAddrs(t, 3))
	seed := seedOf(t, peers)
	b := seed.Node().NewBunch()
	var followers []*Node
	for _, p := range peers {
		if !p.IsSeed() {
			if err := p.Node().MapBunch(b); err != nil {
				t.Fatal(err)
			}
			followers = append(followers, p.Node())
		}
	}
	// Three objects homed on each process: nine, an odd count, so the load
	// below hands each object's write token back and forth between the two
	// followers and every acquire in it is remote.
	var objs []Ref
	for _, p := range peers {
		for i := 0; i < 3; i++ {
			o := p.Node().MustAlloc(b, 2)
			p.Node().AddRoot(o)
			objs = append(objs, o)
		}
	}
	for _, f := range followers {
		for _, o := range objs {
			if err := f.AcquireRead(o); err != nil {
				t.Fatal(err)
			}
			f.Release(o)
		}
	}

	before := dirTraffic(peers)
	grantsBefore := sumCounter(peers, "dsm.grant.write")
	for i := 0; i < 100; i++ {
		o := objs[i%len(objs)]
		w, r := followers[i%2], followers[1-i%2]
		if err := w.AcquireWrite(o); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteWord(o, 0, uint64(i)); err != nil {
			t.Fatal(err)
		}
		w.Release(o)
		if err := r.AcquireRead(o); err != nil {
			t.Fatal(err)
		}
		if v, err := r.ReadWord(o, 0); err != nil || v != uint64(i) {
			t.Fatalf("step %d: %v read %d (%v), want %d", i, o, v, err, i)
		}
		r.Release(o)
	}
	grants := sumCounter(peers, "dsm.grant.write") - grantsBefore

	const hint = "msg.sent.kind.dir.setOwnerHint"
	after := dirTraffic(peers)
	for k, v := range after {
		if d := v - before[k]; d != 0 && k != hint {
			t.Errorf("%s: %d in steady state, want 0 (only the one-way owner hint may reach the seed)", k, d)
		}
	}
	if grants == 0 {
		t.Fatal("the load granted no write token")
	}
	if d := after[hint] - before[hint]; d > grants {
		t.Errorf("%d owner hints sent for %d write grants, want at most one each", d, grants)
	}
}

// The seed serves a one-way owner hint before taking its node lock, so the
// hint lands while another goroutine holds that lock; a dir message that
// reaches a follower, which has no directory to apply it to, is counted
// and dropped.
func TestSeedAppliesOwnerHintWhileNodeLockHeld(t *testing.T) {
	peers := startPeers(t, reserveAddrs(t, 2))
	seed, follower := seedOf(t, peers), peers[0]
	if follower == seed {
		follower = peers[1]
	}
	o := seed.Node().MustAlloc(seed.Node().NewBunch(), 1)
	func() {
		seed.Node().mu.Lock()
		defer seed.Node().mu.Unlock()
		follower.cl.dir.SetOwnerHint(o.OID, follower.ID())
		waitFor(t, "the seed to apply the hint", func() bool {
			_, h := seed.cl.dir.Locate(o.OID)
			return h == follower.ID()
		})
	}()

	seed.tr.Send(transport.Msg{From: seed.ID(), To: follower.ID(), Kind: "dir.setOwnerHint",
		Class: transport.ClassApp, Payload: dirReq{O: o.OID, Node: seed.ID()}, Bytes: 32})
	waitFor(t, "the follower to drop the misrouted hint", func() bool {
		return follower.Cluster().Stats().Get("cluster.dir.misrouted") == 1
	})
}

// A hint sent after the peer closed is lost quietly: it neither panics nor
// waits for a seed it can no longer reach.
func TestClosedPeerOwnerHintIsNoOp(t *testing.T) {
	peers := startPeers(t, reserveAddrs(t, 2))
	seed, follower := seedOf(t, peers), peers[0]
	if follower == seed {
		follower = peers[1]
	}
	o := seed.Node().MustAlloc(seed.Node().NewBunch(), 1)
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		follower.cl.dir.SetOwnerHint(o.OID, follower.ID())
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("SetOwnerHint on a closed peer blocked")
	}
	if _, h := seed.cl.dir.Locate(o.OID); h != seed.ID() {
		t.Fatalf("hint = %v after a send from a closed peer, want the allocation site %v", h, seed.ID())
	}
}

// A follower's collection of a bunch it created makes a fixed number of
// directory calls, however many objects it copies: a copied object's new
// address is the follower's own business (its headers and the manifests
// it ships), not the seed's.
func TestPeerCollectionCopiesWithoutDirectoryCalls(t *testing.T) {
	small, large := collectionDirCalls(t, 60), collectionDirCalls(t, 120)
	if !maps.Equal(small, large) {
		t.Errorf("directory calls of one collection: %v copying 60 objects, %v copying 120; want the same", small, large)
	}
}

// collectionDirCalls starts three peers, has a follower root n objects in a
// bunch of its own and collect it, and returns the synchronous directory
// calls the collection sent, by kind. Segments hold 1024 words, so the
// bunch and its to-space take one segment each at either size.
func collectionDirCalls(t *testing.T, n int) map[string]int64 {
	t.Helper()
	peers := startPeersSeg(t, reserveAddrs(t, 3), 1024)
	f := peers[0]
	if f.IsSeed() {
		f = peers[1]
	}
	b := f.Node().NewBunch()
	for i := 0; i < n; i++ {
		f.Node().AddRoot(f.Node().MustAlloc(b, 1))
	}
	before := dirTraffic(peers)
	if st := f.Node().CollectBunch(b); st.Copied != n {
		t.Fatalf("collection copied %d objects, want %d", st.Copied, n)
	}
	calls := make(map[string]int64)
	for k, v := range dirTraffic(peers) {
		if d := v - before[k]; d != 0 && !strings.HasSuffix(k, ".reply") {
			calls[k] = d
		}
	}
	return calls
}
