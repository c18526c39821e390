package harness

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"bmx"
	"bmx/internal/simnet"
	"bmx/internal/store"
)

// ObjWords is the size of every benchmark object; the stream reads and
// writes word 0.
const ObjWords = 4

// Workload is one set of inputs. All four share the generator and the
// closed loop (one client goroutine, one op at a time, round-robin over the
// nodes); they differ in substrate, locality and background work.
type Workload struct {
	Name string
	Why  string // one line, the same as in BENCHMARK.json

	TCP        bool // 3 bmx.NewPeer over loopback sockets, else one simnet cluster
	Nodes      int
	PerNode    int     // objects each node allocates: its home set
	Affinity   float64 // probability an op targets the issuing node's home set
	WriteShare float64

	DrainEvery   int  // Cluster.Run(0) every this many ops (0: never)
	Persist      bool // per-node flatfs store on the real file system
	SyncEvery    int  // Node.Sync at the issuing node every this many ops
	CollectEvery int  // one node unroots, allocates, collects every this many ops
	Churn        int  // objects replaced before each collection
	// Drifts marks a workload whose background work grows with the op
	// count (at HEAD flatfs rewrites the whole, never truncated log at every
	// sync), so that its blocks take longer and longer and their times
	// cannot be compared: ops_per_s is then ops ÷ wall over the whole run.
	Drifts bool

	WarmupOps int // untimed ops before either loop, so token caches are warm
	TracedOps int // fixed op count of the traced run and of its untraced twin
}

// Workloads is the benchmark's workload table. The names are final: later
// issues cite them.
var Workloads = []Workload{
	{
		Name:  "local_hot",
		Why:   "affinity 1.0 on simnet: every op hits a cached token, zero messages; the cluster lock bracket is all of it",
		Nodes: 4, PerNode: 2500, Affinity: 1.0, WriteShare: 0.3,
		WarmupOps: 20000, TracedOps: 200000,
	},
	{
		Name:  "shared_sim",
		Why:   "affinity 0.8 on simnet: a fifth of ops leave the node, so dsm grants, invalidations and simnet calls dominate",
		Nodes: 4, PerNode: 2500, Affinity: 0.8, WriteShare: 0.3, DrainEvery: 2000,
		WarmupOps: 20000, TracedOps: 100000,
	},
	{
		Name: "shared_tcp",
		Why:  "affinity 0.5 over 3 loopback TCP peers: gob payloads, frames and socket round trips dominate a remote op",
		TCP:  true, Nodes: 3, PerNode: 1000, Affinity: 0.5, WriteShare: 0.3,
		WarmupOps: 2000, TracedOps: 10000,
	},
	{
		Name:  "gc_persist",
		Why:   "affinity 0.8 on simnet beside flatfs logs, syncs and bunch collections: core, rvm and store do most of the work",
		Nodes: 4, PerNode: 2500, Affinity: 0.8, WriteShare: 0.5,
		Persist: true, SyncEvery: 100, CollectEvery: 500, Churn: 50, Drifts: true,
		WarmupOps: 2000, TracedOps: 20000,
	},
}

// Lookup finds a workload by name; an unknown name is an error, never a
// silent skip.
func Lookup(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// Env is one built instance of a workload: the cluster (or the mesh of
// peers), the populated object slots, the generated stream and the shadow
// model. Close releases everything it holds.
type Env struct {
	W      Workload
	Stream *Stream
	Shadow *Shadow
	cur    cursor

	cl    *bmx.Cluster // simnet workloads
	peers []*bmx.Peer  // shared_tcp, indexed by node ID
	nodes []*bmx.Node
	bunch bmx.BunchID
	slots []bmx.Ref // slot → the object now living there

	net      *TracedNet  // traced simnet runs only
	stores   *StoreProbe // traced persistent runs only
	disks    []store.Store
	storeDir string
}

// Setup builds workload w: cluster or mesh, one shared bunch mapped
// everywhere, PerNode rooted objects allocated at each node, the op stream
// and the shadow model. With traced set, the simnet cluster gets the
// transport decorator and a persistent one the store decorator. tmpRoot is
// where a persistent workload puts its store directories.
func Setup(w Workload, seed int64, traced bool, tmpRoot string) (*Env, error) {
	env := &Env{W: w}
	fail := func(err error) (*Env, error) {
		env.Close()
		return nil, err
	}
	var err error
	if w.TCP {
		if env.peers, err = StartMesh(w.Nodes, seed); err != nil {
			return fail(err)
		}
		for _, p := range env.peers {
			env.nodes = append(env.nodes, p.Node())
		}
	} else {
		cfg := bmx.Config{Nodes: w.Nodes, Seed: seed}
		if traced {
			env.net = NewTracedNet(simnet.New(simnet.Options{Seed: seed}))
			cfg.Transport = env.net
		}
		if w.Persist {
			if env.storeDir, err = os.MkdirTemp(tmpRoot, "store-"); err != nil {
				return fail(err)
			}
			if traced {
				env.stores = &StoreProbe{}
			}
			cfg.Store = func() store.Store {
				var s store.Store = store.NewFlatFS(filepath.Join(env.storeDir, fmt.Sprintf("node%d", len(env.disks))))
				env.disks = append(env.disks, s)
				if traced {
					s = env.stores.Wrap(s)
				}
				return s
			}
		}
		env.cl = bmx.New(cfg)
		for i := 0; i < w.Nodes; i++ {
			env.nodes = append(env.nodes, env.cl.Node(i))
		}
	}
	env.bunch = env.nodes[0].NewBunch()
	for _, n := range env.nodes[1:] {
		if err := n.MapBunch(env.bunch); err != nil {
			return fail(fmt.Errorf("%s: map bunch at %v: %w", w.Name, n.ID(), err))
		}
	}
	env.slots = make([]bmx.Ref, w.Nodes*w.PerNode)
	for i := range env.slots {
		if env.slots[i], err = env.allocRooted(i / w.PerNode); err != nil {
			return fail(err)
		}
	}
	env.Drain()
	env.Stream = Generate(seed, w, StreamLen)
	env.Shadow = NewShadow(w.Nodes, w.PerNode)
	return env, nil
}

func (e *Env) allocRooted(node int) (bmx.Ref, error) {
	n := e.nodes[node]
	r, err := n.Alloc(e.bunch, ObjWords)
	if err != nil {
		return bmx.Nil, fmt.Errorf("%s: alloc at node %d: %w", e.W.Name, node, err)
	}
	n.AddRoot(r)
	return r, nil
}

// reserveLoopback picks n free loopback addresses the way
// internal/cluster/peer_test.go does: bind ephemeral ports, note them,
// release them. The fixed ports of the Makefile's cluster are never used.
func reserveLoopback(n int) ([]string, error) {
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve loopback port: %w", err)
		}
		listeners[i], addrs[i] = l, l.Addr().String()
	}
	for _, l := range listeners {
		l.Close()
	}
	return addrs, nil
}

// StartMesh brings up n peers over loopback TCP in this process, indexed by
// node ID, and waits until every one can route to every other. A reserved
// port may be taken by someone else between its release and the peer's own
// bind, so a failed start is tried again with fresh ports.
func StartMesh(n int, seed int64) (peers []*bmx.Peer, err error) {
	for attempt := 0; attempt < 3; attempt++ {
		if peers, err = startMesh(n, seed); err == nil {
			return peers, nil
		}
	}
	return nil, err
}

func startMesh(n int, seed int64) ([]*bmx.Peer, error) {
	addrs, err := reserveLoopback(n)
	if err != nil {
		return nil, err
	}
	peers := make([]*bmx.Peer, n)
	fail := func(err error) ([]*bmx.Peer, error) {
		closePeers(peers)
		return nil, err
	}
	for i, a := range addrs {
		var others []string
		for j, b := range addrs {
			if j != i {
				others = append(others, b)
			}
		}
		p, err := bmx.NewPeer(bmx.PeerConfig{Listen: a, Peers: others, Seed: seed + int64(i)})
		if err != nil {
			return fail(fmt.Errorf("start peer %s: %w", a, err))
		}
		// A peer's node ID is its address's rank, not its start order.
		peers[p.ID()] = p
	}
	for _, p := range peers {
		if err := p.WaitReady(30 * time.Second); err != nil {
			return fail(err)
		}
	}
	return peers, nil
}

func closePeers(peers []*bmx.Peer) {
	for _, p := range peers {
		if p != nil {
			p.Close()
		}
	}
}

// EnableTracing switches the program's own flight recorder on and
// EnableHeat its access-locality table (simnet workloads).
func (e *Env) EnableTracing() { e.cl.EnableTracing() }
func (e *Env) EnableHeat()    { e.cl.EnableHeat() }

// Drain delivers pending background messages (a no-op over TCP, which
// delivers continuously) and returns how many it delivered.
func (e *Env) Drain() int {
	if e.cl == nil {
		return 0
	}
	return e.cl.Run(0)
}

// Counters returns the counter registry's snapshot, summed over the peers
// on TCP, where every process-alike has its own.
func (e *Env) Counters() map[string]int64 {
	if e.cl != nil {
		return e.cl.Stats().Snapshot()
	}
	sum := make(map[string]int64)
	for _, p := range e.peers {
		for k, v := range p.Cluster().Stats().Snapshot() {
			sum[k] += v
		}
	}
	return sum
}

// Hops returns the sum and count of the dsm.acquire.hops histogram: the
// forwarding hops of every remote acquire so far.
func (e *Env) Hops() (sum, count int64) {
	if e.cl != nil {
		h := e.cl.Observer().Hist("dsm.acquire.hops").Snapshot()
		return h.Sum, h.Count
	}
	for _, p := range e.peers {
		h := p.Cluster().Observer().Hist("dsm.acquire.hops").Snapshot()
		sum, count = sum+h.Sum, count+h.Count
	}
	return sum, count
}

// CollectorAcquires is the paper's §5 probe: tokens the collector acquired
// plus invalidations it caused, per counter registry (one per peer on TCP).
// Every entry must be 0.
func (e *Env) CollectorAcquires() int64 {
	c := e.Counters()
	return c["dsm.acquire.r.gc"] + c["dsm.acquire.w.gc"] + c["dsm.invalidation.gc"]
}

// Close shuts every peer and removes the store directories.
func (e *Env) Close() {
	closePeers(e.peers)
	if e.storeDir != "" {
		os.RemoveAll(e.storeDir)
	}
}
