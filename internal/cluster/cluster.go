// Package cluster assembles the BMX platform: N simulated nodes, each with a
// heap (mapped segment replicas), an entry-consistency DSM engine, and a
// collector (BGC + scion cleaner + GGC), wired over a transport.Network
// (internal/simnet by default). It exposes the mutator interface of §2:
// allocate objects in bunches, acquire/release per-object tokens, read and
// write fields (every write passes the write barrier of §3.2), map bunches
// on additional nodes, and drive collections.
//
// Concurrency model (see DESIGN.md §5): every node has its own mutex, so
// operations on different nodes run in parallel. The two genuinely shared
// services — the core.Directory (with its segment allocator) and the
// network's queues, clock and stats — have their own fine-grained locks.
// The lock order is node → directory → network; a node's lock is never held
// across an outbound synchronous call (the per-node transport wrapper
// releases it), so a call from node A into node B's handler — or back into
// A's own handler — cannot deadlock. Driven from a single goroutine the
// locks are uncontended and behaviour is byte-for-byte the deterministic
// state machine it always was; RunConcurrent and goroutine-per-node
// mutators exploit the parallelism.
package cluster

import (
	"fmt"
	"strings"
	"sync"

	"bmx/internal/addr"
	"bmx/internal/core"
	"bmx/internal/dsm"
	"bmx/internal/mem"
	"bmx/internal/obs"
	"bmx/internal/obs/heat"
	"bmx/internal/rvm"
	"bmx/internal/simnet"
	"bmx/internal/store"
	"bmx/internal/transport"
)

// Config parametrizes a simulated cluster.
type Config struct {
	Nodes       int
	SegWords    int     // segment size in words (constant, §2.1); default 256
	Seed        int64   // RNG seed (loss injection)
	LossRate    float64 // drop probability for background GC messages
	SendLatency uint64  // simulated ticks per background delivery
	CallLatency uint64  // simulated ticks per synchronous leg
	Costs       core.Costs
	WithDisk    bool // give each node a persistent store + RVM log
	// Store is the per-node backend factory used when persistence is on
	// (WithDisk, or Store itself non-nil): called once per node. Nil
	// selects store.NewDisk — the deterministic map-backed mem backend,
	// byte-identical to the seed behaviour.
	Store func() store.Store
	// GroupCommit selects the RVM commit discipline: false (default)
	// forces the log on every transaction commit, exactly the seed's
	// behaviour; true defers durability to the collector's flip barrier —
	// one batched log force per collection.
	GroupCommit bool
	// Consistency selects the DSM protocol variant (the paper's entry
	// consistency by default; see dsm.Protocol). The collector is
	// identical under every variant.
	Consistency dsm.Protocol
	// SegmentGrainTokens switches the consistency granularity from one
	// token per object to one token per (allocation) segment: acquiring
	// any object acquires its whole segment's population, emulating
	// page-grain DSM false sharing (§10's granularity question). Segment
	// grain is supported by the deterministic single driver only.
	SegmentGrainTokens bool
	// Transport overrides the communication substrate. Nil means a
	// simnet.Network built from the Seed/LossRate/latency fields above —
	// the deterministic simulated cluster.
	Transport transport.Network
	// Faults is the initial fault-injection plan (drop/duplicate/delay
	// rates and node-pair partitions) installed on the transport. A zero
	// plan installs nothing, so existing configurations are unaffected.
	Faults transport.FaultPlan
}

func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 1
	}
	if c.SegWords == 0 {
		c.SegWords = 256
	}
	if c.Costs == (core.Costs{}) {
		c.Costs = core.DefaultCosts()
	}
	return c
}

// KindMapBunch fetches the segment images of a bunch from a node already
// holding a replica (application-level operation).
const KindMapBunch = "cl.mapBunch"

type mapBunchReq struct {
	Bunch addr.BunchID
	// Gen is the mapper's next table generation for the bunch; it stamps
	// the entering-ownerPtr entries the serving node records for the
	// adopted replica.
	Gen uint64
}

type mapBunchReply struct {
	Images []mem.SegImage
}

// objStripes is the size of the striped lock table serializing top-level
// token operations on the same object (see Cluster.lockObject).
const objStripes = 64

// Cluster is a simulated BMX deployment.
type Cluster struct {
	cfg   Config
	net   transport.Network
	dir   core.Dir
	nodes []*Node
	// objLocks serialize concurrent top-level token acquisitions of the
	// same object cluster-wide, making each acquire-chain atomic with
	// respect to other acquires of that object while chains for different
	// objects proceed in parallel. Protocol handlers never take these:
	// only mutator entry points do, before any node lock (lock order:
	// object-op → node → directory → network).
	objLocks [objStripes]sync.Mutex
	// sampler, when enabled, cuts a time-series point (counter deltas +
	// histogram summaries) after every Run drain. Set once before the
	// cluster starts running; the Sampler itself is internally locked.
	sampler *obs.Sampler
	// heat is the access-locality table riding the transport's observer,
	// cached here so mutator entry points attribute reads and writes with
	// one atomic load while it is disabled. Run closes one decay epoch per
	// drain — the same round boundary the sampler uses.
	heat *heat.Table
}

// Node is one site of the cluster: its heap, protocol engine, collector and
// (optionally) its disk.
type Node struct {
	cl  *Cluster
	id  addr.NodeID
	col *core.Collector
	dsm *dsm.Node
	// mu serializes this node's local state (heap, protocol engine,
	// collector tables). It is released around outbound synchronous calls
	// by tr, the node's transport wrapper, so remote handlers — including
	// this node's own — can always make progress.
	mu ownedMutex
	tr transport.Transport
	// rec is this node's flight recorder. Mutator entry points bracket
	// themselves with EnterCritical/ExitCritical so every event emitted
	// while an application operation is in flight — here or at a node
	// serving one of its synchronous calls — carries FlagCritical, which is
	// what the paper's "no extra messages on the critical path" probes key
	// on. Nil-safe and a no-op while tracing is disabled.
	rec *obs.Recorder

	disk store.Store
	log  *rvm.Log
	// openTx batches mutations between Sync calls when persistence is on.
	openTx *rvm.Tx
	// flipCrash arms a crash at the next collection's durability barrier
	// (see ArmFlipCrash in crash.go). Guarded by the node lock, like the
	// rest of the persistence state.
	flipCrash flipCrashArm
}

// New builds a cluster.
func New(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	net := cfg.Transport
	if net == nil {
		net = simnet.New(simnet.Options{
			Seed:        cfg.Seed,
			LossRate:    cfg.LossRate,
			SendLatency: cfg.SendLatency,
			CallLatency: cfg.CallLatency,
		})
	}
	if !cfg.Faults.Zero() {
		net.SetFaultPlan(cfg.Faults)
	}
	cl := &Cluster{cfg: cfg, net: net}
	cl.heat = heat.Of(net.Stats().Observer())
	cl.dir = core.NewDirectory(mem.NewAllocator(cfg.SegWords))
	for i := 0; i < cfg.Nodes; i++ {
		id := addr.NodeID(i)
		n := &Node{cl: cl, id: id}
		n.tr = &nodeTransport{n: n, inner: cl.net}
		n.rec = cl.net.Stats().Observer().Recorder(id)
		heap := mem.NewHeap(cl.dir.Allocator())
		col := core.NewCollector(id, heap, cl.dir, n.tr, cfg.Costs)
		d := dsm.NewNode(id, n.tr, col, cfg.Nodes)
		d.SetProtocol(cfg.Consistency)
		col.SetDSM(d)
		n.col, n.dsm = col, d
		if cfg.WithDisk || cfg.Store != nil {
			var base store.Store
			if cfg.Store != nil {
				base = cfg.Store()
			} else {
				base = store.NewDisk()
			}
			// Measure feeds store.* counters and histograms into the
			// cluster's obs pipeline (and thus /metrics and bmxstat).
			n.disk = store.Measure(base, cl.net.Stats(), cl.net.Stats().Observer())
			n.log = rvm.NewLog(n.disk, "rvm-log")
			n.log.SetCounter(cl.net.Stats().Add)
			n.log.SetGroupCommit(cfg.GroupCommit)
			col.SetDurabilityBarrier(n.flipBarrier)
		}
		cl.nodes = append(cl.nodes, n)
		cl.net.Register(id, n.handleAsync, n.handleCall)
	}
	return cl
}

// Node returns node i.
func (cl *Cluster) Node(i int) *Node { return cl.nodes[i] }

// Nodes returns the cluster size.
func (cl *Cluster) Nodes() int { return len(cl.nodes) }

// Stats returns the shared counter registry (internally locked; safe to
// read while the cluster runs).
func (cl *Cluster) Stats() *transport.Stats { return cl.net.Stats() }

// Observer returns the cluster's flight recorder (rides on Stats; one per
// transport, shared by every node).
func (cl *Cluster) Observer() *obs.Observer { return cl.net.Stats().Observer() }

// EnableTracing switches structured event recording on. Histograms always
// aggregate; the per-node event rings only record while tracing is enabled.
func (cl *Cluster) EnableTracing() { cl.Observer().Enable() }

// DisableTracing switches event recording off (the rings keep their
// contents until Reset).
func (cl *Cluster) DisableTracing() { cl.Observer().Disable() }

// TraceWindow snapshots the retained event window of every node, merged in
// emission order, and marks the cut with a KSnapshot event.
func (cl *Cluster) TraceWindow() []obs.Event {
	evs := cl.Observer().Events()
	if len(cl.nodes) > 0 {
		cl.nodes[0].rec.Emit(obs.Event{Kind: obs.KSnapshot, Class: obs.ClassNone})
	}
	return evs
}

// Clock returns the simulated clock (internally locked).
func (cl *Cluster) Clock() *transport.Clock { return cl.net.Clock() }

// EnableSampling attaches a time-series sampler reading the cluster's
// counters and histograms; thereafter every Run drain cuts one sample at
// the current simulated tick (and Sample can cut one explicitly). Capacity
// bounds the retained ring; <= 0 selects the default. Idempotent: a second
// call returns the existing sampler.
func (cl *Cluster) EnableSampling(capacity int) *obs.Sampler {
	if cl.sampler == nil {
		cl.sampler = obs.NewSampler(capacity, cl.Stats().Snapshot, cl.Observer())
	}
	return cl.sampler
}

// Sampler returns the attached time-series sampler, nil until
// EnableSampling.
func (cl *Cluster) Sampler() *obs.Sampler { return cl.sampler }

// EnableHeat switches access-locality accounting on: from here every read,
// write and acquire is attributed per (object, requesting node) in the heat
// table, and every Run drain closes one decay epoch.
func (cl *Cluster) EnableHeat() { cl.heat.Enable() }

// Heat returns the cluster's access-locality table (always non-nil; inert
// until EnableHeat).
func (cl *Cluster) Heat() *heat.Table { return cl.heat }

// Sample cuts one time-series point at the current simulated tick. No-op
// until EnableSampling.
func (cl *Cluster) Sample() {
	if cl.sampler != nil {
		cl.sampler.Sample(cl.Clock().Now())
	}
}

// Directory exposes the cluster metadata service (read-mostly; used by
// tools and experiments). In a multi-process peer it is a proxy for the
// seed's directory.
func (cl *Cluster) Directory() core.Dir { return cl.dir }

// SetLossRate changes the background-message drop probability. The rate is
// clamped to [0, 1] (NaN and negative values become 0) and the effective
// rate actually installed is returned.
func (cl *Cluster) SetLossRate(p float64) float64 { return cl.net.SetLossRate(p) }

// SetFaultPlan installs a fault-injection plan (drop/duplicate/delay rates
// and node-pair partitions) on the cluster's transport, replacing any
// previous plan.
func (cl *Cluster) SetFaultPlan(fp transport.FaultPlan) { cl.net.SetFaultPlan(fp) }

// Faults returns a copy of the transport's current fault plan.
func (cl *Cluster) Faults() transport.FaultPlan { return cl.net.Faults() }

// Partition cuts connectivity between nodes i and j: background sends
// between them are dropped (consuming their stream sequence numbers) and
// synchronous calls fail with an error wrapping transport.ErrPartitioned.
func (cl *Cluster) Partition(i, j int) {
	fp := cl.net.Faults()
	fp.Partition(addr.NodeID(i), addr.NodeID(j))
	cl.net.SetFaultPlan(fp)
}

// Heal restores connectivity between nodes i and j.
func (cl *Cluster) Heal(i, j int) {
	fp := cl.net.Faults()
	fp.Heal(addr.NodeID(i), addr.NodeID(j))
	cl.net.SetFaultPlan(fp)
}

// HealAll removes every declared partition, leaving rates untouched.
func (cl *Cluster) HealAll() {
	fp := cl.net.Faults()
	fp.HealAll()
	cl.net.SetFaultPlan(fp)
}

// Step delivers one pending background message; Run drains them all. The
// network's own lock orders concurrent deliveries; each handler runs under
// its node's lock.
func (cl *Cluster) Step() bool { return cl.net.Step() }

// Run delivers pending background messages until none remain (limit <= 0)
// or limit deliveries were made, returning the count. With sampling
// enabled, each drain ends by cutting one time-series sample — Run is the
// driver's round boundary, so the series gets one point per round.
func (cl *Cluster) Run(limit int) int {
	n := cl.net.Run(limit)
	cl.Sample()
	cl.heat.Advance()
	return n
}

// Pending reports undelivered background messages (internally locked).
func (cl *Cluster) Pending() int { return cl.net.Pending() }

// lockObject serializes top-level token operations on o cluster-wide and
// returns the unlock. Striped: unrelated objects may share a stripe, which
// over-serializes but never deadlocks (one stripe per operation, always
// taken before any node lock).
func (cl *Cluster) lockObject(o addr.OID) func() {
	m := &cl.objLocks[uint64(o)%objStripes]
	m.Lock()
	return m.Unlock
}

// ---- message routing --------------------------------------------------------

func (n *Node) handleAsync(m transport.Msg) {
	defer n.rec.StartServerSpan(obs.ServeOpOf(m.Kind), addr.NilOID, m.Span).End()
	defer n.lock()()
	switch {
	case strings.HasPrefix(m.Kind, "dsm."):
		n.dsm.HandleAsync(m)
	case strings.HasPrefix(m.Kind, "gc."):
		n.col.HandleAsync(m)
	}
}

func (n *Node) handleCall(m transport.Msg) (any, int, error) {
	if m.Class == transport.ClassApp {
		// Serving a synchronous application-class call: the remote mutator
		// is blocked on this reply, so everything this node does until it
		// returns — including any message it sends — is on that mutator's
		// critical path.
		n.rec.EnterCritical()
		defer n.rec.ExitCritical()
	}
	// The server span parents under the caller's wire-carried span, so the
	// trace tree shows this hop (and any forwarding hops it performs) nested
	// inside the remote mutator's operation.
	defer n.rec.StartServerSpan(obs.ServeOpOf(m.Kind), addr.NilOID, m.Span).End()
	defer n.lock()()
	switch {
	case strings.HasPrefix(m.Kind, "dsm."):
		return n.dsm.HandleCall(m)
	case strings.HasPrefix(m.Kind, "gc."):
		return n.col.HandleCall(m)
	case m.Kind == KindMapBunch:
		req := m.Payload.(mapBunchReq)
		rep := mapBunchReply{}
		bytes := 0
		heap := n.col.Heap()
		for _, meta := range n.cl.dir.Segments(req.Bunch) {
			s := heap.Seg(meta.ID)
			if s == nil {
				continue
			}
			img := s.Export()
			bytes += img.WireBytes()
			rep.Images = append(rep.Images, img)
			// The mapper's adopted replicas will carry ownerPtrs pointing
			// here: record the entering entries that make them collector
			// roots until the mapper's own tables say otherwise.
			for _, a := range s.Objects() {
				if !heap.Forwarded(a) {
					n.dsm.AddEntering(heap.ObjOID(a), m.From, req.Gen)
				}
			}
		}
		return rep, bytes, nil
	default:
		return nil, 0, fmt.Errorf("cluster: unknown call kind %q", m.Kind)
	}
}

// ---- node identity and state access ------------------------------------------

// ID returns the node identifier.
func (n *Node) ID() addr.NodeID { return n.id }

// Collector exposes the node's GC engine (experiments and tools need the
// stats-bearing internals; applications use the mutator API).
func (n *Node) Collector() *core.Collector { return n.col }

// DSM exposes the node's protocol engine.
func (n *Node) DSM() *dsm.Node { return n.dsm }

// Disk returns the node's simulated disk (nil without WithDisk).
func (n *Node) Disk() store.Store { return n.disk }

// lock takes this node's mutex and returns the unlock.
func (n *Node) lock() func() {
	n.mu.Lock()
	return n.mu.Unlock
}

// critical marks this node as being on the application's critical path for
// the duration of a mutator operation and returns the un-mark. Events the
// node emits in between — including at other layers, and on other nodes
// serving this operation's synchronous calls — carry FlagCritical. No-op
// overhead beyond two atomic adds; depth is tracked even while tracing is
// disabled so enabling mid-run is sound.
func (n *Node) critical() func() {
	n.rec.EnterCritical()
	return n.rec.ExitCritical
}

// ---- bunch management ---------------------------------------------------------

// NewBunch creates a bunch owned (created) at this node.
func (n *Node) NewBunch() addr.BunchID {
	defer n.lock()()
	b := n.cl.dir.NewBunch(n.id)
	n.col.Replica(b)
	return b
}

// MapBunch maps a replica of bunch b at this node, fetching the current
// segment images from a node already holding a replica. Mapped bunches are
// kept weakly consistent from then on (§2.1).
func (n *Node) MapBunch(b addr.BunchID) error {
	defer n.rec.StartSpan(obs.OpMapBunch, addr.NilOID).End()
	defer n.critical()()
	defer n.lock()()
	return n.mapBunchLocked(b)
}

func (n *Node) mapBunchLocked(b addr.BunchID) error {
	if n.cl.dir.HasReplica(b, n.id) && n.col.HasReplica(b) {
		return nil
	}
	src := addr.NoNode
	for _, r := range n.cl.dir.Replicas(b) {
		if r != n.id {
			src = r
			break
		}
	}
	n.col.Replica(b)
	if src == addr.NoNode {
		// First replica (freshly created bunch): nothing to fetch.
		n.cl.dir.AddReplica(b, n.id)
		return nil
	}
	raw, err := n.tr.Call(transport.Msg{
		From: n.id, To: src, Kind: KindMapBunch, Class: transport.ClassApp,
		Payload: mapBunchReq{Bunch: b, Gen: n.col.NextTableGen(b)}, Bytes: 16,
	})
	if err != nil {
		return fmt.Errorf("cluster: mapping %v from %v: %w", b, src, err)
	}
	rep := raw.(mapBunchReply)
	heap := n.col.Heap()
	for _, img := range rep.Images {
		if heap.Seg(img.ID) != nil {
			// Already mapped locally: a node that allocated into the bunch
			// (it created segments via moveOwnedObject without being a
			// replica holder) has canonical objects here the serving node
			// may not have heard of yet. Importing the remote image would
			// erase those headers and reset the bump pointer, so later
			// allocations alias live addresses. Keep the local replica —
			// weak consistency lets it lag, and invariant 1 repairs any
			// stale word at the next acquire.
			continue
		}
		meta := n.cl.dir.Allocator().Meta(img.ID)
		seg := heap.MapSegment(meta)
		seg.Import(img)
		// Adopt the image's objects: every non-forwarded header becomes
		// this node's canonical copy unless the object is already known.
		for _, a := range seg.Objects() {
			if heap.Forwarded(a) {
				continue
			}
			oid := heap.ObjOID(a)
			if _, known := heap.Canonical(oid); known {
				continue
			}
			heap.SetCanonical(oid, a)
			n.dsm.Learn(oid, b, src)
		}
	}
	n.cl.dir.AddReplica(b, n.id)
	n.cl.Stats().Add("cluster.bunchesMapped", 1)
	n.rec.Emit(obs.Event{Kind: obs.KMapBunch, Class: obs.ClassApp,
		From: src, To: n.id, A: int64(b), B: int64(len(rep.Images))})
	return nil
}

// UnmapBunch drops this node's replica of bunch b. The node must not own
// any live object of the bunch (transfer ownership first); mutator roots
// into the bunch must have been removed.
func (n *Node) UnmapBunch(b addr.BunchID) error {
	defer n.lock()()
	for _, o := range n.dsm.ObjectsInBunch(b) {
		if n.dsm.IsOwner(o) {
			return fmt.Errorf("cluster: %v still owns %v in %v", n.id, o, b)
		}
	}
	heap := n.col.Heap()
	for _, meta := range n.cl.dir.Segments(b) {
		for _, o := range heap.KnownObjects() {
			if a, ok := heap.Canonical(o); ok && meta.Contains(a) {
				heap.DropObject(o)
				n.dsm.Forget(o)
			}
		}
		heap.UnmapSegment(meta.ID)
	}
	n.cl.dir.RemoveReplica(b, n.id)
	return nil
}

// ---- collection driving -------------------------------------------------------

// CollectBunch runs the BGC on this node's replica of b (§4).
func (n *Node) CollectBunch(b addr.BunchID) core.CollectStats {
	defer n.rec.StartSpan(obs.OpGCBunch, addr.NilOID).End()
	defer n.lock()()
	return n.col.CollectBunch(b)
}

// CollectBunchOpts runs the BGC with options. The DuringTrace callback runs
// with the node's lock released so it can use the full mutator API, exactly
// like an application thread running concurrently with the collector.
func (n *Node) CollectBunchOpts(b addr.BunchID, opts core.CollectOpts) core.CollectStats {
	defer n.rec.StartSpan(obs.OpGCBunch, addr.NilOID).End()
	defer n.lock()()
	if f := opts.DuringTrace; f != nil {
		opts.DuringTrace = func() {
			n.mu.Unlock()
			defer n.mu.Lock()
			f()
		}
	}
	return n.col.CollectBunchOpts(b, opts)
}

// CollectBunches collects each of the given bunches with its own BGC, one
// after the other under one hold of the node lock — bunches are independent
// collection units (§2.2) — and merges the statistics. A nil list means
// every bunch mapped at this node when the lock is taken.
func (n *Node) CollectBunches(bunches []addr.BunchID) core.CollectStats {
	defer n.rec.StartSpan(obs.OpGCBunch, addr.NilOID).End()
	defer n.lock()()
	return n.col.CollectBunches(bunches)
}

// CollectGroup runs the GGC (§7) on the given group, or on every locally
// mapped bunch when group is nil (the locality heuristic).
func (n *Node) CollectGroup(group []addr.BunchID) core.CollectStats {
	defer n.rec.StartSpan(obs.OpGCGroup, addr.NilOID).End()
	defer n.lock()()
	return n.col.CollectGroup(group)
}

// ConnectedGroups partitions the locally mapped bunches into SSP-connected
// components (the improved grouping heuristic of §7's future work).
func (n *Node) ConnectedGroups() [][]addr.BunchID {
	defer n.lock()()
	return n.col.ConnectedGroups()
}

// CollectConnectedGroups runs one group collection per SSP-connected
// component.
func (n *Node) CollectConnectedGroups() core.CollectStats {
	defer n.rec.StartSpan(obs.OpGCGroup, addr.NilOID).End()
	defer n.lock()()
	return n.col.CollectConnectedGroups()
}

// ReclaimFromSpace runs the §4.5 from-space reuse protocol for bunch b.
func (n *Node) ReclaimFromSpace(b addr.BunchID) core.ReclaimStats {
	defer n.rec.StartSpan(obs.OpGCReclaim, addr.NilOID).End()
	defer n.lock()()
	return n.col.ReclaimFromSpace(b)
}

// FlushLocations pushes pending location updates as background messages.
func (n *Node) FlushLocations() {
	defer n.rec.StartSpan(obs.OpGCFlush, addr.NilOID).End()
	defer n.lock()()
	n.col.FlushLocations()
}
