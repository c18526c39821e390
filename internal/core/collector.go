package core

import (
	"fmt"
	"slices"

	"bmx/internal/addr"
	"bmx/internal/dsm"
	"bmx/internal/mem"
	"bmx/internal/obs"
	"bmx/internal/ssp"
	"bmx/internal/transport"
)

// Costs is the simulated-time cost model charged to the cluster clock by
// collector work, making pause and overhead measurements reproducible.
type Costs struct {
	RootTick     uint64 // per root snapshot entry (flip pause 1)
	ScanWordTick uint64 // per word scanned
	CopyWordTick uint64 // per word copied
	LogTick      uint64 // per mutation-log entry replayed (flip pause 2)
}

// DefaultCosts is a plausible relative cost model: copying a word costs
// twice a scan touch.
func DefaultCosts() Costs {
	return Costs{RootTick: 1, ScanWordTick: 1, CopyWordTick: 2, LogTick: 2}
}

// Replica is one node's GC state for one mapped bunch: the stub/scion
// table, the table generation counter and the local allocation segments.
type Replica struct {
	Bunch addr.BunchID
	Table *ssp.Table
	// Gen counts this node's reachability tables for the bunch; scions
	// and entering entries created on this node's behalf are stamped with
	// Gen+1 (the first table that will account for them).
	Gen uint64

	allocSeg *mem.Segment // current local allocation target (to-space)
	// ownSegs are the segments this node created for the bunch; only the
	// creator allocates into a segment, so only the creator may schedule
	// it for reuse.
	ownSegs []addr.SegID
	// fromSegs are locally created segments superseded by the last
	// collection, eligible for the §4.5 reuse protocol.
	fromSegs []addr.SegID
	gcActive bool
	writeLog map[addr.OID]bool
}

func newReplica(b addr.BunchID) *Replica {
	return &Replica{
		Bunch:    b,
		Table:    ssp.NewTable(b),
		writeLog: make(map[addr.OID]bool),
	}
}

// Collector is one node's garbage-collection engine. It implements
// dsm.Hooks, which is the only direction of coupling with the consistency
// protocol: the protocol calls out to the collector to carry piggybacked GC
// information; the collector never acquires, releases, or invalidates a
// token.
//
// The collector has no lock of its own: every method runs under its node's
// lock (cluster.Node), which owns all node-local state — replicas, roots,
// pending location updates and the heap. Lock order (outermost first):
// cluster object-op lock → node lock → shared services (directory and
// allocator, transport stats, observer, network), each internally locked.
type Collector struct {
	node  addr.NodeID
	heap  *mem.Heap
	dir   Dir
	net   transport.Transport
	costs Costs
	dsm   *dsm.Node

	reps        map[addr.BunchID]*Replica
	mappedCache []addr.BunchID // sorted keys of reps; nil until next asked for

	roots   map[addr.OID]int    // mutator root handles (stack refs), with counts
	recvGen map[tableKey]uint64 // scion cleaner: highest table gen per (sender, bunch)
	// replicateSSPs switches invariant 3 to the A1 ablation: replicate
	// inter-bunch SSPs on ownership transfer instead of creating
	// intra-bunch SSPs (§3.2 discusses and rejects this alternative).
	replicateSSPs bool

	// pending holds location updates queued per peer, awaiting a
	// consistency message to ride on, or a background flush (§4.4).
	pending map[addr.NodeID]map[addr.OID]dsm.Manifest
	// locEpoch is the relocation epoch this node has applied (or, at the
	// owner, produced) for each object; see dsm.Manifest.Epoch.
	locEpoch map[addr.OID]uint64

	// Flight-recorder plumbing, cached from the transport's observer.
	rec        *obs.Recorder
	copyHist   *obs.Histogram // words moved per evacuated object
	scanHist   *obs.Histogram // objects scanned per collection
	phaseHists map[string]*obs.Histogram

	// durBarrier, when set, is the node's durability barrier: collect()
	// invokes it at the end of the flip, after reclaim and table rebuild,
	// with what the flip changed. The persistence layer logs the copied
	// headers and the deaths and forces the RVM log with one group-commit
	// sync — the "single batched log force per flip" of §8 / O'Toole et al.
	durBarrier func(FlipLog)
}

// FlipLog describes what one collection flip changed, for the durability
// barrier: which owned objects were copied into to-space and which objects
// were reclaimed as dead. Both slices are in deterministic (sorted-trace)
// order.
type FlipLog struct {
	Bunches []addr.BunchID
	Copied  []addr.OID
	Dead    []addr.OID
}

// gcPhases names the per-phase simulated-tick histograms a collection feeds.
var gcPhases = []string{"roots", "trace", "copy", "fixup", "flip", "reclaim", "tables"}

// NewCollector creates node's collector. SetDSM must be called before any
// collection or hook activity.
func NewCollector(node addr.NodeID, heap *mem.Heap, dir Dir, net transport.Transport, costs Costs) *Collector {
	o := net.Stats().Observer()
	phases := make(map[string]*obs.Histogram, len(gcPhases))
	for _, p := range gcPhases {
		phases[p] = o.Hist("gc.phase." + p + ".ticks")
	}
	return &Collector{
		node:       node,
		heap:       heap,
		dir:        dir,
		net:        net,
		costs:      costs,
		reps:       make(map[addr.BunchID]*Replica),
		roots:      make(map[addr.OID]int),
		recvGen:    make(map[tableKey]uint64),
		pending:    make(map[addr.NodeID]map[addr.OID]dsm.Manifest),
		locEpoch:   make(map[addr.OID]uint64),
		rec:        o.Recorder(node),
		copyHist:   o.Hist("gc.copy.words"),
		scanHist:   o.Hist("gc.scan.objects"),
		phaseHists: phases,
	}
}

// SetDSM wires the protocol engine (constructed after the collector, since
// the engine needs the collector as its Hooks).
func (c *Collector) SetDSM(d *dsm.Node) { c.dsm = d }

// SetDurabilityBarrier installs the flip durability hook. Install it at
// node construction, before any collection runs; the hook is called from
// inside a collection, under the node lock, so it must not re-enter the
// collector or take the node lock.
func (c *Collector) SetDurabilityBarrier(f func(FlipLog)) { c.durBarrier = f }

// SetReplicateInterSSPs enables the A1 ablation: on ownership transfer,
// replicate inter-bunch SSPs at the new owner instead of creating an
// intra-bunch SSP. Enable it on every node of a cluster before any
// ownership moves.
func (c *Collector) SetReplicateInterSSPs(on bool) { c.replicateSSPs = on }

// Node returns the collector's node id.
func (c *Collector) Node() addr.NodeID { return c.node }

// Heap returns the node's heap.
func (c *Collector) Heap() *mem.Heap { return c.heap }

// DSM returns the node's protocol engine.
func (c *Collector) DSM() *dsm.Node { return c.dsm }

func (c *Collector) stats() *transport.Stats { return c.net.Stats() }

// Replica returns the GC state for bunch b, creating it on first use.
func (c *Collector) Replica(b addr.BunchID) *Replica {
	if rep, ok := c.reps[b]; ok {
		return rep
	}
	rep := newReplica(b)
	c.reps[b] = rep
	c.mappedCache = nil
	return rep
}

// CrashBunch discards this node's volatile collector state for bunch b
// after a simulated process crash. The cached allocation segment must go:
// its *mem.Segment replica was orphaned when the crash unmapped the bunch,
// so an allocation through the stale pointer would write a header the heap
// can never see again — the object would be unreadable, uncopyable and
// invisible to the redo log from birth. Queued-but-unsent location
// manifests go too: a dead process's outgoing buffers die with it, and the
// ones produced by a flip that never reached its durability barrier name
// to-space addresses that recovery just rewound.
func (c *Collector) CrashBunch(b addr.BunchID) {
	rep := c.Replica(b)
	rep.allocSeg = nil
	rep.gcActive = false
	rep.writeLog = make(map[addr.OID]bool)
	for nd, q := range c.pending {
		for o, man := range q {
			if man.Bunch == b {
				delete(q, o)
			}
		}
		if len(q) == 0 {
			delete(c.pending, nd)
		}
	}
}

// HasReplica reports whether this node tracks bunch b.
func (c *Collector) HasReplica(b addr.BunchID) bool {
	_, ok := c.reps[b]
	return ok
}

// MappedBunches returns the bunches with a local replica, sorted — the
// locality-based group of §7. The slice is cached until the next replica is
// created; callers must not mutate it.
func (c *Collector) MappedBunches() []addr.BunchID {
	if c.mappedCache == nil {
		out := make([]addr.BunchID, 0, len(c.reps))
		for b := range c.reps {
			out = append(out, b)
		}
		slices.Sort(out)
		c.mappedCache = out
	}
	return c.mappedCache
}

// ---- Roots -----------------------------------------------------------------

// AddRoot registers a mutator stack reference to o. Roots are counted so
// that nested handles release correctly.
func (c *Collector) AddRoot(o addr.OID) { c.roots[o]++ }

// RemoveRoot drops one mutator stack reference to o.
func (c *Collector) RemoveRoot(o addr.OID) {
	if c.roots[o] <= 1 {
		delete(c.roots, o)
	} else {
		c.roots[o]--
	}
}

// RootOIDs returns the current mutator roots, sorted.
func (c *Collector) RootOIDs() []addr.OID {
	out := make([]addr.OID, 0, len(c.roots))
	for o := range c.roots {
		out = append(out, o)
	}
	slices.Sort(out)
	return out
}

// IsRoot reports whether o is currently a mutator root on this node.
func (c *Collector) IsRoot(o addr.OID) bool { return c.roots[o] > 0 }

// ---- Allocation -------------------------------------------------------------

// Alloc allocates a fresh object of size data words in bunch b on this node,
// registering it with the directory and granting this node its write token.
// The segment is extended when full (bunches exist precisely because "a
// single segment is not flexible enough to support situations like segment
// overflow", §2.1).
func (c *Collector) Alloc(b addr.BunchID, size int) (addr.OID, error) {
	max := c.dir.Allocator().SegWords() - mem.HeaderWords
	if size < 0 || size > max {
		return addr.NilOID, fmt.Errorf("core: object of %d words exceeds segment capacity %d", size, max)
	}
	rep := c.Replica(b)
	if rep.allocSeg == nil || rep.allocSeg.FreeWords() < mem.HeaderWords+size {
		rep.allocSeg = c.newAllocSeg(b)
	}
	oid := c.dir.NewOID()
	a, ok := c.heap.Alloc(rep.allocSeg, oid, size)
	if !ok {
		return addr.NilOID, fmt.Errorf("core: allocation of %d words failed in fresh segment", size)
	}
	c.dir.RegisterObject(ObjInfo{OID: oid, Bunch: b, Size: size, AllocNode: c.node, AllocAddr: a})
	c.dir.SetOwnerHint(oid, c.node)
	c.dsm.RegisterNew(oid, b)
	c.stats().Add("core.alloc.objects", 1)
	c.stats().Add("core.alloc.words", int64(size+mem.HeaderWords))
	return oid, nil
}

// CanonicalAddr returns this node's canonical address for o.
func (c *Collector) CanonicalAddr(o addr.OID) (addr.Addr, bool) {
	return c.heap.Canonical(o)
}

// OIDAt identifies the object a reference value denotes: through local
// forwarding pointers and headers first, then through the tombstone index
// of freed from-space segments.
func (c *Collector) OIDAt(a addr.Addr) addr.OID {
	if a.IsNil() {
		return addr.NilOID
	}
	r := c.heap.Resolve(a)
	if c.heap.Mapped(r) && c.heap.IsObjectAt(r) {
		return c.heap.ObjOID(r)
	}
	if o, ok := c.dir.PlacementOID(r); ok {
		return o
	}
	if o, ok := c.dir.PlacementOID(a); ok {
		return o
	}
	return addr.NilOID
}

// ResolveRef returns the current local address of whatever reference value
// a denotes, healing stale words through the tombstone index, and the
// object's identity. A nil OID means the value is dangling garbage.
func (c *Collector) ResolveRef(a addr.Addr) (addr.Addr, addr.OID) {
	r := c.heap.Resolve(a)
	if c.heap.Mapped(r) && c.heap.IsObjectAt(r) {
		return r, c.heap.ObjOID(r)
	}
	o := c.OIDAt(a)
	if o.IsNil() {
		return r, addr.NilOID
	}
	if can, ok := c.heap.Canonical(o); ok {
		can = c.heap.Resolve(can)
		if c.heap.Mapped(can) && c.heap.IsObjectAt(can) {
			return can, o
		}
	}
	// The identity is known (placement ledger) even though this node holds
	// no replica: the reference is valid, the data just lives elsewhere —
	// the caller's next acquire will fetch it.
	return r, o
}

// rememberTombstones records the identities of a freed segment's objects in
// the cluster directory (the address-recycling ledger).
func (c *Collector) rememberTombstones(hs []SegHeader) {
	for _, h := range hs {
		c.dir.RecordPlacement(h.Old, h.OID)
	}
}

// ---- Write barrier (§3.2) ---------------------------------------------------

// WriteBarrier runs after every reference store (the paper instruments every
// application write, §3.2/§8). If the store created an inter-bunch
// reference, the corresponding SSP is constructed immediately: locally when
// the target bunch is mapped here, otherwise through a scion-message to a
// node mapping the target bunch. An error means the SSP could NOT be
// installed (every candidate scion host was unreachable): the caller must
// not complete the store, or the reference would be unprotected.
func (c *Collector) WriteBarrier(src, target addr.OID) error {
	c.stats().Add("core.barrier.writes", 1)
	if target.IsNil() {
		return nil
	}
	sb, tb := c.dir.BunchOf(src), c.dir.BunchOf(target)
	if sb == tb || tb == addr.NoBunch {
		return nil
	}
	if err := c.ensureInterSSP(src, sb, target, tb); err != nil {
		return err
	}
	c.stats().Add("core.barrier.interBunch", 1)
	return nil
}

// ensureInterSSP constructs the inter-bunch SSP for a reference from src
// (in bunch sb) to target (in bunch tb), unless it already exists: the stub
// locally, the scion either locally (target bunch mapped here) or at a node
// mapping the target bunch via an acknowledged scion-message (§3.2). Any
// replica holder can host the scion, so if the preferred host is
// unreachable the remaining holders are tried in turn; only when every
// candidate fails is the error surfaced (and no stub recorded — the barrier
// refuses the store rather than leave the reference unprotected).
func (c *Collector) ensureInterSSP(src addr.OID, sb addr.BunchID, target addr.OID, tb addr.BunchID) error {
	rep := c.Replica(sb)
	stub := ssp.InterStub{
		SrcOID: src, SrcBunch: sb, TargetOID: target, TargetBunch: tb,
	}
	if _, exists := rep.Table.InterStubs[stub.Key()]; exists {
		return nil // one SSP per (source, target) pair suffices (§3.1)
	}
	scion := ssp.InterScion{
		TargetOID: target, TargetBunch: tb, SrcOID: src, SrcBunch: sb,
		SrcNode: c.node, CreatedGen: rep.Gen + 1,
	}
	if c.dir.HasReplica(tb, c.node) {
		// Both bunches mapped locally: create both halves in place.
		stub.ScionNode = c.node
		c.Replica(tb).Table.AddInterScion(scion)
		rep.Table.AddInterStub(stub)
		return nil
	}
	// Send a scion-message to a node where the target bunch is mapped
	// (§3.2). This is one of the few genuine GC messages; it is
	// acknowledged so the reference is never unprotected.
	hosts := c.scionHosts(tb)
	if len(hosts) == 0 {
		return fmt.Errorf("core: bunch %v has no replica to host a scion", tb)
	}
	msg := ssp.ScionMsg{Scion: scion}
	var lastErr error
	for _, dst := range hosts {
		if _, err := c.net.Call(transport.Msg{
			From: c.node, To: dst, Kind: KindScion, Class: transport.ClassGC,
			Payload: msg, Bytes: msg.WireBytes(),
		}); err != nil {
			c.stats().Add("core.scionMsgs.failed", 1)
			lastErr = err
			continue
		}
		stub.ScionNode = dst
		rep.Table.AddInterStub(stub)
		c.stats().Add("core.scionMsgs", 1)
		return nil
	}
	return fmt.Errorf("core: scion-message for %v -> %v failed at every replica of %v: %w",
		src, target, tb, lastErr)
}

// scionHosts lists the candidate nodes for hosting a scion for references
// into bunch tb, in preference order: the bunch's creator first (if it
// still holds a replica), then the remaining replica holders ascending.
// Every holder has the bunch's table, so any of them is a correct host —
// the order only biases scions toward the creator.
func (c *Collector) scionHosts(tb addr.BunchID) []addr.NodeID {
	var hosts []addr.NodeID
	creator := c.dir.Creator(tb)
	if c.dir.HasReplica(tb, creator) {
		hosts = append(hosts, creator)
	}
	for _, r := range c.dir.Replicas(tb) {
		if r != creator {
			hosts = append(hosts, r)
		}
	}
	return hosts
}

// NoteWrite records a mutation for the concurrent collector's log (O'Toole:
// writes during the collection are replayed at the flip).
func (c *Collector) NoteWrite(o addr.OID) {
	if rep, ok := c.reps[c.dir.BunchOf(o)]; ok && rep.gcActive {
		rep.writeLog[o] = true
	}
}

// ---- Pending location updates (§4.4) ---------------------------------------

// queueLocation records that o now lives at newAddr, to be told to every
// other node holding a replica of the bunch — lazily, by piggybacking.
func (c *Collector) queueLocation(o addr.OID, b addr.BunchID, newAddr addr.Addr, size int) {
	man := dsm.Manifest{OID: o, Addr: newAddr, Size: size, Bunch: b, Epoch: c.locEpoch[o]}
	for _, peer := range c.dir.Holders(b) {
		if peer == c.node {
			continue
		}
		q, ok := c.pending[peer]
		if !ok {
			q = make(map[addr.OID]dsm.Manifest)
			c.pending[peer] = q
		}
		q[o] = man // newer location supersedes older pending one
	}
}

// LocationEpoch returns the relocation epoch this node has applied (or, at
// the owner, produced) for o.
func (c *Collector) LocationEpoch(o addr.OID) uint64 { return c.locEpoch[o] }

// PendingLocationCount returns the number of queued (peer, object) location
// updates awaiting piggyback or flush.
func (c *Collector) PendingLocationCount() int {
	n := 0
	for _, q := range c.pending {
		n += len(q)
	}
	return n
}

// FlushLocations pushes all queued location updates as explicit background
// GC messages instead of waiting for consistency traffic to carry them.
// Used by the from-space reuse protocol and by the eager-update ablation.
func (c *Collector) FlushLocations() {
	for _, peer := range sortedNodeKeys(c.pending) {
		q := c.pending[peer]
		if len(q) == 0 {
			continue
		}
		delete(c.pending, peer)
		ms := manifestList(q)
		bytes := 0
		for _, m := range ms {
			bytes += m.WireBytes()
		}
		c.net.Send(transport.Msg{
			From: c.node, To: peer, Kind: KindLocFlush, Class: transport.ClassGC,
			Payload: LocFlushMsg{From: c.node, Manifests: ms}, Bytes: bytes,
		})
		c.stats().Add("core.locFlush.msgs", 1)
	}
}

func sortedNodeKeys(m map[addr.NodeID]map[addr.OID]dsm.Manifest) []addr.NodeID {
	out := make([]addr.NodeID, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

func manifestList(q map[addr.OID]dsm.Manifest) []dsm.Manifest {
	out := make([]dsm.Manifest, 0, len(q))
	for _, m := range q {
		out = append(out, m)
	}
	slices.SortFunc(out, func(a, b dsm.Manifest) int {
		switch {
		case a.OID < b.OID:
			return -1
		case a.OID > b.OID:
			return 1
		default:
			return 0
		}
	})
	return out
}
