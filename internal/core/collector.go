package core

import (
	"cmp"
	"fmt"
	"slices"

	"bmx/internal/addr"
	"bmx/internal/dsm"
	"bmx/internal/mem"
	"bmx/internal/obs"
	"bmx/internal/ssp"
	"bmx/internal/transport"
)

// The simulated-time cost model charged to the cluster clock by collector
// work, making pause and overhead measurements reproducible. It is a
// plausible relative model: copying a word costs twice a scan touch.
const (
	rootTick     = 1 // per root snapshot entry (flip pause 1)
	scanWordTick = 1 // per word scanned
	copyWordTick = 2 // per word copied
	logTick      = 2 // per mutation-log entry replayed (flip pause 2)
)

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
	// relog holds what the collector changed in place in the bunch's
	// settled segments (Collector.settled) since its last flip here:
	// pointer words it rewrote and objects whose granted image it
	// installed. A kept object is never copied, so never logged whole
	// again; the next flip logs the changes in the segments it keeps
	// (relogFor). Each entry is held once, so the set stays within the
	// size of those segments however long the bunch goes uncollected.
	relog map[relogEntry]bool
	// copiedWords is what the last collection of the bunch copied at this
	// node, headers included: the §4.5 reuse trigger's yardstick.
	copiedWords int
	gcActive    bool
	writeLog    map[addr.OID]bool
}

// relogEntry is one in-place change awaiting the flip's log: the word at a,
// or, when o is set, the whole object o with its header at a.
type relogEntry struct {
	a addr.Addr
	o addr.OID
}

// gcScratch is the per-collection scratch of this node's collections: each
// collection truncates and refills it, so a steady-state collection does
// not rebuild its root lists, work stack, maps and record lists from nil.
// Collections at a node run one at a time, under the node lock.
type gcScratch struct {
	strongRoots, weakRoots, plainStrong, auxRoots []addr.OID
	// scionRootsBySrc and deadByManager keep their keys across
	// collections; a node with nothing this time has an empty list.
	scionRootsBySrc map[addr.NodeID][]addr.OID
	deadByManager   map[addr.NodeID][]addr.OID
	work            []addr.OID
	oldSegs         map[addr.SegID]bool
	set             map[addr.BunchID]bool // the collected bunches
	// unrecorded marks the objects the trace found live that have no
	// record here (markOf); aux is the derivative re-trace's own marks.
	unrecorded map[addr.OID]int
	aux        map[addr.OID]int
	derivative map[addr.OID]bool
	dead       []addr.OID
	liveOrder  []*dsm.Record
	copied     []*dsm.Record
}

func newGCScratch() gcScratch {
	return gcScratch{
		scionRootsBySrc: make(map[addr.NodeID][]addr.OID),
		deadByManager:   make(map[addr.NodeID][]addr.OID),
		oldSegs:         make(map[addr.SegID]bool),
		set:             make(map[addr.BunchID]bool),
		unrecorded:      make(map[addr.OID]int),
		aux:             make(map[addr.OID]int),
		derivative:      make(map[addr.OID]bool),
	}
}

func (s *gcScratch) reset() {
	s.strongRoots = s.strongRoots[:0]
	s.weakRoots = s.weakRoots[:0]
	s.plainStrong = s.plainStrong[:0]
	for x, l := range s.scionRootsBySrc {
		s.scionRootsBySrc[x] = l[:0]
	}
	for x, l := range s.deadByManager {
		s.deadByManager[x] = l[:0]
	}
	clear(s.oldSegs)
	clear(s.set)
	clear(s.unrecorded)
	clear(s.derivative)
	s.dead = s.dead[:0]
	// A shorter list must not keep the last one's records from the Go
	// collector past its length.
	clear(s.liveOrder)
	clear(s.copied)
	s.liveOrder, s.copied = s.liveOrder[:0], s.copied[:0]
}

func newReplica(b addr.BunchID) *Replica {
	return &Replica{
		Bunch:    b,
		Table:    ssp.NewTable(b),
		writeLog: make(map[addr.OID]bool),
		relog:    make(map[relogEntry]bool),
	}
}

// Collector is one node's garbage-collection engine. It implements
// dsm.Hooks, which is the only direction of coupling with the consistency
// protocol: the protocol calls out to the collector to carry piggybacked GC
// information; the collector never acquires, releases, or invalidates a
// token.
//
// The collector has no lock of its own: every method runs under its node's
// lock (cluster.Node), which owns all node-local state — replicas, pending
// location updates, the heap and the protocol engine's object records
// (which carry each object's canonical address and mutator roots). Lock
// order (outermost first): cluster object-op lock → node lock → shared
// services (directory and allocator, transport stats, observer, network),
// each internally locked.
type Collector struct {
	node addr.NodeID
	heap *mem.Heap
	dir  Dir
	net  transport.Transport
	dsm  *dsm.Node

	reps        map[addr.BunchID]*Replica
	mappedCache []addr.BunchID // sorted keys of reps; nil until next asked for

	recvGen map[tableKey]uint64 // scion cleaner: highest table gen per (sender, bunch)
	// replicateSSPs switches invariant 3 to the A1 ablation: replicate
	// inter-bunch SSPs on ownership transfer instead of creating
	// intra-bunch SSPs (§3.2 discusses and rejects this alternative).
	replicateSSPs bool

	// pending holds location updates queued per peer, awaiting a
	// consistency message to ride on, or a background flush (§4.4).
	pending map[addr.NodeID]map[addr.OID]dsm.Manifest

	// Flight-recorder plumbing, cached from the transport's observer.
	rec         *obs.Recorder
	copyHist    *obs.Histogram // words moved per evacuated object
	scanHist    *obs.Histogram // objects scanned per collection
	segLiveHist *obs.Histogram // live percent of each own segment per collection
	phaseHists  map[string]*obs.Histogram

	// segLive counts, per segment, the live words the running collection's
	// trace found with their header there (indexed by SegID). scratch is
	// the rest of a collection's reused buffers.
	segLive []int
	scratch gcScratch
	// markEpoch is the running (or last) collection's mark epoch: a
	// record whose mark carries it was marked by that collection.
	markEpoch uint32
	// settled holds the segments this node created that already existed
	// when it last collected their bunch: the only ones a collection may
	// keep in place (keepDense). The allocation segment current at that
	// collection's end is left out while it has room, since objects may
	// still arrive in it unlogged (a §4.5 evacuation, a copy-out,
	// Reestablish). A segment leaves the set when it joins from-space, so
	// from keepDense to the flip a collected bunch's settled segments are
	// exactly the kept ones.
	settled map[addr.SegID]bool

	// durBarrier, when set, is the node's durability barrier: collect()
	// invokes it at the end of the flip, after reclaim and table rebuild,
	// with what the flip changed. The persistence layer logs the copied
	// headers and the deaths and commits them as one RVM transaction — the
	// "single batched log force per flip" of §8 / O'Toole et al.
	durBarrier func(FlipLog)
}

// FlipLog describes what one collection flip changed, for the durability
// barrier: which owned objects were copied into to-space and which objects
// were reclaimed as dead. Both slices are in deterministic (sorted-trace)
// order; Copied holds the copied objects' records, so the barrier reads
// their to-space addresses without a lookup.
//
// Objects in a segment the flip kept in place are not copied, so their
// durable state is their segment image plus earlier log records. What the
// collector changed in them since it last logged them rides the flip too:
// Installed holds kept owned objects whose image a grant installed (logged
// whole, like Copied), Rewritten the pointer words it rewrote in kept
// segments (logged one word each).
type FlipLog struct {
	Bunches   []addr.BunchID
	Copied    []*dsm.Record
	Dead      []addr.OID
	Installed []*dsm.Record
	Rewritten []addr.Addr
}

// gcPhases names the per-phase simulated-tick histograms a collection feeds.
var gcPhases = []string{"roots", "trace", "copy", "fixup", "flip", "reclaim", "tables"}

// NewCollector creates node's collector. SetDSM must be called before any
// collection or hook activity.
func NewCollector(node addr.NodeID, heap *mem.Heap, dir Dir, net transport.Transport) *Collector {
	o := net.Stats().Observer()
	phases := make(map[string]*obs.Histogram, len(gcPhases))
	for _, p := range gcPhases {
		phases[p] = o.Hist("gc.phase." + p + ".ticks")
	}
	return &Collector{
		node:        node,
		heap:        heap,
		dir:         dir,
		net:         net,
		reps:        make(map[addr.BunchID]*Replica),
		recvGen:     make(map[tableKey]uint64),
		pending:     make(map[addr.NodeID]map[addr.OID]dsm.Manifest),
		rec:         o.Recorder(node),
		copyHist:    o.Hist("gc.copy.words"),
		scanHist:    o.Hist("gc.scan.objects"),
		segLiveHist: o.Hist("core.bgc.segLiveFrac"),
		phaseHists:  phases,
		scratch:     newGCScratch(),
		settled:     make(map[addr.SegID]bool),
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

// Heap returns the node's heap.
func (c *Collector) Heap() *mem.Heap { return c.heap }

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
	clear(rep.relog)
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
	// The allocation record is also the object's first owner hint
	// (Directory.Locate falls back to AllocNode), so none is set here.
	c.dir.RegisterObject(ObjInfo{OID: oid, Bunch: b, Size: size, AllocNode: c.node, AllocAddr: a})
	c.dsm.RegisterNew(oid, b)
	c.dsm.SetCanonical(oid, b, a)
	c.stats().Add("core.alloc.objects", 1)
	c.stats().Add("core.alloc.words", int64(size+mem.HeaderWords))
	return oid, nil
}

// ResolveRef is the one resolver of a pointer word w: which object it names
// here, and where that object lives here now. The chain (DESIGN.md §10):
// the local header under w, through forwarding pointers; failing that, the
// identity the message in hand brought for w (inHand: a grant's manifests
// or a §4.5 round's header table, nil for none); then the object's
// canonical address, if that heads the object, else the header found. It
// returns NilAddr with the identity when the object has no address here,
// and NilOID when nothing identifies w. A §4.5 round goes on where the
// chain stops: an owner lookup, then refusal (rewriteRefsInto). A reader
// that needs only the identity stays on the first link, Heap.OIDAt.
func (c *Collector) ResolveRef(w addr.Addr, inHand func(addr.Addr) addr.OID) (addr.Addr, addr.OID) {
	r := c.heap.Resolve(w)
	o := c.heap.OIDAt(r)
	if o.IsNil() && inHand != nil {
		o, r = inHand(w), addr.NilAddr
	}
	if o.IsNil() {
		return addr.NilAddr, addr.NilOID
	}
	if can, ok := c.dsm.Canonical(o); ok {
		if can = c.heap.Resolve(can); c.heap.IsObjectAt(can) && c.heap.ObjOID(can) == o {
			return can, o
		}
	}
	return r, o
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
	sb, tb := c.BunchOf(src), c.BunchOf(target)
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

// NoteWrite records a mutation of o, in bunch b, for the concurrent
// collector's log (O'Toole: writes during the collection are replayed at
// the flip).
func (c *Collector) NoteWrite(b addr.BunchID, o addr.OID) {
	if rep, ok := c.reps[b]; ok && rep.gcActive {
		rep.writeLog[o] = true
	}
}

// ---- Pending location updates (§4.4) ---------------------------------------

// queueLocation records man, an object's new location, to be told to peers
// lazily, by piggybacking (§4.4). A move tells its copy-set and entering
// ownerPtrs (dsm.Node.ReplicaNodes); grants carry it onward (invariants 1
// and 2), and a §4.5 round asks the owner for the rest (rewriteRefsInto).
// Reestablish, which rebuilds lost protocol state, tells every holder.
func (c *Collector) queueLocation(man dsm.Manifest, peers []addr.NodeID) {
	for _, peer := range peers {
		if peer == c.node {
			continue
		}
		q, ok := c.pending[peer]
		if !ok {
			q = make(map[addr.OID]dsm.Manifest)
			c.pending[peer] = q
		}
		q[man.OID] = man // newer location supersedes older pending one
	}
}

// FlushLocations pushes all queued location updates as explicit background
// GC messages instead of waiting for consistency traffic to carry them.
// Callers: bmxd's peer driver, experiments E3 and A2. A §4.5 round sends a
// peer's queued updates inside its gc.addrChange instead (takePending).
func (c *Collector) FlushLocations() {
	for _, peer := range sortedNodeIDs(c.pending) {
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

func manifestList(q map[addr.OID]dsm.Manifest) []dsm.Manifest {
	out := make([]dsm.Manifest, 0, len(q))
	for _, m := range q {
		out = append(out, m)
	}
	slices.SortFunc(out, func(a, b dsm.Manifest) int { return cmp.Compare(a.OID, b.OID) })
	return out
}
