package core

import (
	"fmt"
	"slices"

	"bmx/internal/addr"
	"bmx/internal/dsm"
	"bmx/internal/mem"
	"bmx/internal/ssp"
	"bmx/internal/transport"
)

// GC message kinds. The cluster routes "gc.*" messages to the collector.
const (
	// KindScion creates the scion matching a freshly created inter-bunch
	// stub at a node mapping the target bunch (§3.2). Synchronous so the
	// new reference is never unprotected.
	KindScion = "gc.scion"
	// KindTable carries a BGC's rebuilt reachability snapshot to the scion
	// cleaner of another node (§4.3, §6.1). Asynchronous, idempotent,
	// loss-tolerant.
	KindTable = "gc.table"
	// KindLocFlush pushes queued location updates in the background
	// instead of waiting for consistency traffic (§4.4 tradeoff).
	KindLocFlush = "gc.locFlush"
	// KindCopyOut asks an object's owner to copy it out of a from-space
	// segment about to be reused (§4.5).
	KindCopyOut = "gc.copyOut"
	// KindAddrChange informs a replica holder of the address changes in the
	// batch of from-space segments being reclaimed, and asks it to evacuate
	// its own objects and unmap its replicas of the batch (§4.5).
	KindAddrChange = "gc.addrChange"
	// KindDeadNotice tells an object's allocation site (the routing
	// anchor) that the owner reclaimed the object, so the forwarding stub
	// can be dropped. Best effort: a lost notice leaks one tiny stub.
	KindDeadNotice = "gc.deadNotice"
)

// LocFlushMsg is the payload of KindLocFlush.
type LocFlushMsg struct {
	From      addr.NodeID
	Manifests []dsm.Manifest
}

// DeadNoticeMsg is the payload of KindDeadNotice.
type DeadNoticeMsg struct {
	From addr.NodeID
	OIDs []addr.OID
}

// CopyOutReq is the payload of KindCopyOut.
type CopyOutReq struct {
	From addr.NodeID
	OIDs []addr.OID
}

// CopyOutReply reports the new locations of the objects the callee owned and
// copied, and routing hints for those it did not own.
type CopyOutReply struct {
	Manifests []dsm.Manifest
	NotOwned  map[addr.OID]addr.NodeID
}

// AddrChangeMsg is the payload of KindAddrChange.
type AddrChangeMsg struct {
	From  addr.NodeID
	Bunch addr.BunchID
	// Segs is the batch of doomed segments one round frees.
	Segs      []addr.SegID
	Manifests []dsm.Manifest
	// Headers names every object whose header lies in a doomed segment, by
	// old address. Only a segment's creator allocates into it, so the
	// initiator knows them all; receivers use the table to rewrite words
	// they could not resolve through local state.
	Headers []SegHeader
}

// SegHeader is one (old address, identity) pair of a doomed segment.
type SegHeader struct {
	Old addr.Addr
	OID addr.OID
}

// HandleCall serves synchronous GC requests routed from the network.
func (c *Collector) HandleCall(m transport.Msg) (any, int, error) {
	switch m.Kind {
	case KindScion:
		msg := m.Payload.(ssp.ScionMsg)
		c.installScion(msg.Scion)
		return nil, 8, nil
	case KindCopyOut:
		req := m.Payload.(CopyOutReq)
		rep := c.serveCopyOut(req)
		bytes := 8
		for _, mf := range rep.Manifests {
			bytes += mf.WireBytes()
		}
		return rep, bytes, nil
	case KindAddrChange:
		msg := m.Payload.(AddrChangeMsg)
		c.serveAddrChange(msg)
		return nil, 8, nil
	default:
		return nil, 0, fmt.Errorf("core: unknown call kind %q", m.Kind)
	}
}

// HandleAsync consumes background GC messages.
func (c *Collector) HandleAsync(m transport.Msg) {
	switch m.Kind {
	case KindTable:
		c.ApplyTable(m.Payload.(ssp.TableMsg))
	case KindLocFlush:
		msg := m.Payload.(LocFlushMsg)
		c.ApplyManifests(msg.Manifests, msg.From)
	case KindDeadNotice:
		msg := m.Payload.(DeadNoticeMsg)
		for _, o := range msg.OIDs {
			if c.dsm.IsRoutingOnly(o) {
				c.dsm.Forget(o)
				c.heap.DropObject(o)
				c.stats().Add("core.gc.routingStubsDropped", 1)
			}
		}
	}
}

// sendDeadNotices tells each manager which of its objects the owner just
// reclaimed.
func (c *Collector) sendDeadNotices(byManager map[addr.NodeID][]addr.OID) {
	for _, mgr := range sortedNodeIDs(byManager) {
		oids := byManager[mgr]
		slices.Sort(oids)
		c.net.Send(transport.Msg{
			From: c.node, To: mgr, Kind: KindDeadNotice, Class: transport.ClassGC,
			Payload: DeadNoticeMsg{From: c.node, OIDs: oids},
			Bytes:   8 + 8*len(oids),
		})
		c.stats().Add("core.deadNotices", 1)
	}
}

func sortedNodeIDs(m map[addr.NodeID][]addr.OID) []addr.NodeID {
	out := make([]addr.NodeID, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// installScion records an inter-bunch scion in the target bunch's table.
func (c *Collector) installScion(s ssp.InterScion) {
	c.Replica(s.TargetBunch).Table.AddInterScion(s)
	c.stats().Add("core.scions.installed", 1)
}

// serveCopyOut copies the requested objects this node owns out of their
// current location into this node's allocation space, exactly as a bunch
// collection would, and reports their new addresses (§4.5).
func (c *Collector) serveCopyOut(req CopyOutReq) CopyOutReply {
	rep := CopyOutReply{NotOwned: make(map[addr.OID]addr.NodeID)}
	for _, o := range req.OIDs {
		if !c.dsm.IsOwner(o) {
			rep.NotOwned[o] = c.dsm.OwnerPtrOf(o)
			continue
		}
		if man, ok := c.moveOwnedObject(o, nil); ok {
			rep.Manifests = append(rep.Manifests, man)
		} else {
			rep.NotOwned[o] = addr.NoNode
		}
	}
	slices.SortFunc(rep.Manifests, func(a, b dsm.Manifest) int {
		switch {
		case a.OID < b.OID:
			return -1
		case a.OID > b.OID:
			return 1
		default:
			return 0
		}
	})
	return rep
}

// moveOwnedObject copies a locally-owned object into the current allocation
// segment of its bunch, installs the forwarding pointer, and queues location
// updates for every other replica holder. It is the one copying primitive:
// the bunch collector's copy phase, the copy-out service and segment
// evacuation all move objects through it. holders memoizes c.dir.Holders
// per bunch across the calls of one copy phase; nil looks them up per call.
func (c *Collector) moveOwnedObject(o addr.OID, holders map[addr.BunchID][]addr.NodeID) (dsm.Manifest, bool) {
	old, ok := c.heap.Canonical(o)
	if !ok || !c.heap.Mapped(old) || !c.heap.IsObjectAt(old) {
		return dsm.Manifest{}, false
	}
	if c.heap.ObjOID(old) != o {
		// The canonical address is stale: the segment under it was freed
		// (in a round this node missed, e.g. across a partition) and the
		// address range reused by a different object. Copying from here
		// would clone the resident's bytes under o's identity and plant a
		// forwarding pointer on the resident's header.
		c.stats().Add("core.gc.staleCanonical", 1)
		return dsm.Manifest{}, false
	}
	if c.heap.Forwarded(old) {
		// Already moved; report the current location.
		man, ok := c.manifestOf(o)
		return man, ok
	}
	b := c.BunchOf(o)
	rep := c.Replica(b)
	size := c.heap.ObjSize(old)
	if rep.allocSeg == nil || rep.allocSeg.FreeWords() < size+mem.HeaderWords {
		rep.allocSeg = c.newAllocSeg(b)
	}
	to, allocOK := c.heap.Alloc(rep.allocSeg, o, size)
	if !allocOK {
		return dsm.Manifest{}, false
	}
	for i := 0; i < size; i++ {
		c.heap.SetField(to, i, c.heap.GetField(old, i), c.heap.IsRefField(old, i))
	}
	c.heap.SetFwd(old, to)
	c.heap.SetCanonical(o, to)
	c.locEpoch[o]++
	ep := c.locEpoch[o]
	c.net.Clock().Advance(copyWordTick * uint64(size+mem.HeaderWords))
	hs, ok := holders[b]
	if !ok {
		hs = c.dir.Holders(b)
		if holders != nil {
			holders[b] = hs
		}
	}
	c.queueLocation(o, b, to, size, hs)
	c.stats().Add("core.gc.copied", 1)
	c.stats().Add("core.gc.copiedWords", int64(size+mem.HeaderWords))
	return dsm.Manifest{OID: o, Addr: to, Size: size, Bunch: b, Epoch: ep}, true
}

// serveAddrChange participates in another node's from-space reuse round
// (§4.5): apply the address changes, evacuate any of our own objects still
// resident in the doomed batch, rewrite local references into it, and only
// then unmap the local replicas.
func (c *Collector) serveAddrChange(msg AddrChangeMsg) {
	c.ApplyManifests(msg.Manifests, msg.From)
	c.evacuate(msg.Segs)
	doomed := c.doomedSet(msg.Segs)
	c.rewriteRefsInto(doomed, headerTable(msg.Headers))
	c.dropCanonicalsIn(doomed)
	for _, id := range msg.Segs {
		c.heap.DiscardSegment(id)
	}
	c.stats().Add("core.reclaim.participated", 1)
}

func headerTable(hs []SegHeader) map[addr.Addr]addr.OID {
	out := make(map[addr.Addr]addr.OID, len(hs))
	for _, h := range hs {
		out[h.Old] = h.OID
	}
	return out
}

// evacuate rescues every object whose local canonical address lies in one
// of the given segments: owned objects are moved locally; non-owned ones
// are copied out by their owners, one request per owner for the batch.
func (c *Collector) evacuate(segs []addr.SegID) {
	var mine, theirs []addr.OID
	for _, id := range segs {
		s := c.heap.Seg(id)
		if s == nil {
			continue
		}
		for _, a := range s.Objects() {
			if c.heap.Forwarded(a) {
				continue
			}
			o := c.heap.ObjOID(a)
			can, ok := c.heap.Canonical(o)
			if !ok || can != a {
				continue // dead here, or already relocated
			}
			if c.dsm.IsOwner(o) {
				mine = append(mine, o)
			} else if c.dsm.Knows(o) {
				theirs = append(theirs, o)
			}
		}
	}
	for _, o := range mine {
		c.moveOwnedObject(o, nil)
	}
	c.requestCopyOut(theirs)
}

// requestCopyOut asks the owners of the given objects to copy them into
// fresh space, following ownership hints for bounded rounds.
func (c *Collector) requestCopyOut(oids []addr.OID) {
	type target struct {
		node addr.NodeID
		oids []addr.OID
	}
	pendingOIDs := make(map[addr.OID]addr.NodeID, len(oids))
	for _, o := range oids {
		if t := c.dsm.OwnerPtrOf(o); t != addr.NoNode {
			pendingOIDs[o] = t
		}
	}
	for round := 0; round < 8 && len(pendingOIDs) > 0; round++ {
		byNode := make(map[addr.NodeID][]addr.OID)
		for o, t := range pendingOIDs {
			byNode[t] = append(byNode[t], o)
		}
		var targets []target
		for n, os := range byNode {
			slices.Sort(os)
			targets = append(targets, target{n, os})
		}
		slices.SortFunc(targets, func(a, b target) int {
			switch {
			case a.node < b.node:
				return -1
			case a.node > b.node:
				return 1
			default:
				return 0
			}
		})
		next := make(map[addr.OID]addr.NodeID)
		for _, t := range targets {
			if t.node == c.node {
				for _, o := range t.oids {
					c.moveOwnedObject(o, nil)
				}
				continue
			}
			raw, err := c.net.Call(transport.Msg{
				From: c.node, To: t.node, Kind: KindCopyOut, Class: transport.ClassGC,
				Payload: CopyOutReq{From: c.node, OIDs: t.oids},
				Bytes:   8 + 8*len(t.oids),
			})
			if err != nil {
				c.stats().Add("core.copyOut.errors", 1)
				continue
			}
			rep := raw.(CopyOutReply)
			c.ApplyManifests(rep.Manifests, t.node)
			for o, hint := range rep.NotOwned {
				if hint != addr.NoNode && hint != c.node {
					next[o] = hint
				} else {
					c.stats().Add("core.copyOut.unresolved", 1)
				}
			}
			c.stats().Add("core.copyOut.msgs", 1)
		}
		pendingOIDs = next
	}
}

// rewriteRefsInto rewrites every local pointer word — and every forwarding
// pointer — outside the doomed batch that points into it, through the
// forwarding pointers resident there, so the batch holds no forwarding
// pointer anybody still needs (§4.5). One pass over the heap serves the
// whole batch. Without the second pass, a forwarding chain hopping through
// a doomed segment would dangle once it is unmapped. The doomed segments'
// own words die with them and are not rewritten. The walk reads each
// replica's words and bitmaps directly: it visits every pointer word the
// node holds, so a lookup per word would dominate the round.
func (c *Collector) rewriteRefsInto(doomed segSet, headers map[addr.Addr]addr.OID) {
	escape := func(w addr.Addr) (addr.Addr, bool) {
		if w.IsNil() || !doomed.contains(w) {
			return w, false
		}
		return c.escapeDoomed(doomed, w, headers)
	}
	var refs, fwds int
	c.heap.ForEachSegment(func(s *mem.Segment) {
		if !doomed.has(s.Meta.ID) {
			refs += s.RewriteRefs(escape)
			fwds += s.RewriteFwds(escape)
		}
	})
	if refs > 0 {
		c.stats().Add("core.reclaim.refsRewritten", int64(refs))
	}
	if fwds > 0 {
		c.stats().Add("core.reclaim.fwdsRewritten", int64(fwds))
	}
}

// escapeDoomed finds the current address of whatever w (inside the doomed
// batch) refers to: through the local forwarding pointer when one exists,
// via the object header under w and the canonical map, or via the
// initiator's header table — a replica may hold old words for an object
// whose header it never materialized. Returns false when nothing better
// than w is known (then w is a reference inside stale garbage).
func (c *Collector) escapeDoomed(doomed segSet, w addr.Addr, headers map[addr.Addr]addr.OID) (addr.Addr, bool) {
	if r := c.heap.Resolve(w); r != w && !doomed.contains(r) {
		return r, true
	}
	oid := addr.NilOID
	if c.heap.Mapped(w) && c.heap.IsObjectAt(w) {
		oid = c.heap.ObjOID(w)
	} else if headers != nil {
		oid = headers[w]
	}
	if !oid.IsNil() {
		if can, ok := c.heap.Canonical(oid); ok {
			if can = c.heap.Resolve(can); can != w && !doomed.contains(can) {
				return can, true
			}
		}
	}
	c.stats().Add("core.reclaim.unresolved", 1)
	return addr.NilAddr, false
}

// dropCanonicalsIn forgets canonical addresses still inside the batch being
// reclaimed. Anything still there is stale: live objects were evacuated.
func (c *Collector) dropCanonicalsIn(doomed segSet) {
	c.heap.ForEachCanonical(func(o addr.OID, a addr.Addr) {
		if !doomed.contains(a) {
			return
		}
		c.heap.DropObject(o)
		if c.heap.IsObjectAt(a) && c.heap.ObjOID(a) != o {
			// The address was reused under a stale canonical: only the
			// pointer is bogus, the protocol state (ownership, copy-set,
			// entering ownerPtrs) is still real and still routes.
			return
		}
		c.dsm.Forget(o)
		c.stats().Add("core.reclaim.staleDropped", 1)
	})
}
