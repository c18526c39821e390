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
	// KindAddrChange informs a replica holder of the address changes in a
	// from-space segment being reclaimed, and asks it to evacuate its own
	// objects and unmap its replica of the segment (§4.5).
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
	From      addr.NodeID
	Bunch     addr.BunchID
	Seg       addr.SegID
	Manifests []dsm.Manifest
	// Headers names every object whose header lies in the doomed segment,
	// by old address. Only the segment's creator allocates into it, so the
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
		if man, ok := c.moveOwnedObject(o); ok {
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
// evacuation all move objects through it.
func (c *Collector) moveOwnedObject(o addr.OID) (dsm.Manifest, bool) {
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
	b := c.dir.BunchOf(o)
	rep := c.Replica(b)
	size := c.heap.ObjSize(old)
	if rep.allocSeg == nil || rep.allocSeg.FreeWords() < size+mem.HeaderWords {
		rep.allocSeg = c.heap.MapSegment(c.dir.AddSegment(b))
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
	c.dir.RecordPlacement(to, o)
	c.locEpoch[o]++
	ep := c.locEpoch[o]
	c.net.Clock().Advance(c.costs.CopyWordTick * uint64(size+mem.HeaderWords))
	c.queueLocation(o, b, to, size)
	c.stats().Add("core.gc.copied", 1)
	c.stats().Add("core.gc.copiedWords", int64(size+mem.HeaderWords))
	return dsm.Manifest{OID: o, Addr: to, Size: size, Bunch: b, Epoch: ep}, true
}

// serveAddrChange participates in another node's from-space reuse round
// (§4.5): apply the address changes, evacuate any of our own objects still
// resident in the doomed segment, rewrite local references into it, and
// unmap the local replica.
func (c *Collector) serveAddrChange(msg AddrChangeMsg) {
	c.rememberTombstones(msg.Headers)
	c.ApplyManifests(msg.Manifests, msg.From)
	c.evacuateSegment(msg.Bunch, msg.Seg)
	meta := c.dir.Allocator().Meta(msg.Seg)
	if meta != nil {
		c.rewriteRefsInto(meta, headerTable(msg.Headers))
	}
	c.dropCanonicalsIn(msg.Seg)
	c.heap.UnmapSegment(msg.Seg)
	c.stats().Add("core.reclaim.participated", 1)
}

func headerTable(hs []SegHeader) map[addr.Addr]addr.OID {
	out := make(map[addr.Addr]addr.OID, len(hs))
	for _, h := range hs {
		out[h.Old] = h.OID
	}
	return out
}

// evacuateSegment rescues every object whose local canonical address lies in
// segment seg: owned objects are moved locally; non-owned ones are copied
// out by their owner.
func (c *Collector) evacuateSegment(b addr.BunchID, seg addr.SegID) {
	s := c.heap.Seg(seg)
	if s == nil {
		return
	}
	var mine, theirs []addr.OID
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
	if debugReclaim {
		fmt.Printf("EVACDBG node %v seg %v: mine=%v theirs=%v\n", c.node, seg, mine, theirs)
	}
	for _, o := range mine {
		c.moveOwnedObject(o)
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
					c.moveOwnedObject(o)
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
			if debugReclaim {
				fmt.Printf("COPYOUTDBG node %v <- %v: manifests=%v notOwned=%v\n",
					c.node, t.node, rep.Manifests, rep.NotOwned)
			}
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
// pointer in other segments — that points into the given segment through
// the forwarding pointers resident there, so the segment holds no
// forwarding pointer anybody still needs (§4.5). Without the second pass, a
// forwarding chain hopping through the doomed segment would dangle once it
// is unmapped.
func (c *Collector) rewriteRefsInto(target *mem.SegmentMeta, headers map[addr.Addr]addr.OID) {
	for _, id := range c.heap.Segments() {
		s := c.heap.Seg(id)
		base := s.Meta.Base
		for _, off := range s.RefWords() {
			a := base.AddWords(off)
			w := addr.Addr(c.heap.Word(a))
			if w.IsNil() || !target.Contains(w) {
				continue
			}
			if r, ok := c.escapeDoomed(target, w, headers); ok {
				c.heap.SetWord(a, uint64(r))
				c.stats().Add("core.reclaim.refsRewritten", 1)
			}
		}
		if s.Meta.ID == target.ID {
			continue
		}
		for _, h := range s.Objects() {
			if !c.heap.Forwarded(h) {
				continue
			}
			fwd := c.heap.Fwd(h)
			if !target.Contains(fwd) {
				continue
			}
			if r, ok := c.escapeDoomed(target, fwd, headers); ok {
				c.heap.SetFwd(h, r)
				c.stats().Add("core.reclaim.fwdsRewritten", 1)
			}
		}
	}
}

// escapeDoomed finds the current address of whatever w (inside the doomed
// segment) refers to: through the local forwarding pointer when one exists,
// via the object header under w and the canonical map, or via the
// initiator's header table — a replica may hold old words for an object
// whose header it never materialized. Returns false when nothing better
// than w is known (then w is a reference inside stale garbage).
func (c *Collector) escapeDoomed(target *mem.SegmentMeta, w addr.Addr, headers map[addr.Addr]addr.OID) (addr.Addr, bool) {
	if r := c.heap.Resolve(w); r != w && !target.Contains(r) {
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
			if can = c.heap.Resolve(can); can != w && !target.Contains(can) {
				return can, true
			}
		}
	}
	c.stats().Add("core.reclaim.unresolved", 1)
	return addr.NilAddr, false
}

// dropCanonicalsIn forgets canonical addresses still inside a segment being
// reclaimed. Anything still here is stale: live objects were evacuated.
func (c *Collector) dropCanonicalsIn(seg addr.SegID) {
	meta := c.dir.Allocator().Meta(seg)
	if meta == nil {
		return
	}
	for _, o := range c.heap.KnownObjects() {
		if a, ok := c.heap.Canonical(o); ok && meta.Contains(a) {
			if debugReclaim {
				fmt.Printf("DROPDBG node %v: dropping %v canonical %v (knows=%v owner=%v ownerPtr=%v fwd=%v objAt=%v)\n",
					c.node, o, a, c.dsm.Knows(o), c.dsm.IsOwner(o), c.dsm.OwnerPtrOf(o),
					c.heap.Forwarded(a), c.heap.IsObjectAt(a))
			}
			c.heap.DropObject(o)
			if c.heap.IsObjectAt(a) && c.heap.ObjOID(a) != o {
				// The address was reused under a stale canonical: only the
				// pointer is bogus, the protocol state (ownership, copy-set,
				// entering ownerPtrs) is still real and still routes.
				continue
			}
			c.dsm.Forget(o)
			c.stats().Add("core.reclaim.staleDropped", 1)
		}
	}
}

// debugReclaim enables verbose reclaim diagnostics (tests only).
var debugReclaim = false
