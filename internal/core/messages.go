package core

import (
	"cmp"
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
		return nil, 8, c.serveAddrChange(m.Payload.(AddrChangeMsg))
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
				c.dsm.DropCanonical(o)
				c.dsm.Forget(o)
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

// sortedNodeIDs lists m's keys in order.
func sortedNodeIDs[V any](m map[addr.NodeID]V) []addr.NodeID {
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
		r := c.dsm.Record(o)
		if !r.IsOwner() {
			rep.NotOwned[o] = r.OwnerPtr()
			continue
		}
		if man, ok := c.moveOwnedObject(r); ok {
			rep.Manifests = append(rep.Manifests, man)
		} else {
			rep.NotOwned[o] = addr.NoNode
		}
	}
	slices.SortFunc(rep.Manifests, func(a, b dsm.Manifest) int { return cmp.Compare(a.OID, b.OID) })
	return rep
}

// moveOwnedObject copies a locally-owned object into the current allocation
// segment of its bunch, installs the forwarding pointer, and queues location
// updates for the nodes this node's protocol state says hold a replica
// through it. The bunch collector's copy phase, the copy-out service and
// segment evacuation all move objects through it; the words and
// reference-map bits move through Heap.CopyObject. r is the object's record.
func (c *Collector) moveOwnedObject(r *dsm.Record) (dsm.Manifest, bool) {
	o := r.OID()
	old, ok := r.Canonical()
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
		return c.manifestOf(r)
	}
	b := r.Bunch()
	rep := c.Replica(b)
	size := c.heap.ObjSize(old)
	if rep.allocSeg == nil || rep.allocSeg.FreeWords() < size+mem.HeaderWords {
		rep.allocSeg = c.newAllocSeg(b)
	}
	to, allocOK := c.heap.Alloc(rep.allocSeg, o, size)
	if !allocOK {
		return dsm.Manifest{}, false
	}
	c.heap.CopyObject(old, to)
	c.heap.SetFwd(old, to)
	r.SetCanonical(to)
	man := dsm.Manifest{OID: o, Addr: to, Size: size, Bunch: b, Epoch: r.BumpEpoch()}
	c.net.Clock().Advance(copyWordTick * uint64(size+mem.HeaderWords))
	c.queueLocation(man, r.ReplicaNodes())
	c.stats().Add("core.gc.copied", 1)
	c.stats().Add("core.gc.copiedWords", int64(size+mem.HeaderWords))
	return man, true
}

// serveAddrChange participates in another node's from-space reuse round
// (§4.5): apply the address changes of the objects it holds, evacuate any of
// our own objects still resident in the doomed batch, rewrite local
// references into it (consulting the other changes), and only then unmap
// the local replicas. It refuses the round, unmapping nothing, when it could
// not learn where a referenced object now lives.
func (c *Collector) serveAddrChange(msg AddrChangeMsg) error {
	var skipped int64
	for _, m := range msg.Manifests {
		r := c.dsm.Record(m.OID)
		if _, ok := r.Canonical(); ok || r.Known() {
			c.applyManifest(r, m, msg.From)
		} else {
			skipped++
		}
	}
	if skipped > 0 {
		c.stats().Add("core.reclaim.manifestsSkipped", skipped)
	}
	c.evacuate(msg.Segs)
	doomed := c.doomedSet(msg.Segs)
	if err := c.rewriteRefsInto(doomed, msg.Headers, msg.Manifests, msg.From); err != nil {
		c.stats().Add("core.reclaim.refused", 1)
		return err
	}
	c.dropCanonicalsIn(doomed)
	for _, id := range msg.Segs {
		c.heap.DiscardSegment(id)
	}
	c.stats().Add("core.reclaim.participated", 1)
	return nil
}

// evacuate rescues every object whose local canonical address lies in one
// of the given segments: owned objects are moved locally; non-owned ones
// are copied out by their owners, one request per owner for the batch.
func (c *Collector) evacuate(segs []addr.SegID) {
	var mine []*dsm.Record
	var theirs []addr.OID
	for _, id := range segs {
		s := c.heap.Seg(id)
		if s == nil {
			continue
		}
		for _, a := range s.Objects() {
			if c.heap.Forwarded(a) {
				continue
			}
			r := c.dsm.Record(c.heap.ObjOID(a))
			if can, ok := r.Canonical(); !ok || can != a {
				continue // dead here, or already relocated
			}
			if r.IsOwner() {
				mine = append(mine, r)
			} else if r.Known() {
				theirs = append(theirs, r.OID())
			}
		}
	}
	for _, r := range mine {
		c.moveOwnedObject(r)
	}
	// A failed copy-out leaves the object's canonical address in the batch:
	// a word naming it asks again in rewriteRefsInto, which refuses on failure.
	_ = c.requestCopyOut(theirs)
}

// requestCopyOut asks the owners of the given objects to copy them into
// fresh space, following ownership hints for bounded rounds, and applies the
// new locations they report. A request starts at the object's ownerPtr, or
// at the directory's owner hint for an object this node has forgotten. It
// returns the first call that failed.
func (c *Collector) requestCopyOut(oids []addr.OID) error {
	pendingOIDs := make(map[addr.OID]addr.NodeID, len(oids))
	for _, o := range oids {
		t := c.dsm.OwnerPtrOf(o)
		if t == addr.NoNode && !c.dsm.Knows(o) {
			_, t = c.dir.Locate(o)
		}
		if t != addr.NoNode {
			pendingOIDs[o] = t
		}
	}
	var firstErr error
	for round := 0; round < 8 && len(pendingOIDs) > 0; round++ {
		byNode := make(map[addr.NodeID][]addr.OID)
		for o, t := range pendingOIDs {
			byNode[t] = append(byNode[t], o)
		}
		next := make(map[addr.OID]addr.NodeID)
		for _, node := range sortedNodeIDs(byNode) {
			os := byNode[node]
			slices.Sort(os)
			if node == c.node {
				for _, o := range os {
					if r := c.dsm.Record(o); r != nil {
						c.moveOwnedObject(r)
					}
				}
				continue
			}
			raw, err := c.net.Call(transport.Msg{
				From: c.node, To: node, Kind: KindCopyOut, Class: transport.ClassGC,
				Payload: CopyOutReq{From: c.node, OIDs: os},
				Bytes:   8 + 8*len(os),
			})
			if err != nil {
				c.stats().Add("core.copyOut.errors", 1)
				firstErr = cmp.Or(firstErr, err)
				continue
			}
			rep := raw.(CopyOutReply)
			c.ApplyManifests(rep.Manifests, node)
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
	return firstErr
}

// rewriteRefsInto rewrites every local pointer word — and every forwarding
// pointer — outside the doomed batch that points into it, so the batch holds
// no forwarding pointer anybody still needs (§4.5). One pass over the heap
// serves the whole batch. Without the second pass, a forwarding chain
// hopping through a doomed segment would dangle once it is unmapped. The
// doomed segments' own words die with them and are not rewritten. The walk
// reads each replica's words and bitmaps directly: it visits every pointer
// word the node holds, so a lookup per word would dominate the round.
//
// A word into the batch whose forwarding pointer leads out of it takes that
// address; any other goes through ResolveRef with the round's header table in
// hand. A word whose object the chain identifies but does not place outside
// the batch — no canonical address here, typically a reference into a bunch
// whose replica this node dropped, or one still inside the batch because an
// evacuation's copy-out failed — finishes the chain: the object takes its
// manifest from late (those serveAddrChange skipped), its owner is asked
// where it lives (gc.copyOut), and the walk runs again. A lookup call that
// failed is returned: the round must not unmap.
func (c *Collector) rewriteRefsInto(doomed segSet, headers []SegHeader, late []dsm.Manifest, from addr.NodeID) error {
	var table map[addr.Addr]addr.OID // headers, indexed on first use
	header := func(w addr.Addr) addr.OID {
		if table == nil {
			table = make(map[addr.Addr]addr.OID, len(headers))
			for _, h := range headers {
				table[h.Old] = h.OID
			}
		}
		return table[w]
	}
	var unplaced []addr.OID
	var unresolved int64
	escape := func(w addr.Addr) (addr.Addr, bool) {
		if w.IsNil() || !doomed.contains(w) {
			return w, false
		}
		if r := c.heap.Resolve(w); r != w && !doomed.contains(r) {
			return r, true
		}
		r, o := c.ResolveRef(w, header)
		if !r.IsNil() && !doomed.contains(r) {
			return r, true
		}
		unresolved++
		if !o.IsNil() {
			unplaced = append(unplaced, o)
		}
		return w, false
	}
	for pass := 0; ; pass++ {
		var refs, fwds int
		unresolved = 0
		c.heap.ForEachSegment(func(s *mem.Segment) {
			if doomed.has(s.Meta.ID) {
				return
			}
			var note func(addr.Addr)
			if rep := c.settledReplica(s); rep != nil {
				// A kept object is never logged whole again: the flip
				// that keeps it logs the words rewritten here.
				note = func(a addr.Addr) { rep.relog[relogEntry{a: a}] = true }
			}
			refs += s.RewriteRefs(escape, note)
			fwds += s.RewriteFwds(escape)
		})
		if refs > 0 {
			c.stats().Add("core.reclaim.refsRewritten", int64(refs))
		}
		if fwds > 0 {
			c.stats().Add("core.reclaim.fwdsRewritten", int64(fwds))
		}
		if len(unplaced) == 0 || pass > 0 {
			if unresolved > 0 {
				c.stats().Add("core.reclaim.unresolved", unresolved)
			}
			return nil
		}
		slices.Sort(unplaced)
		unplaced = c.applyLate(doomed, slices.Compact(unplaced), late, from)
		if err := c.requestCopyOut(unplaced); err != nil {
			return err
		}
	}
}

// applyLate applies to each object of unplaced (sorted) its highest-epoch
// manifest in ms — a round may also name it in an older queued update that
// points inside the batch — and returns those still not placed outside it.
func (c *Collector) applyLate(doomed segSet, unplaced []addr.OID, ms []dsm.Manifest, from addr.NodeID) []addr.OID {
	best := make(map[addr.OID]dsm.Manifest)
	for _, m := range ms {
		b, seen := best[m.OID]
		if _, ok := slices.BinarySearch(unplaced, m.OID); ok && (!seen || m.Epoch > b.Epoch) {
			best[m.OID] = m
		}
	}
	for _, o := range unplaced {
		if m, ok := best[o]; ok {
			c.applyManifest(c.dsm.Record(o), m, from)
		}
	}
	if len(best) > 0 {
		c.stats().Add("core.reclaim.manifestsLate", int64(len(best)))
	}
	return slices.DeleteFunc(unplaced, func(o addr.OID) bool {
		can, ok := c.dsm.Canonical(o)
		return ok && !doomed.contains(c.heap.Resolve(can))
	})
}

// dropCanonicalsIn forgets canonical addresses still inside the batch being
// reclaimed. Anything still there is stale: live objects were evacuated. It
// walks every record with a canonical address, not just the batch's bunch:
// a stale one may name a recycled segment its own bunch no longer holds.
func (c *Collector) dropCanonicalsIn(doomed segSet) {
	c.dsm.ForEachCanonical(func(o addr.OID, a addr.Addr) {
		if !doomed.contains(a) {
			return
		}
		c.dsm.DropCanonical(o)
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
