package core

import (
	"bmx/internal/addr"
	"bmx/internal/dsm"
	"bmx/internal/mem"
	"bmx/internal/obs"
	"bmx/internal/transport"
)

// ReclaimStats summarizes a from-space reuse round (§4.5).
type ReclaimStats struct {
	Segments   int
	WordsFreed int
}

// ReclaimFromSpace runs the §4.5 protocol on this node's from-space
// segments of bunch b, making them fully reusable (here: freed). One call
// is one round over the whole batch of doomed segments:
//
//  1. Live objects still headquartered in a doomed segment are evacuated —
//     locally-owned ones are moved by this node; non-owned ones are copied
//     out by their owners ("asking the owner nodes to copy those live
//     objects still allocated in the from-space segment").
//  2. Every other holder of the bunch gets one address-change message for
//     the batch, and performs the same evacuation for its own objects,
//     rewrites its references into the batch, and unmaps it ("informing all
//     other nodes affected by the address changes in this segment").
//  3. Once every reply is in, the segments are freed: no live object and
//     no forwarding pointer anybody needs remains.
//
// Every node, this one included, rewrites against the whole batch before it
// unmaps any of it, so a forwarding chain that hops between two doomed
// segments is resolved while both are still mapped.
//
// Until this protocol runs, from-space segments stay mapped: the paper notes
// a from-space segment is only reused once the to-space fills, and until
// then forwarding pointers keep working.
func (c *Collector) ReclaimFromSpace(b addr.BunchID) ReclaimStats {
	rep, ok := c.reps[b]
	if !ok {
		return ReclaimStats{}
	}
	ids := c.fromSpace(rep)
	rep.fromSegs = nil
	if len(ids) == 0 {
		return ReclaimStats{}
	}
	doomed := c.doomedSet(ids)

	// 1. Evacuate every live object whose canonical address is doomed.
	c.evacuate(ids)

	// The address-change payload: the current location of every live
	// object allocated in the batch (the initiator created these segments,
	// so its object maps are complete), plus the header table receivers
	// need to rewrite words they cannot resolve locally.
	var mans []dsm.Manifest
	var headers []SegHeader
	sent := make(map[addr.OID]bool)
	for _, id := range ids {
		for _, a := range c.heap.Seg(id).Objects() {
			o := c.heap.ObjOID(a)
			headers = append(headers, SegHeader{Old: a, OID: o})
			if sent[o] {
				continue
			}
			if m, ok := c.manifestOf(o); ok && m.Addr != a && !doomed.contains(m.Addr) {
				mans = append(mans, m)
				sent[o] = true
			}
		}
	}

	// 2. One synchronous address-change round with every node holding any
	// of the bunch's content. If any holder is unreachable (e.g. across a
	// partition) the round is aborted: the whole batch goes back on the
	// from-space list and stays mapped — forwarding pointers keep working,
	// exactly the state §4.5 allows between a flip and reuse — and a later
	// ReclaimFromSpace retries. Holders that already processed the round
	// reprocess it then; evacuation and unmap/remap are idempotent, so the
	// retry is safe.
	abort := func() ReclaimStats {
		c.stats().Add("core.reclaim.aborted", 1)
		rep.fromSegs = append(rep.fromSegs, ids...)
		return ReclaimStats{}
	}
	for _, peer := range c.dir.Holders(b) {
		if peer == c.node {
			continue
		}
		// The peer's queued location updates ride along, but on a GC
		// message: they are not consistency-traffic piggyback (§4.4).
		all := append(append([]dsm.Manifest(nil), mans...), c.takePending(peer)...)
		bytes := 16 + 4*len(ids)
		for _, m := range all {
			bytes += m.WireBytes()
		}
		if _, err := c.net.Call(transport.Msg{
			From: c.node, To: peer, Kind: KindAddrChange, Class: transport.ClassGC,
			Payload: AddrChangeMsg{
				From: c.node, Bunch: b, Segs: ids,
				Manifests: all, Headers: headers,
			},
			Bytes: bytes + 16*len(headers),
		}); err != nil {
			return abort()
		}
		c.stats().Add("core.reclaim.rounds", 1)
	}

	// 3. Free the batch locally and in the directory — unless a word here
	// names an object whose owner could not say where it lives now.
	if err := c.rewriteRefsInto(doomed, headerTable(headers)); err != nil {
		return abort()
	}
	c.dropCanonicalsIn(doomed)
	st := ReclaimStats{Segments: len(ids)}
	for _, id := range ids {
		words := c.heap.Seg(id).Meta.Words
		c.heap.DiscardSegment(id)
		c.dir.RemoveSegment(b, id)
		st.WordsFreed += words
		c.stats().Add("core.reclaim.segments", 1)
		c.stats().Add("core.reclaim.words", int64(words))
		c.rec.Emit(obs.Event{Kind: obs.KReclaimSeg, Class: obs.ClassGC, A: int64(words)})
	}
	return st
}

// fromSpace lists rep's from-space segments still mapped here, bar the
// current allocation segment.
func (c *Collector) fromSpace(rep *Replica) []addr.SegID {
	var ids []addr.SegID
	for _, id := range rep.fromSegs {
		if s := c.heap.Seg(id); s != nil && s != rep.allocSeg {
			ids = append(ids, id)
		}
	}
	return ids
}

// fromSpaceFull reports whether rep's from-space has reached the reuse
// trigger (reuseFactor): counted in words, so seeded runs reuse at the
// same points.
func (c *Collector) fromSpaceFull(rep *Replica) bool {
	seg := c.heap.Allocator().SegWords()
	held := seg * len(c.fromSpace(rep))
	return held >= reuseFactor*max(rep.copiedWords, seg)
}

// FromSpaceSegments reports the segments of b awaiting the reuse protocol.
func (c *Collector) FromSpaceSegments(b addr.BunchID) []addr.SegID {
	if rep, ok := c.reps[b]; ok {
		return append([]addr.SegID(nil), rep.fromSegs...)
	}
	return nil
}

// segSet is the batch of segments one reclaim round frees. Segment size is
// constant, so whether an address lies in the batch is index arithmetic.
type segSet struct {
	alloc *mem.Allocator
	in    []bool // indexed by SegID
}

func (c *Collector) doomedSet(ids []addr.SegID) segSet {
	var top addr.SegID
	for _, id := range ids {
		top = max(top, id)
	}
	s := segSet{alloc: c.heap.Allocator(), in: make([]bool, int(top)+1)}
	for _, id := range ids {
		s.in[id] = true
	}
	return s
}

func (s segSet) has(id addr.SegID) bool { return int(id) < len(s.in) && s.in[id] }

func (s segSet) contains(a addr.Addr) bool {
	id, ok := s.alloc.SegIndex(a)
	return ok && s.has(id)
}
