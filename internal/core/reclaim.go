package core

import (
	"bmx/internal/addr"
	"bmx/internal/dsm"
	"bmx/internal/obs"
	"bmx/internal/transport"
)

// ReclaimStats summarizes a from-space reuse round (§4.5).
type ReclaimStats struct {
	Segments   int
	WordsFreed int
}

// ReclaimFromSpace runs the §4.5 protocol on this node's from-space
// segments of bunch b, making them fully reusable (here: freed):
//
//  1. Live objects still headquartered in a from-space segment are
//     evacuated — locally-owned ones are moved by this node; non-owned ones
//     are copied out by their owners ("asking the owner nodes to copy those
//     live objects still allocated in the from-space segment").
//  2. All other replica holders are informed of the address changes in the
//     segment and perform the same evacuation for their own objects,
//     rewrite their references into the segment, and unmap it ("informing
//     all other nodes affected by the address changes in this segment").
//  3. Once every reply is in, the segment is freed: no live object and no
//     forwarding pointer anybody needs remains.
//
// Until this protocol runs, from-space segments stay mapped: the paper notes
// a from-space segment is only reused once the to-space fills, and until
// then forwarding pointers keep working.
func (c *Collector) ReclaimFromSpace(b addr.BunchID) ReclaimStats {
	rep, ok := c.reps[b]
	if !ok {
		return ReclaimStats{}
	}
	segs := rep.fromSegs
	rep.fromSegs = nil
	var st ReclaimStats
	for _, id := range segs {
		s := c.heap.Seg(id)
		if s == nil || s == rep.allocSeg {
			continue
		}
		// 1. Evacuate every live object whose canonical address is here.
		c.evacuateSegment(b, id)

		// Build the address-change payload: the current location of every
		// live object allocated in this segment (the initiator created the
		// segment, so its object map is complete), plus the header table
		// receivers need to rewrite words they cannot resolve locally.
		var mans []dsm.Manifest
		var headers []SegHeader
		for _, a := range s.Objects() {
			o := c.heap.ObjOID(a)
			headers = append(headers, SegHeader{Old: a, OID: o})
			if m, ok := c.manifestOf(o); ok && m.Addr != a && !s.Meta.Contains(m.Addr) {
				mans = append(mans, m)
			}
		}

		// 2. Synchronous address-change round with every node holding any
		// of the bunch's content. If any holder is unreachable (e.g.
		// across a partition) the round for this segment is aborted: the
		// segment goes back on the from-space list and stays mapped —
		// forwarding pointers keep working, exactly the state §4.5 allows
		// between a flip and reuse — and a later ReclaimFromSpace retries.
		// Holders that already processed the round reprocess it then;
		// evacuation and unmap/remap are idempotent, so the retry is safe.
		aborted := false
		for _, peer := range c.dir.Holders(b) {
			if peer == c.node {
				continue
			}
			all := append(append([]dsm.Manifest(nil), mans...), c.TakePendingManifests(peer)...)
			bytes := 16
			for _, m := range all {
				bytes += m.WireBytes()
			}
			if _, err := c.net.Call(transport.Msg{
				From: c.node, To: peer, Kind: KindAddrChange, Class: transport.ClassGC,
				Payload: AddrChangeMsg{
					From: c.node, Bunch: b, Seg: id,
					Manifests: all, Headers: headers,
				},
				Bytes: bytes + 16*len(headers),
			}); err != nil {
				c.stats().Add("core.reclaim.aborted", 1)
				aborted = true
				break
			}
			c.stats().Add("core.reclaim.rounds", 1)
		}
		if aborted {
			rep.fromSegs = append(rep.fromSegs, id)
			continue
		}

		// 3. Free the segment locally and in the directory.
		c.rememberTombstones(headers)
		c.rewriteRefsInto(s.Meta, headerTable(headers))
		c.dropCanonicalsIn(id)
		c.heap.UnmapSegment(id)
		c.dir.RemoveSegment(b, id)
		st.Segments++
		st.WordsFreed += s.Meta.Words
		c.stats().Add("core.reclaim.segments", 1)
		c.stats().Add("core.reclaim.words", int64(s.Meta.Words))
		c.rec.Emit(obs.Event{Kind: obs.KReclaimSeg, Class: obs.ClassGC, A: int64(s.Meta.Words)})
	}
	return st
}

// FromSpaceSegments reports the segments of b awaiting the reuse protocol.
func (c *Collector) FromSpaceSegments(b addr.BunchID) []addr.SegID {
	if rep, ok := c.reps[b]; ok {
		return append([]addr.SegID(nil), rep.fromSegs...)
	}
	return nil
}
