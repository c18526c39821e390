package dsm

import (
	"slices"

	"bmx/internal/addr"
	"bmx/internal/transport"
)

// This file holds the invariant-2 location-update path (§5): when an
// acquire's reply — or an incoming batch — names new object addresses,
// forwardManifests queues one LocMsg per copy-set member into a
// per-destination outbox, and the bracket that triggered the forwarding
// (an Acquire, or the service of an incoming KindLocBatch) flushes the
// outbox on exit as one KindLocBatch per destination, merged across
// objects. Receivers apply the entries in queue order, so per-pair FIFO —
// the ordering §6.1's scion cleaner relies on — is exactly the order the
// updates were produced in.

// KindLocBatch carries every location update one node owes another at a
// flush boundary. It is the only location-update message on the wire.
const KindLocBatch = "dsm.locBatch"

// LocMsg is one batch entry: the location updates for O pushed down the
// distributed copy-set by From.
type LocMsg struct {
	O         addr.OID
	From      addr.NodeID
	Manifests []Manifest
}

// LocBatchMsg is the payload of a KindLocBatch message. Entries are in
// queue order; a k-entry batch leaves the receiver in the same state as k
// single-entry batches delivered in that order.
type LocBatchMsg struct {
	From    addr.NodeID
	Entries []LocMsg
}

// locBatch accumulates one destination's pending location updates between
// flushes, with the piggyback byte accounting precomputed at queue time.
type locBatch struct {
	entries []LocMsg
	pb      int
}

// queueLocUpdate appends one copy-set member's location update to the
// per-destination outbox.
func (n *Node) queueLocUpdate(dst addr.NodeID, lm LocMsg, pb int) {
	b, ok := n.outbox[dst]
	if !ok {
		b = &locBatch{}
		n.outbox[dst] = b
		n.outboxOrder = append(n.outboxOrder, dst)
	}
	b.entries = append(b.entries, lm)
	b.pb += pb
}

// flushLocOutbox sends every destination's accumulated location updates as
// one KindLocBatch message and empties the outbox. Called at bracket exit:
// the end of an Acquire, or the end of serving an incoming batch.
// Destinations flush in first-touch order — deterministic, since queueing
// iterates sorted copy-sets.
func (n *Node) flushLocOutbox(class transport.Class) {
	for _, dst := range n.outboxOrder {
		b := n.outbox[dst]
		delete(n.outbox, dst)
		// Wire accounting: each entry costs its 8-byte LocMsg header plus
		// its manifests (b.pb, summed at queue time), under one 8-byte
		// batch header — batching saves messages, never hides payload bytes.
		n.net.Send(transport.Msg{
			From: n.id, To: dst, Kind: KindLocBatch, Class: class,
			Payload: LocBatchMsg{From: n.id, Entries: b.entries},
			Bytes:   8 + 8*len(b.entries) + b.pb, Piggyback: b.pb,
		})
		n.stats().Add("dsm.locBatch.sent", 1)
		n.stats().Add("dsm.locBatch.entries", int64(len(b.entries)))
	}
	n.outboxOrder = n.outboxOrder[:0]
}

// takeSorted fills the node's reusable scratch buffer with the set's
// members, sorted — the allocation-free variant of sortedNodes for the hot
// send paths (invalidate and location-update fan-out). The returned put func
// hands the buffer back. Take-and-clear, not plain reuse: the node lock is
// released around outbound synchronous calls, so a re-entrant handler on
// this node can reach another fan-out while the outer one still iterates —
// it finds the field nil and allocates fresh instead of clobbering.
func (n *Node) takeSorted(set map[addr.NodeID]bool) ([]addr.NodeID, func()) {
	buf := n.scratch
	n.scratch = nil
	if buf == nil {
		buf = make([]addr.NodeID, 0, 8)
	}
	buf = buf[:0]
	for id := range set {
		buf = append(buf, id)
	}
	slices.Sort(buf)
	return buf, func() { n.scratch = buf }
}
