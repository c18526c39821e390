package dsm

import (
	"cmp"
	"slices"

	"bmx/internal/addr"
)

// ObjState is one node's protocol state for one object.
type ObjState struct {
	Bunch addr.BunchID
	// OwnerPtr is the forwarding pointer toward the owner, valid when
	// !Owner (§2.2: "a forwarding pointer mechanism indicating which node
	// is the current object's owner").
	OwnerPtr addr.NodeID
	Mode     Mode
	// Owner marks the node currently holding the object's write token, or
	// the node that last held it (§2.2).
	Owner bool
	// RoutingOnly marks a forwarding stub kept at the object's allocation
	// site (its manager, in Li's terminology) after the local replica was
	// reclaimed: the site anchors every ownerPtr chain, so it must keep
	// routing until the owner reports the object globally dead. A
	// routing-only entry contributes nothing to exiting lists.
	RoutingOnly bool
	// CopySet lists, ascending, the nodes this node granted a read token
	// to; copy-sets are distributed among the granters, forming a tree
	// rooted at the owner (§2.2).
	CopySet []addr.NodeID
	// Entering lists, ascending by node, the nodes whose ownerPtr points
	// directly at this node. These entries are roots of the local bunch
	// collector and the list of nodes whose references must eventually be
	// updated (§4.5); the scion cleaner retires them using table messages
	// (§6).
	//
	// Copy-set and entering list are small sorted slices, nil until their
	// first insert: most objects a node knows never gain a reader or an
	// entering ownerPtr, and one that does rarely has more than a few.
	Entering []EnteringPtr
	// rec is the record holding the state, nil while that record has no
	// state or once the state is detached (forgotten): only attached state
	// is indexed.
	rec *Record
}

// EnteringPtr is one entering ownerPtr: a node whose replica's ownerPtr
// points here.
type EnteringPtr struct {
	// Gen is the sender-side table generation when the entry was created.
	Gen  uint64
	Node addr.NodeID
	// Derivative marks an entry whose sender reported its replica as live
	// only through scions this node itself created (TableMsg.Derivative). A
	// group collection covering the sustaining stubs may discount such
	// entries as roots; everything else treats them like ordinary entries.
	Derivative bool
}

// addCopy records a read token granted to id.
func (st *ObjState) addCopy(id addr.NodeID) {
	if i, found := slices.BinarySearch(st.CopySet, id); !found {
		st.CopySet = slices.Insert(st.CopySet, i, id)
	}
}

// dropCopy removes id from the copy-set.
func (st *ObjState) dropCopy(id addr.NodeID) {
	if i, found := slices.BinarySearch(st.CopySet, id); found {
		st.CopySet = slices.Delete(st.CopySet, i, i+1)
	}
}

// findEntering returns the index of from's entering entry, or where it
// would be inserted, and whether it exists.
func (st *ObjState) findEntering(from addr.NodeID) (int, bool) {
	return slices.BinarySearchFunc(st.Entering, from, func(e EnteringPtr, n addr.NodeID) int {
		return cmp.Compare(e.Node, n)
	})
}

// hasEntering reports whether from has an entering entry.
func (st *ObjState) hasEntering(from addr.NodeID) bool {
	_, ok := st.findEntering(from)
	return ok
}

// setEntering records (or restamps) from's entering ownerPtr as an
// ordinary root: a fresh entry is never derivative. It reports whether the
// entry is new. Node.setEntering also indexes it.
func (st *ObjState) setEntering(from addr.NodeID, gen uint64) bool {
	e := EnteringPtr{Node: from, Gen: gen}
	i, found := st.findEntering(from)
	if found {
		st.Entering[i] = e
	} else {
		st.Entering = slices.Insert(st.Entering, i, e)
	}
	return !found
}

// dropEntering removes from's entering entry and reports whether there was
// one. Node.dropEntering also unindexes it.
func (st *ObjState) dropEntering(from addr.NodeID) bool {
	i, found := st.findEntering(from)
	if found {
		st.Entering = slices.Delete(st.Entering, i, i+1)
	}
	return found
}

// state returns the node's state for o, creating an invalid-mode entry
// routed at the directory's owner hint if the node has none.
func (n *Node) state(o addr.OID) *ObjState {
	if r, ok := n.objs[o]; ok && r.Known() {
		return &r.st
	}
	b, hint := n.hooks.Locate(o)
	st := n.attach(o, b)
	st.OwnerPtr = hint
	return st
}

// stateOf returns o's protocol state, or nil. Unlike state it never
// creates any.
func (n *Node) stateOf(o addr.OID) *ObjState {
	if r, ok := n.objs[o]; ok && r.Known() {
		return &r.st
	}
	return nil
}

// Knows reports whether the node has any protocol state for o.
func (n *Node) Knows(o addr.OID) bool { return n.objs[o].Known() }

// RegisterNew records a freshly allocated object: the allocating node owns
// it and holds its write token.
func (n *Node) RegisterNew(o addr.OID, b addr.BunchID) {
	st := n.attach(o, b)
	st.Mode = ModeWrite
	st.Owner = true
	n.heat.NoteOwner(o)
}

// Learn records that o exists (from a manifest), with hint as the first
// guess for the ownerPtr chain. Existing state is left untouched — except a
// broken route (an ownerPtr pointing nowhere or at this node itself, as a
// state recreated from the local allocation-site hint after a reclaim has),
// which the fresher hint repairs. It returns o's record.
func (n *Node) Learn(o addr.OID, b addr.BunchID, hint addr.NodeID) *Record {
	if st := n.stateOf(o); st != nil {
		if !st.Owner && (st.OwnerPtr == addr.NoNode || st.OwnerPtr == n.id) &&
			hint != addr.NoNode && hint != n.id {
			st.OwnerPtr = hint
		}
		return st.rec
	}
	st := n.attach(o, b)
	st.OwnerPtr = hint
	return st.rec
}

// Forget drops all protocol state for o (the local replica was reclaimed).
func (n *Node) Forget(o addr.OID) {
	if r, ok := n.objs[o]; ok && r.Known() {
		n.detach(r)
	}
}

// DemoteToRouting turns o's state into a pure forwarding stub at the
// allocation site: the replica is gone but the ownerPtr chain must remain
// anchored here. Reports false if the node has no state or is the owner.
func (n *Node) DemoteToRouting(o addr.OID) bool {
	st := n.stateOf(o)
	if st == nil || st.Owner || st.OwnerPtr == addr.NoNode {
		return false
	}
	st.RoutingOnly = true
	st.Mode = ModeInvalid
	st.CopySet = nil
	return true
}

// IsRoutingOnly reports whether o's local state is a pure forwarding stub.
func (n *Node) IsRoutingOnly(o addr.OID) bool {
	st := n.stateOf(o)
	return st != nil && st.RoutingOnly
}

// AddEntering records that from's replica of o has an ownerPtr pointing at
// this node, stamped with from's table generation gen. Used when a node
// adopts a bunch replica wholesale (mapping): the adopted objects' ownerPtrs
// point at the serving node, which must treat them as collector roots until
// the mapper's tables say otherwise.
func (n *Node) AddEntering(o addr.OID, from addr.NodeID, gen uint64) {
	st := n.state(o)
	if !st.hasEntering(from) {
		// A fresh entry starts as an ordinary root; only the sender's next
		// table may mark it derivative.
		n.setEntering(st, from, gen)
	}
}

// SetEnteringDerivative records whether from's latest reachability table
// reported its replica of o as live only through scions created on this
// node's behalf. No-op when the entering entry does not exist.
func (n *Node) SetEnteringDerivative(o addr.OID, from addr.NodeID, derivative bool) {
	st := n.stateOf(o)
	if st == nil {
		return
	}
	if i, found := st.findEntering(from); found {
		st.Entering[i].Derivative = derivative
	}
}

// EnteringAllDerivative reports whether o has at least one entering entry
// and every one of them is marked derivative — i.e. every remote replica
// routing through this node is held live solely by scions this node's own
// stubs sustain.
func (n *Node) EnteringAllDerivative(o addr.OID) bool {
	st := n.stateOf(o)
	if st == nil || len(st.Entering) == 0 {
		return false
	}
	for _, e := range st.Entering {
		if !e.Derivative {
			return false
		}
	}
	return true
}

// ModeOf returns the node's token mode for o.
func (n *Node) ModeOf(o addr.OID) Mode { return n.objs[o].Mode() }

// IsOwner reports whether this node is o's owner.
func (n *Node) IsOwner(o addr.OID) bool { return n.objs[o].IsOwner() }

// OwnerPtrOf returns the node this replica's ownerPtr points at, or NoNode
// for owned or unknown objects.
func (n *Node) OwnerPtrOf(o addr.OID) addr.NodeID { return n.objs[o].OwnerPtr() }

// EnteringOf returns the nodes whose ownerPtr points at this node for o.
func (n *Node) EnteringOf(o addr.OID) []addr.NodeID {
	st := n.stateOf(o)
	if st == nil {
		return nil
	}
	out := make([]addr.NodeID, 0, len(st.Entering))
	for _, e := range st.Entering {
		out = append(out, e.Node)
	}
	return out
}

// EnteringRoots returns every object of bunch b with at least one entering
// ownerPtr at this node, in OID order; such objects are roots of the local
// bunch collector (§4.1).
func (n *Node) EnteringRoots(b addr.BunchID) []addr.OID {
	var out []addr.OID
	for _, r := range n.Members(b) {
		if r.HasEntering() {
			out = append(out, r.oid)
		}
	}
	return out
}

// NonOwnedLive returns every object of bunch b known at this node that the
// node does not own, with the ownerPtr target; the bunch collector derives
// the new exiting-ownerPtr list from these (§4.3). Routing-only stubs are
// excluded: they hold no replica to keep alive.
func (n *Node) NonOwnedLive(b addr.BunchID) map[addr.OID]addr.NodeID {
	out := make(map[addr.OID]addr.NodeID)
	for _, r := range n.Members(b) {
		if st := &r.st; r.Known() && !st.Owner && !st.RoutingOnly && st.OwnerPtr != addr.NoNode {
			out[r.oid] = st.OwnerPtr
		}
	}
	return out
}

// RemoveEnteringUpTo deletes, for every object of bunch b not in keep,
// from's entering entry if it was created at or before table generation gen;
// a newer entry is preserved (the table predates the acquire that created
// it). It visits only the entering index's (b, from) entries, and reports
// how many entries it removed.
func (n *Node) RemoveEnteringUpTo(b addr.BunchID, from addr.NodeID, gen uint64, keep map[addr.OID]bool) int {
	k := enterKey{b, from}
	set := n.entering[k]
	removed := 0
	for o, st := range set {
		if i, found := st.findEntering(from); found && st.Entering[i].Gen <= gen && !keep[o] {
			st.Entering = slices.Delete(st.Entering, i, i+1)
			delete(set, o)
			removed++
		}
	}
	if len(set) == 0 {
		delete(n.entering, k)
	}
	return removed
}

// ReplicaNodes lists the nodes o's state says hold a replica through this
// node, a node possibly twice: the copy-set and the entering ownerPtrs.
func (n *Node) ReplicaNodes(o addr.OID) []addr.NodeID { return n.objs[o].ReplicaNodes() }

// ForgetBunch drops the local protocol state of every object of bunch b.
func (n *Node) ForgetBunch(b addr.BunchID) {
	for _, r := range n.Members(b) {
		if r.Known() {
			n.detach(r)
		}
	}
}
