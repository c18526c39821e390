package dsm

import (
	"cmp"
	"slices"

	"bmx/internal/addr"
)

// ObjState is one node's protocol state for one object.
type ObjState struct {
	Bunch addr.BunchID
	Mode  Mode
	// Owner marks the node currently holding the object's write token, or
	// the node that last held it (§2.2).
	Owner bool
	// OwnerPtr is the forwarding pointer toward the owner, valid when
	// !Owner (§2.2: "a forwarding pointer mechanism indicating which node
	// is the current object's owner").
	OwnerPtr addr.NodeID
	// CopySet lists, ascending, the nodes this node granted a read token
	// to; copy-sets are distributed among the granters, forming a tree
	// rooted at the owner (§2.2).
	CopySet []addr.NodeID
	// Entering lists, ascending by node, the nodes whose ownerPtr points
	// directly at this node. These entries are roots of the local bunch
	// collector and the list of nodes whose references must eventually be
	// updated (§4.5); the scion cleaner retires them using table messages
	// (§6).
	Entering []EnteringPtr
	// RoutingOnly marks a forwarding stub kept at the object's allocation
	// site (its manager, in Li's terminology) after the local replica was
	// reclaimed: the site anchors every ownerPtr chain, so it must keep
	// routing until the owner reports the object globally dead. A
	// routing-only entry contributes nothing to exiting lists.
	RoutingOnly bool
}

// EnteringPtr is one entering ownerPtr: a node whose replica's ownerPtr
// points here.
type EnteringPtr struct {
	Node addr.NodeID
	// Gen is the sender-side table generation when the entry was created.
	Gen uint64
	// Derivative marks an entry whose sender reported its replica as live
	// only through scions this node itself created (TableMsg.Derivative). A
	// group collection covering the sustaining stubs may discount such
	// entries as roots; everything else treats them like ordinary entries.
	Derivative bool
}

// newObjState returns an invalid-mode state with no route. Copy-set and
// entering list are small sorted slices, nil until their first insert:
// most objects a node knows never gain a reader or an entering ownerPtr,
// and an object that does rarely has more than a few.
func newObjState(b addr.BunchID) *ObjState {
	return &ObjState{Bunch: b, Mode: ModeInvalid, OwnerPtr: addr.NoNode}
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
// ordinary root: a fresh entry is never derivative.
func (st *ObjState) setEntering(from addr.NodeID, gen uint64) {
	e := EnteringPtr{Node: from, Gen: gen}
	if i, found := st.findEntering(from); found {
		st.Entering[i] = e
	} else {
		st.Entering = slices.Insert(st.Entering, i, e)
	}
}

// dropEntering removes from's entering entry.
func (st *ObjState) dropEntering(from addr.NodeID) {
	if i, found := st.findEntering(from); found {
		st.Entering = slices.Delete(st.Entering, i, i+1)
	}
}

// state returns the node's state for o, creating an invalid-mode entry
// routed at the directory's owner hint if the object was never seen.
func (n *Node) state(o addr.OID) *ObjState {
	if st, ok := n.objs[o]; ok {
		return st
	}
	b, hint := n.hooks.Locate(o)
	st := newObjState(b)
	st.OwnerPtr = hint
	n.objs[o] = st
	return st
}

// Knows reports whether the node has any protocol state for o.
func (n *Node) Knows(o addr.OID) bool {
	_, ok := n.objs[o]
	return ok
}

// RegisterNew records a freshly allocated object: the allocating node owns
// it and holds its write token.
func (n *Node) RegisterNew(o addr.OID, b addr.BunchID) {
	st := newObjState(b)
	st.Mode = ModeWrite
	st.Owner = true
	n.objs[o] = st
	n.heat.NoteOwner(o, n.id)
}

// KnownBunch returns the bunch recorded for o, or addr.NoBunch when the
// node has no protocol state for it — unlike state(o) it never creates an
// entry, so observability layers can ask freely.
func (n *Node) KnownBunch(o addr.OID) addr.BunchID {
	if st, ok := n.objs[o]; ok {
		return st.Bunch
	}
	return addr.NoBunch
}

// Learn records that o exists (from a manifest), with hint as the first
// guess for the ownerPtr chain. Existing state is left untouched — except a
// broken route (an ownerPtr pointing nowhere or at this node itself, as a
// state recreated from the local allocation-site hint after a reclaim has),
// which the fresher hint repairs.
func (n *Node) Learn(o addr.OID, b addr.BunchID, hint addr.NodeID) {
	if st, ok := n.objs[o]; ok {
		if !st.Owner && (st.OwnerPtr == addr.NoNode || st.OwnerPtr == n.id) &&
			hint != addr.NoNode && hint != n.id {
			st.OwnerPtr = hint
		}
		return
	}
	st := newObjState(b)
	st.OwnerPtr = hint
	n.objs[o] = st
}

// Forget drops all protocol state for o (the local replica was reclaimed).
func (n *Node) Forget(o addr.OID) { delete(n.objs, o) }

// DemoteToRouting turns o's state into a pure forwarding stub at the
// allocation site: the replica is gone but the ownerPtr chain must remain
// anchored here. Reports false if the node has no state or is the owner.
func (n *Node) DemoteToRouting(o addr.OID) bool {
	st, ok := n.objs[o]
	if !ok || st.Owner || st.OwnerPtr == addr.NoNode {
		return false
	}
	st.RoutingOnly = true
	st.Mode = ModeInvalid
	st.CopySet = nil
	return true
}

// IsRoutingOnly reports whether o's local state is a pure forwarding stub.
func (n *Node) IsRoutingOnly(o addr.OID) bool {
	st, ok := n.objs[o]
	return ok && st.RoutingOnly
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
		st.setEntering(from, gen)
	}
}

// SetEnteringDerivative records whether from's latest reachability table
// reported its replica of o as live only through scions created on this
// node's behalf. No-op when the entering entry does not exist.
func (n *Node) SetEnteringDerivative(o addr.OID, from addr.NodeID, derivative bool) {
	st, ok := n.objs[o]
	if !ok {
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
	st, ok := n.objs[o]
	if !ok || len(st.Entering) == 0 {
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
func (n *Node) ModeOf(o addr.OID) Mode {
	if st, ok := n.objs[o]; ok {
		return st.Mode
	}
	return ModeInvalid
}

// IsOwner reports whether this node is o's owner.
func (n *Node) IsOwner(o addr.OID) bool {
	st, ok := n.objs[o]
	return ok && st.Owner
}

// OwnerPtrOf returns the node this replica's ownerPtr points at, or NoNode
// for owned or unknown objects.
func (n *Node) OwnerPtrOf(o addr.OID) addr.NodeID {
	st, ok := n.objs[o]
	if !ok || st.Owner {
		return addr.NoNode
	}
	return st.OwnerPtr
}

// EnteringOf returns the nodes whose ownerPtr points at this node for o.
func (n *Node) EnteringOf(o addr.OID) []addr.NodeID {
	st, ok := n.objs[o]
	if !ok {
		return nil
	}
	out := make([]addr.NodeID, 0, len(st.Entering))
	for _, e := range st.Entering {
		out = append(out, e.Node)
	}
	return out
}

// EnteringRoots returns every object of bunch b with at least one entering
// ownerPtr at this node; such objects are roots of the local bunch
// collector (§4.1).
func (n *Node) EnteringRoots(b addr.BunchID) []addr.OID {
	var out []addr.OID
	for o, st := range n.objs {
		if st.Bunch == b && len(st.Entering) > 0 {
			out = append(out, o)
		}
	}
	slices.Sort(out)
	return out
}

// NonOwnedLive returns every object of bunch b known at this node that the
// node does not own, with the ownerPtr target; the bunch collector derives
// the new exiting-ownerPtr list from these (§4.3). Routing-only stubs are
// excluded: they hold no replica to keep alive.
func (n *Node) NonOwnedLive(b addr.BunchID) map[addr.OID]addr.NodeID {
	out := make(map[addr.OID]addr.NodeID)
	for o, st := range n.objs {
		if st.Bunch == b && !st.Owner && !st.RoutingOnly && st.OwnerPtr != addr.NoNode {
			out[o] = st.OwnerPtr
		}
	}
	return out
}

// RemoveEnteringUpTo deletes, for every object of bunch b not in keep,
// from's entering entry if it was created at or before table generation gen;
// a newer entry is preserved (the table predates the acquire that created
// it). It reports how many entries it removed.
func (n *Node) RemoveEnteringUpTo(b addr.BunchID, from addr.NodeID, gen uint64, keep map[addr.OID]bool) int {
	removed := 0
	for o, st := range n.objs {
		if len(st.Entering) == 0 || st.Bunch != b {
			continue
		}
		if i, found := st.findEntering(from); found && st.Entering[i].Gen <= gen && !keep[o] {
			st.Entering = slices.Delete(st.Entering, i, i+1)
			removed++
		}
	}
	return removed
}

// ReplicaNodes lists the nodes o's state says hold a replica through this
// node, a node possibly twice: the copy-set and the entering ownerPtrs.
func (n *Node) ReplicaNodes(o addr.OID) []addr.NodeID {
	var out []addr.NodeID
	if st, ok := n.objs[o]; ok {
		out = slices.Clone(st.CopySet)
		for _, e := range st.Entering {
			out = append(out, e.Node)
		}
	}
	return out
}

// ForEachObjectInBunch calls f with every object of bunch b with local
// protocol state, in no particular order. f must not create or forget
// protocol state.
func (n *Node) ForEachObjectInBunch(b addr.BunchID, f func(o addr.OID)) {
	for o, st := range n.objs {
		if st.Bunch == b {
			f(o)
		}
	}
}

// ForgetBunch drops the local protocol state of every object of bunch b.
func (n *Node) ForgetBunch(b addr.BunchID) {
	for o, st := range n.objs {
		if st.Bunch == b {
			delete(n.objs, o)
		}
	}
}
