package dsm

import (
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
	// CopySet lists the nodes this node granted a read token to; copy-sets
	// are distributed among the granters, forming a tree rooted at the
	// owner (§2.2).
	CopySet map[addr.NodeID]bool
	// Entering records the nodes whose ownerPtr points directly at this
	// node, mapped to the sender-side table generation at creation time.
	// These entries are roots of the local bunch collector and the list of
	// nodes whose references must eventually be updated (§4.5); the scion
	// cleaner retires them using table messages (§6).
	Entering map[addr.NodeID]uint64
	// DerivEntering marks entering entries whose sender reported the remote
	// replica as live only through scions this node itself created
	// (TableMsg.Derivative). A group collection covering the sustaining
	// stubs may discount such entries as roots; everything else treats them
	// like ordinary entering entries.
	DerivEntering map[addr.NodeID]bool
	// RoutingOnly marks a forwarding stub kept at the object's allocation
	// site (its manager, in Li's terminology) after the local replica was
	// reclaimed: the site anchors every ownerPtr chain, so it must keep
	// routing until the owner reports the object globally dead. A
	// routing-only entry contributes nothing to exiting lists.
	RoutingOnly bool
}

func newObjState(b addr.BunchID) *ObjState {
	return &ObjState{
		Bunch:         b,
		Mode:          ModeInvalid,
		OwnerPtr:      addr.NoNode,
		CopySet:       make(map[addr.NodeID]bool),
		Entering:      make(map[addr.NodeID]uint64),
		DerivEntering: make(map[addr.NodeID]bool),
	}
}

// state returns the node's state for o, creating an invalid-mode entry
// routed at the directory's owner hint if the object was never seen.
func (n *Node) state(o addr.OID) *ObjState {
	if st, ok := n.objs[o]; ok {
		return st
	}
	st := newObjState(n.hooks.BunchOf(o))
	st.OwnerPtr = n.hooks.OwnerHint(o)
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
	st.CopySet = make(map[addr.NodeID]bool)
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
	if _, ok := st.Entering[from]; !ok {
		st.Entering[from] = gen
		// A fresh entry starts as an ordinary root; only the sender's next
		// table may mark it derivative.
		delete(st.DerivEntering, from)
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
	if _, ok := st.Entering[from]; !ok {
		return
	}
	if derivative {
		st.DerivEntering[from] = true
	} else {
		delete(st.DerivEntering, from)
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
	for from := range st.Entering {
		if !st.DerivEntering[from] {
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

// CopySetOf returns the nodes this node granted read tokens to for o.
func (n *Node) CopySetOf(o addr.OID) []addr.NodeID {
	st, ok := n.objs[o]
	if !ok {
		return nil
	}
	return sortedNodes(st.CopySet)
}

// EnteringOf returns the nodes whose ownerPtr points at this node for o.
func (n *Node) EnteringOf(o addr.OID) []addr.NodeID {
	st, ok := n.objs[o]
	if !ok {
		return nil
	}
	out := make([]addr.NodeID, 0, len(st.Entering))
	for id := range st.Entering {
		out = append(out, id)
	}
	slices.Sort(out)
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

// RemoveEnteringUpTo deletes the entering entry (o, from) if it was created
// at or before table generation gen; a newer entry is preserved (the table
// predates the acquire that created it). It reports whether an entry was
// removed.
func (n *Node) RemoveEnteringUpTo(o addr.OID, from addr.NodeID, gen uint64) bool {
	st, ok := n.objs[o]
	if !ok {
		return false
	}
	if g, ok := st.Entering[from]; ok && g <= gen {
		delete(st.Entering, from)
		delete(st.DerivEntering, from)
		return true
	}
	return false
}

// ObjectsInBunch returns every object of bunch b with local protocol state.
func (n *Node) ObjectsInBunch(b addr.BunchID) []addr.OID {
	var out []addr.OID
	for o, st := range n.objs {
		if st.Bunch == b {
			out = append(out, o)
		}
	}
	slices.Sort(out)
	return out
}

func sortedNodes(set map[addr.NodeID]bool) []addr.NodeID {
	out := make([]addr.NodeID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}
