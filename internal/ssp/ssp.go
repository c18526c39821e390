// Package ssp implements stub-scion pairs (SSPs), the bookkeeping that
// isolates each bunch so it can be collected independently (§3 of the
// paper).
//
// Two kinds of SSP exist:
//
//   - An inter-bunch SSP describes a reference that crosses bunch
//     boundaries. The stub lives in the source bunch on the node where the
//     reference was created; the scion lives in the target bunch and acts as
//     a GC root there. A single inter-bunch SSP keeps the target alive in
//     the whole system even when the source object is cached on several
//     nodes (§3.1).
//
//   - An intra-bunch SSP records a dependency between two copies of the same
//     bunch: when the ownership of an object moves away from a node that
//     holds inter-bunch stubs created there, the intra-bunch SSP is the
//     forwarding link from the new owner (stub) back to the old owner
//     (scion), preserving the object's replica — and with it the inter-bunch
//     stubs — at the old owner (§3.1, Figure 1). It points opposite to the
//     corresponding ownerPtr.
//
// Unlike RPC-system SSPs, these perform no indirection and no marshaling;
// they are auxiliary tables describing relevant references (§3.1).
//
// Every scion carries a creation generation (CreatedGen): the table
// generation of the first bunch-collector table at the stub node that will
// list the matching stub. The scion cleaner only trusts a table's absence
// of a stub when the table's generation has reached the scion's creation
// generation, which resolves the race between scion-messages and table
// messages that the paper defers to Ferreira[9].
package ssp

import (
	"cmp"
	"fmt"
	"slices"

	"bmx/internal/addr"
)

// InterStub describes one outgoing cross-bunch reference held in the source
// bunch at the node where the reference was created (§3.2).
type InterStub struct {
	SrcOID      addr.OID     // object containing the cross-bunch reference
	SrcBunch    addr.BunchID // bunch of the source object
	TargetOID   addr.OID     // referenced object in another bunch
	TargetBunch addr.BunchID // bunch of the target object
	ScionNode   addr.NodeID  // node holding the matching scion
}

// Key identifies the stub within its bunch's table.
func (s InterStub) Key() InterStubKey { return InterStubKey{s.SrcOID, s.TargetOID} }

func (s InterStub) String() string {
	return fmt.Sprintf("stub(%v@%v -> %v@%v, scion at %v)",
		s.SrcOID, s.SrcBunch, s.TargetOID, s.TargetBunch, s.ScionNode)
}

// InterStubKey identifies an inter-bunch stub: one stub per (source object,
// target object) pair, regardless of how many fields reference the target.
type InterStubKey struct {
	SrcOID    addr.OID
	TargetOID addr.OID
}

// InterScion describes one incoming cross-bunch reference; it is a root of
// the target bunch's collector.
type InterScion struct {
	TargetOID   addr.OID
	TargetBunch addr.BunchID
	SrcOID      addr.OID
	SrcBunch    addr.BunchID
	SrcNode     addr.NodeID // node holding the matching stub
	CreatedGen  uint64      // stub node's table generation that first lists the stub
}

// Key identifies the scion within its bunch's table.
func (s InterScion) Key() InterScionKey {
	return InterScionKey{s.TargetOID, s.SrcOID, s.SrcNode}
}

func (s InterScion) String() string {
	return fmt.Sprintf("scion(%v@%v <- %v@%v at %v, gen %d)",
		s.TargetOID, s.TargetBunch, s.SrcOID, s.SrcBunch, s.SrcNode, s.CreatedGen)
}

// InterScionKey identifies an inter-bunch scion.
type InterScionKey struct {
	TargetOID addr.OID
	SrcOID    addr.OID
	SrcNode   addr.NodeID
}

// IntraStub lives at the current (or a later) owner of an object and keeps
// the object's replica alive at a previous owner that still holds
// inter-bunch stubs for it (§3.1).
type IntraStub struct {
	OID      addr.OID
	Bunch    addr.BunchID
	OldOwner addr.NodeID // node holding the matching intra-bunch scion
}

// Key identifies the intra-bunch stub.
func (s IntraStub) Key() IntraStubKey { return IntraStubKey{s.OID, s.OldOwner} }

func (s IntraStub) String() string {
	return fmt.Sprintf("intra-stub(%v@%v -> old owner %v)", s.OID, s.Bunch, s.OldOwner)
}

// IntraStubKey identifies an intra-bunch stub.
type IntraStubKey struct {
	OID      addr.OID
	OldOwner addr.NodeID
}

// IntraScion lives at a previous owner of an object; as long as it exists,
// the object's local replica is a GC root there (so the inter-bunch stubs
// allocated at that node stay meaningful).
type IntraScion struct {
	OID        addr.OID
	Bunch      addr.BunchID
	NewOwner   addr.NodeID // node holding the matching intra-bunch stub
	CreatedGen uint64
}

// Key identifies the intra-bunch scion.
func (s IntraScion) Key() IntraScionKey { return IntraScionKey{s.OID, s.NewOwner} }

func (s IntraScion) String() string {
	return fmt.Sprintf("intra-scion(%v@%v <- new owner %v, gen %d)",
		s.OID, s.Bunch, s.NewOwner, s.CreatedGen)
}

// IntraScionKey identifies an intra-bunch scion.
type IntraScionKey struct {
	OID      addr.OID
	NewOwner addr.NodeID
}

// Table holds the SSP state of one bunch replica at one node: the stub table
// (outgoing links) and the scion table (incoming references), for both SSP
// kinds (§3).
type Table struct {
	Bunch       addr.BunchID
	InterStubs  map[InterStubKey]InterStub
	IntraStubs  map[IntraStubKey]IntraStub
	InterScions map[InterScionKey]InterScion
	IntraScions map[IntraScionKey]IntraScion
}

// NewTable returns an empty SSP table for bunch b.
func NewTable(b addr.BunchID) *Table {
	return &Table{
		Bunch:       b,
		InterStubs:  make(map[InterStubKey]InterStub),
		IntraStubs:  make(map[IntraStubKey]IntraStub),
		InterScions: make(map[InterScionKey]InterScion),
		IntraScions: make(map[IntraScionKey]IntraScion),
	}
}

// AddInterStub inserts (or overwrites) an inter-bunch stub.
func (t *Table) AddInterStub(s InterStub) { t.InterStubs[s.Key()] = s }

// AddIntraStub inserts (or overwrites) an intra-bunch stub.
func (t *Table) AddIntraStub(s IntraStub) { t.IntraStubs[s.Key()] = s }

// AddInterScion inserts an inter-bunch scion unless a matching one already
// exists (scion creation is idempotent so scion-messages may be re-sent).
func (t *Table) AddInterScion(s InterScion) {
	if _, ok := t.InterScions[s.Key()]; !ok {
		t.InterScions[s.Key()] = s
	}
}

// AddIntraScion inserts an intra-bunch scion unless a matching one exists.
func (t *Table) AddIntraScion(s IntraScion) {
	if _, ok := t.IntraScions[s.Key()]; !ok {
		t.IntraScions[s.Key()] = s
	}
}

// InterStubList returns the inter-bunch stubs in deterministic order.
func (t *Table) InterStubList() []InterStub {
	out := make([]InterStub, 0, len(t.InterStubs))
	for _, s := range t.InterStubs {
		out = append(out, s)
	}
	slices.SortFunc(out, func(a, b InterStub) int {
		if c := cmp.Compare(a.SrcOID, b.SrcOID); c != 0 {
			return c
		}
		return cmp.Compare(a.TargetOID, b.TargetOID)
	})
	return out
}

// IntraStubList returns the intra-bunch stubs in deterministic order.
func (t *Table) IntraStubList() []IntraStub {
	out := make([]IntraStub, 0, len(t.IntraStubs))
	for _, s := range t.IntraStubs {
		out = append(out, s)
	}
	slices.SortFunc(out, func(a, b IntraStub) int {
		if c := cmp.Compare(a.OID, b.OID); c != 0 {
			return c
		}
		return cmp.Compare(a.OldOwner, b.OldOwner)
	})
	return out
}

// InterScionList returns the inter-bunch scions in deterministic order.
func (t *Table) InterScionList() []InterScion {
	out := make([]InterScion, 0, len(t.InterScions))
	for _, s := range t.InterScions {
		out = append(out, s)
	}
	slices.SortFunc(out, func(a, b InterScion) int {
		if c := cmp.Compare(a.TargetOID, b.TargetOID); c != 0 {
			return c
		}
		if c := cmp.Compare(a.SrcOID, b.SrcOID); c != 0 {
			return c
		}
		return cmp.Compare(a.SrcNode, b.SrcNode)
	})
	return out
}

// IntraScionList returns the intra-bunch scions in deterministic order.
func (t *Table) IntraScionList() []IntraScion {
	out := make([]IntraScion, 0, len(t.IntraScions))
	for _, s := range t.IntraScions {
		out = append(out, s)
	}
	slices.SortFunc(out, func(a, b IntraScion) int {
		if c := cmp.Compare(a.OID, b.OID); c != 0 {
			return c
		}
		return cmp.Compare(a.NewOwner, b.NewOwner)
	})
	return out
}

// IntraScionRootOIDs returns the set of objects kept alive by intra-bunch
// scions (weak GC roots, §6.2) in this table.
func (t *Table) IntraScionRootOIDs() []addr.OID {
	set := make(map[addr.OID]bool)
	for _, s := range t.IntraScions {
		set[s.OID] = true
	}
	return sortedOIDs(set)
}

func sortedOIDs(set map[addr.OID]bool) []addr.OID {
	out := make([]addr.OID, 0, len(set))
	for o := range set {
		out = append(out, o)
	}
	slices.Sort(out)
	return out
}

// TableMsg is the reachability message a bunch collector sends after
// rebuilding its stub table (§4.3, §6.1). It is a complete snapshot of the
// sender's stubs relevant to one destination, which makes it idempotent: in
// case of loss it can simply be re-sent, and a newer snapshot subsumes any
// lost older one. Gen orders snapshots from one sender; FIFO delivery plus
// the generation check prevent an old table from deleting a newer scion.
type TableMsg struct {
	From  addr.NodeID
	Bunch addr.BunchID
	Gen   uint64
	// InterStubs are the sender's inter-bunch stubs whose scion lives at
	// the destination.
	InterStubs []InterStub
	// IntraStubs are the sender's intra-bunch stubs whose scion lives at
	// the destination.
	IntraStubs []IntraStub
	// Exiting lists the objects of this bunch for which the sender holds a
	// live non-owned replica whose ownerPtr points at the destination
	// (§4.3: the new set of exiting ownerPtrs).
	Exiting []addr.OID
	// Derivative marks the subset of Exiting whose liveness at the sender
	// stems solely from inter-bunch scions created on the destination's own
	// behalf (SrcNode == destination). Such an entering ownerPtr is an echo
	// of the destination's own stubs: during a group collection that covers
	// those stubs, the destination may discount it as a root — the §6.2
	// replica-cycle rule extended to inter-bunch SSPs, which is what lets a
	// co-mapped cross-node cycle die (§7).
	Derivative []addr.OID
}

// WireBytes estimates the message's simulated size for accounting.
func (m TableMsg) WireBytes() int {
	const entry = 24
	return 16 + entry*(len(m.InterStubs)+len(m.IntraStubs)) + 8*len(m.Exiting) + 8*len(m.Derivative)
}

// ScionMsg asks the node mapping the target bunch to create the scion that
// matches a freshly created inter-bunch stub (§3.2).
type ScionMsg struct {
	Scion InterScion
}

// WireBytes estimates the message's simulated size for accounting.
func (m ScionMsg) WireBytes() int { return 40 }
