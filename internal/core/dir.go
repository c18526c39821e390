package core

import (
	"bmx/internal/addr"
	"bmx/internal/mem"
)

// Dir is the cluster metadata service as the collector and cluster layers
// consume it. In the simulated single-process cluster it is the in-memory
// *Directory; in a multi-process deployment every node but the seed holds a
// proxy that forwards each method as an application-class message to the
// seed's Directory — a synchronous call, except the advisory SetOwnerHint,
// which is one-way — and mirrors segment metadata into a local allocator.
// The methods are exactly *Directory's exported set, so the simulated
// cluster's behaviour is untouched by the indirection.
type Dir interface {
	// Allocator returns the segment-address service backing this view of
	// the directory. For a remote proxy this is a local mirror: metadata
	// adopted on demand, with addresses identical cluster-wide because
	// segment IDs are issued centrally.
	Allocator() *mem.Allocator

	NewBunch(creator addr.NodeID) addr.BunchID
	Bunches() []addr.BunchID
	Creator(b addr.BunchID) addr.NodeID
	AddReplica(b addr.BunchID, node addr.NodeID)
	RemoveReplica(b addr.BunchID, node addr.NodeID)
	Replicas(b addr.BunchID) []addr.NodeID
	HasReplica(b addr.BunchID, node addr.NodeID) bool
	AddInterested(b addr.BunchID, node addr.NodeID)
	Holders(b addr.BunchID) []addr.NodeID

	AddSegment(b addr.BunchID) *mem.SegmentMeta
	RemoveSegment(b addr.BunchID, id addr.SegID)
	Segments(b addr.BunchID) []*mem.SegmentMeta

	NewOID() addr.OID
	RegisterObject(info ObjInfo)
	Object(o addr.OID) (ObjInfo, bool)
	SegmentPopulation(a addr.Addr) []addr.OID
	SetOwnerHint(o addr.OID, n addr.NodeID)
	Locate(o addr.OID) (addr.BunchID, addr.NodeID)
}

var _ Dir = (*Directory)(nil)
