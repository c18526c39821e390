// Package dsm implements the entry-consistency distributed shared memory
// protocol of the BMX platform (§2.2 of the paper): per-object read/write
// tokens with the traditional multiple-readers/single-writer model, dynamic
// distributed ownership in the style of Li's dynamic distributed manager
// with distributed copy-sets, and ownerPtr forwarding chains.
//
// The protocol guarantees that an object is consistent, with respect to
// previous operations on it, as long as a node holds the corresponding read
// or write token; otherwise the observed state of the object is undefined —
// which is precisely the weakness the paper's collector exploits (a GC may
// scan an inconsistent copy, never acquiring any token).
//
// The package also maintains the two GC-relevant by-products of the
// protocol: for every object, the set of entering ownerPtrs (nodes whose
// ownerPtr points here — a root of the bunch collector, and the list of
// nodes needing address updates, §4.5), and the hooks through which the
// three invariants of §5 are upheld at synchronization points:
//
//	(1) an acquire completes only after the object's address and the
//	    addresses of everything it directly references are valid at the
//	    acquiring node (manifests piggybacked on the grant reply);
//	(2) location updates are forwarded down distributed copy-sets;
//	(3) a write-token grant completes only after the necessary
//	    intra-bunch SSPs exist.
package dsm

import (
	"fmt"

	"bmx/internal/addr"
)

// Protocol selects the consistency protocol variant. The paper's design is
// entry consistency (§2.2), but the collector is "orthogonal to DSM
// consistency ... generally applicable to other consistency protocols"
// (§1), and generalizing to other protocols is the paper's stated future
// work (§10). ProtocolStrict is a sequentially-consistent variant without
// read caching: every read critical section revalidates with a token
// holder, and released read tokens are not retained. The collector code is
// byte-for-byte identical under both.
type Protocol int

const (
	// ProtocolEntry is the paper's entry consistency: tokens are cached
	// until another node claims them; read copy-sets are distributed.
	ProtocolEntry Protocol = iota
	// ProtocolStrict disables read-token caching: a read token is valid
	// for one critical section only (Release drops it), so every read
	// critical section revalidates with a token holder.
	ProtocolStrict
)

// String names the protocol.
func (p Protocol) String() string {
	switch p {
	case ProtocolEntry:
		return "entry"
	case ProtocolStrict:
		return "strict"
	default:
		return fmt.Sprintf("protocol(%d)", int(p))
	}
}

// Mode is a node's token state for one object.
type Mode int

const (
	// ModeInvalid means the local replica's content is undefined with
	// respect to the consistency protocol (it may still be scanned by the
	// collector).
	ModeInvalid Mode = iota
	// ModeRead means the node holds a read token: the copy is consistent.
	ModeRead
	// ModeWrite means the node holds the exclusive write token.
	ModeWrite
)

// String names the mode with the paper's figure letters (r, w, i).
func (m Mode) String() string {
	switch m {
	case ModeInvalid:
		return "i"
	case ModeRead:
		return "r"
	case ModeWrite:
		return "w"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Manifest is the location information shipped for one object: its identity,
// its current canonical address at the sender, its size and its bunch.
// Manifests piggybacked on grant replies are how invariant 1 is maintained;
// a manifest whose address differs from the receiver's canonical address is
// a location update (§4.4).
type Manifest struct {
	OID   addr.OID
	Addr  addr.Addr
	Size  int
	Bunch addr.BunchID
	// Epoch is the owner-side relocation counter of the object: each copy
	// by the owner's collector increments it. Receivers ignore manifests
	// older than what they already applied, so location information is
	// monotonic even when background messages from different senders
	// arrive out of order.
	Epoch uint64
}

// WireBytes is the simulated encoded size of a manifest.
func (m Manifest) WireBytes() int { return 32 }

// ObjectImage is an object's consistent contents as shipped with a token
// grant: the manifest plus data words and their reference-map bits. Refs
// is laid out as mem.Heap.ReadRange returns it and as the redo log stores
// it: bit i%64 of Refs[i/64] is word i's bit, in ⌈len(Words)/64⌉ words.
type ObjectImage struct {
	Manifest
	Words []uint64
	Refs  []uint64
}

// WireBytes is the simulated encoded size of the image.
func (img ObjectImage) WireBytes() int { return img.Manifest.WireBytes() + 9*len(img.Words) }

// IntraSSPReq asks the new owner of an object to create the intra-bunch
// stub matching the intra-bunch scion just created at the old owner
// (invariant 3, §5: "N1 creates the intra-bunch scion before it replies
// with the token-grant message, and piggy-backs a request for N2 to create
// the appropriate intra-bunch stub").
type IntraSSPReq struct {
	OID      addr.OID
	Bunch    addr.BunchID
	OldOwner addr.NodeID
	// Replicate, when non-empty, switches to the design alternative the
	// paper rejects in §3.2 (ablation A1): instead of an intra-bunch SSP,
	// the new owner creates fresh inter-bunch stubs for these references,
	// each requiring its own scion-message.
	Replicate []ReplicatedStub
}

// ReplicatedStub names one inter-bunch reference the new owner must
// re-stub under the A1 ablation.
type ReplicatedStub struct {
	SrcOID      addr.OID
	TargetOID   addr.OID
	TargetBunch addr.BunchID
}

// PathEntry names one node on the ownership-forwarding path of a write
// acquire, together with that node's next table generation for the bunch
// (used to stamp the entering-ownerPtr entry the new owner records for it,
// so a pre-collection table message cannot erase it).
type PathEntry struct {
	Node addr.NodeID
	Gen  uint64
}

// Hooks is the interface through which the protocol cooperates with the
// memory and collector layers without ever being driven by them: the
// collector never calls into dsm to acquire anything; dsm calls out to the
// collector to piggyback its information on consistency traffic.
type Hooks interface {
	// GrantManifests returns the manifests to piggyback when granting
	// object o: o itself plus every object o directly references, at
	// their current local canonical addresses (invariant 1).
	GrantManifests(o addr.OID) []Manifest
	// ApplyManifests installs shipped manifests locally: materializing
	// unknown objects, and treating a changed address as a location
	// update (copy local contents to the new address, leave a forwarding
	// pointer, §4.4). from is the sending node, used as an ownership hint
	// for newly learned objects.
	ApplyManifests(ms []Manifest, from addr.NodeID)
	// ObjectImage returns o's local contents for shipping with a grant.
	ObjectImage(o addr.OID) ObjectImage
	// InstallImage overwrites the local replica of the object with a
	// consistent image received with a token grant; ms are the grant's
	// manifests, which identify the image's pointer words (invariant 1).
	InstallImage(img ObjectImage, ms []Manifest, from addr.NodeID)
	// PrepareOwnershipTransfer runs at the old owner before a write
	// token is granted: if this node holds inter-bunch or intra-bunch
	// stubs for o, it creates the local intra-bunch scion (stamped with
	// newOwnerGen, the new owner's next table generation) and returns
	// the request for the new owner's matching stub. Returns nil when no
	// intra-bunch SSP is needed (invariant 3).
	PrepareOwnershipTransfer(o addr.OID, newOwner addr.NodeID, newOwnerGen uint64) *IntraSSPReq
	// ApplyIntraSSP creates the intra-bunch stub at the new owner.
	ApplyIntraSSP(req *IntraSSPReq)
	// OnOwnershipAcquired runs at a node that just became an object's
	// owner. Any intra-bunch scion it holds for the object is now
	// redundant — the owner's replica lives exactly as long as the object
	// lives anywhere (entering ownerPtrs feed its liveness) — and must be
	// dropped, or ownership revisits would weave self-sustaining
	// intra-bunch SSP cycles between old owners.
	OnOwnershipAcquired(o addr.OID)
	// TakePendingManifests drains the location updates queued for peer so
	// they can ride as piggyback on a consistency message about to be
	// sent there (§4.4: "an object's new address can be communicated to
	// other nodes by piggy-backing such information onto messages due to
	// the consistency protocol ... no extra message is used").
	TakePendingManifests(peer addr.NodeID) []Manifest
	// NextTableGen returns the generation of this node's next reachability
	// table for bunch b (stamps entering entries and scions created on
	// this node's behalf).
	NextTableGen(b addr.BunchID) uint64
	// Locate returns, in one directory lookup, the bunch of an object this
	// node has no protocol state for and a starting node for its ownerPtr
	// chain (the manager's probable owner, falling back to the allocation
	// site).
	Locate(o addr.OID) (addr.BunchID, addr.NodeID)
	// RouteCandidates returns every plausible chain target for o, most
	// likely first: the manager's probable owner, then every node holding
	// content of the object's bunch. The set must be a superset of the
	// possible owners — an owner necessarily holds content of the bunch —
	// so a chain that has visited every candidate without finding an owner
	// has proven the object unowned everywhere.
	RouteCandidates(o addr.OID) []addr.NodeID
	// Reestablish re-creates local storage for an object the protocol has
	// proven unowned on every node (reclaimed everywhere) but which a
	// still-live handle names: the persistent store faults it back in. It
	// reports false when the object is unknown to the cluster directory,
	// in which case the handle is truly dangling.
	Reestablish(o addr.OID) bool
}
