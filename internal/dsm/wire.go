package dsm

import (
	"bmx/internal/addr"
	"bmx/internal/transport"
)

// Wire codecs of the DSM payloads, for transports that put messages on a
// real wire (the simnet transport passes them as in-memory values). Field
// order is declaration order; PROTOCOL.md lists the layouts. Error sentinels
// that cross the wire register with the transport error registry so
// errors.Is keeps working on the far side of a Call.
const (
	tagAcquireReq byte = 16 + iota
	tagAcquireReply
	tagInvalidateReq
	tagLocBatch
)

func init() {
	transport.RegisterPayload(tagAcquireReq, appendAcquireReq, readAcquireReq)
	transport.RegisterPayload(tagAcquireReply, appendAcquireReply, readAcquireReply)
	transport.RegisterPayload(tagInvalidateReq, appendInvalidateReq, readInvalidateReq)
	transport.RegisterPayload(tagLocBatch, appendLocBatch, readLocBatch)
	transport.RegisterWireError("dsm.noOwner", ErrNoOwner)
}

// manifestMinBytes is the smallest encoding of a Manifest: five varints.
const manifestMinBytes = 5

// appendManifest appends the wire encoding of m.
func appendManifest(dst []byte, m Manifest) []byte {
	dst = transport.AppendUvarint(dst, uint64(m.OID))
	dst = transport.AppendUvarint(dst, uint64(m.Addr))
	dst = transport.AppendVarint(dst, int64(m.Size))
	dst = transport.AppendUvarint(dst, uint64(m.Bunch))
	return transport.AppendUvarint(dst, m.Epoch)
}

// readManifest reads what appendManifest wrote.
func readManifest(r *transport.Reader) Manifest {
	return Manifest{OID: addr.OID(r.Uvarint()), Addr: addr.Addr(r.Uvarint()), Size: r.Int(),
		Bunch: addr.BunchID(r.Uint32()), Epoch: r.Uvarint()}
}

// AppendManifests appends a count and every manifest of ms.
func AppendManifests(dst []byte, ms []Manifest) []byte {
	return transport.AppendSlice(dst, ms, appendManifest)
}

// ReadManifests reads what AppendManifests wrote; empty is nil.
func ReadManifests(r *transport.Reader) []Manifest {
	return transport.ReadSlice(r, manifestMinBytes, readManifest)
}

func appendMode(dst []byte, m Mode) []byte { return transport.AppendUvarint(dst, uint64(m)) }

func readMode(r *transport.Reader) Mode {
	m := Mode(r.Uvarint())
	if m < ModeInvalid || m > ModeWrite {
		r.Invalid("token mode")
		return ModeInvalid
	}
	return m
}

func appendAcquireReq(dst []byte, q acquireReq) []byte {
	dst = transport.AppendUvarint(dst, uint64(q.O))
	dst = appendMode(dst, q.Mode)
	dst = transport.AppendNodeID(dst, q.Requester)
	dst = transport.AppendUvarint(dst, q.RequesterGen)
	dst = transport.AppendClass(dst, q.Class)
	dst = transport.AppendVarint(dst, int64(q.Hops))
	dst = transport.AppendSlice(dst, q.Via, transport.AppendNodeID)
	return AppendManifests(dst, q.Piggyback)
}

func readAcquireReq(r *transport.Reader) acquireReq {
	return acquireReq{O: addr.OID(r.Uvarint()), Mode: readMode(r), Requester: r.NodeID(),
		RequesterGen: r.Uvarint(), Class: r.Class(), Hops: r.Int(),
		Via:       transport.ReadSlice(r, 1, (*transport.Reader).NodeID),
		Piggyback: ReadManifests(r)}
}

func appendAcquireReply(dst []byte, p acquireReply) []byte {
	dst = appendManifest(dst, p.Image.Manifest)
	dst = transport.AppendUvarints(dst, p.Image.Words)
	dst = transport.AppendUvarints(dst, p.Image.Refs)
	dst = AppendManifests(dst, p.Manifests)
	if dst = transport.AppendBool(dst, p.Intra != nil); p.Intra != nil {
		dst = appendIntraSSPReq(dst, *p.Intra)
	}
	dst = transport.AppendNodeID(dst, p.Granter)
	dst = transport.AppendVarint(dst, int64(p.Hops))
	return transport.AppendSlice(dst, p.Path, appendPathEntry)
}

func readAcquireReply(r *transport.Reader) acquireReply {
	var p acquireReply
	p.Image.Manifest = readManifest(r)
	p.Image.Words = transport.ReadUvarints[uint64](r)
	p.Image.Refs = transport.ReadUvarints[uint64](r)
	// The installer writes the whole object's words and mask as one range.
	if n := len(p.Image.Words); n != 0 && n != p.Image.Size ||
		len(p.Image.Refs) != (n+63)/64 ||
		n%64 != 0 && p.Image.Refs[n/64]>>(n%64) != 0 {
		r.Invalid("image words, size and mask disagree")
	}
	p.Manifests = ReadManifests(r)
	if r.Bool() {
		intra := readIntraSSPReq(r)
		p.Intra = &intra
	}
	p.Granter = r.NodeID()
	p.Hops = r.Int()
	p.Path = transport.ReadSlice(r, 2, readPathEntry)
	return p
}

func appendIntraSSPReq(dst []byte, q IntraSSPReq) []byte {
	dst = transport.AppendUvarint(dst, uint64(q.OID))
	dst = transport.AppendUvarint(dst, uint64(q.Bunch))
	dst = transport.AppendNodeID(dst, q.OldOwner)
	return transport.AppendSlice(dst, q.Replicate, appendReplicatedStub)
}

func readIntraSSPReq(r *transport.Reader) IntraSSPReq {
	return IntraSSPReq{OID: addr.OID(r.Uvarint()), Bunch: addr.BunchID(r.Uint32()), OldOwner: r.NodeID(),
		Replicate: transport.ReadSlice(r, 3, readReplicatedStub)}
}

func appendReplicatedStub(dst []byte, s ReplicatedStub) []byte {
	dst = transport.AppendUvarint(dst, uint64(s.SrcOID))
	dst = transport.AppendUvarint(dst, uint64(s.TargetOID))
	return transport.AppendUvarint(dst, uint64(s.TargetBunch))
}

func readReplicatedStub(r *transport.Reader) ReplicatedStub {
	return ReplicatedStub{SrcOID: addr.OID(r.Uvarint()), TargetOID: addr.OID(r.Uvarint()),
		TargetBunch: addr.BunchID(r.Uint32())}
}

func appendPathEntry(dst []byte, e PathEntry) []byte {
	return transport.AppendUvarint(transport.AppendNodeID(dst, e.Node), e.Gen)
}

func readPathEntry(r *transport.Reader) PathEntry {
	return PathEntry{Node: r.NodeID(), Gen: r.Uvarint()}
}

func appendInvalidateReq(dst []byte, q invalidateReq) []byte {
	return transport.AppendClass(transport.AppendUvarint(dst, uint64(q.O)), q.Class)
}

func readInvalidateReq(r *transport.Reader) invalidateReq {
	return invalidateReq{O: addr.OID(r.Uvarint()), Class: r.Class()}
}

func appendLocBatch(dst []byte, b LocBatchMsg) []byte {
	return transport.AppendSlice(transport.AppendNodeID(dst, b.From), b.Entries, appendLocMsg)
}

func readLocBatch(r *transport.Reader) LocBatchMsg {
	return LocBatchMsg{From: r.NodeID(), Entries: transport.ReadSlice(r, 3, readLocMsg)}
}

func appendLocMsg(dst []byte, m LocMsg) []byte {
	dst = transport.AppendUvarint(dst, uint64(m.O))
	dst = transport.AppendNodeID(dst, m.From)
	return AppendManifests(dst, m.Manifests)
}

func readLocMsg(r *transport.Reader) LocMsg {
	return LocMsg{O: addr.OID(r.Uvarint()), From: r.NodeID(), Manifests: ReadManifests(r)}
}
