package core

import (
	"bmx/internal/addr"
	"bmx/internal/dsm"
	"bmx/internal/transport"
)

// Wire codecs of the collector's message payloads, for transports that put
// messages on a real wire (the simnet transport passes them as in-memory
// values and needs none of this). PROTOCOL.md lists the layouts.
const (
	tagLocFlush byte = 32 + iota
	tagDeadNotice
	tagCopyOutReq
	tagCopyOutReply
	tagAddrChange
)

func init() {
	transport.RegisterPayload(tagLocFlush, appendLocFlush, readLocFlush)
	transport.RegisterPayload(tagDeadNotice, appendDeadNotice, readDeadNotice)
	transport.RegisterPayload(tagCopyOutReq, appendCopyOutReq, readCopyOutReq)
	transport.RegisterPayload(tagCopyOutReply, appendCopyOutReply, readCopyOutReply)
	transport.RegisterPayload(tagAddrChange, appendAddrChange, readAddrChange)
}

func appendLocFlush(dst []byte, m LocFlushMsg) []byte {
	return dsm.AppendManifests(transport.AppendNodeID(dst, m.From), m.Manifests)
}

func readLocFlush(r *transport.Reader) LocFlushMsg {
	return LocFlushMsg{From: r.NodeID(), Manifests: dsm.ReadManifests(r)}
}

func appendDeadNotice(dst []byte, m DeadNoticeMsg) []byte {
	return transport.AppendUvarints(transport.AppendNodeID(dst, m.From), m.OIDs)
}

func readDeadNotice(r *transport.Reader) DeadNoticeMsg {
	return DeadNoticeMsg{From: r.NodeID(), OIDs: transport.ReadUvarints[addr.OID](r)}
}

func appendCopyOutReq(dst []byte, m CopyOutReq) []byte {
	return transport.AppendUvarints(transport.AppendNodeID(dst, m.From), m.OIDs)
}

func readCopyOutReq(r *transport.Reader) CopyOutReq {
	return CopyOutReq{From: r.NodeID(), OIDs: transport.ReadUvarints[addr.OID](r)}
}

func appendOID(dst []byte, o addr.OID) []byte { return transport.AppendUvarint(dst, uint64(o)) }

func readOID(r *transport.Reader) addr.OID { return addr.OID(r.Uvarint()) }

func appendCopyOutReply(dst []byte, m CopyOutReply) []byte {
	dst = dsm.AppendManifests(dst, m.Manifests)
	return transport.AppendMap(dst, m.NotOwned, appendOID, transport.AppendNodeID)
}

func readCopyOutReply(r *transport.Reader) CopyOutReply {
	return CopyOutReply{Manifests: dsm.ReadManifests(r),
		NotOwned: transport.ReadMap(r, 2, readOID, (*transport.Reader).NodeID)}
}

func appendAddrChange(dst []byte, m AddrChangeMsg) []byte {
	dst = transport.AppendNodeID(dst, m.From)
	dst = transport.AppendUvarint(dst, uint64(m.Bunch))
	dst = transport.AppendUvarints(dst, m.Segs)
	dst = dsm.AppendManifests(dst, m.Manifests)
	return transport.AppendSlice(dst, m.Headers, appendSegHeader)
}

func readAddrChange(r *transport.Reader) AddrChangeMsg {
	return AddrChangeMsg{From: r.NodeID(), Bunch: addr.BunchID(r.Uint32()),
		Segs: transport.ReadUvarints[addr.SegID](r), Manifests: dsm.ReadManifests(r),
		Headers: transport.ReadSlice(r, 2, readSegHeader)}
}

func appendSegHeader(dst []byte, h SegHeader) []byte {
	return transport.AppendUvarint(transport.AppendUvarint(dst, uint64(h.Old)), uint64(h.OID))
}

func readSegHeader(r *transport.Reader) SegHeader {
	return SegHeader{Old: addr.Addr(r.Uvarint()), OID: readOID(r)}
}
