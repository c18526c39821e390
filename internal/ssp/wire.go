package ssp

import (
	"bmx/internal/addr"
	"bmx/internal/transport"
)

// Wire codecs of the SSP message payloads, for transports that put messages
// on a real wire. PROTOCOL.md lists the layouts.
const (
	tagScion byte = 48 + iota
	tagTable
)

func init() {
	transport.RegisterPayload(tagScion, appendScionMsg, readScionMsg)
	transport.RegisterPayload(tagTable, appendTableMsg, readTableMsg)
}

func appendScionMsg(dst []byte, m ScionMsg) []byte {
	s := m.Scion
	dst = transport.AppendUvarint(dst, uint64(s.TargetOID))
	dst = transport.AppendUvarint(dst, uint64(s.TargetBunch))
	dst = transport.AppendUvarint(dst, uint64(s.SrcOID))
	dst = transport.AppendUvarint(dst, uint64(s.SrcBunch))
	dst = transport.AppendNodeID(dst, s.SrcNode)
	return transport.AppendUvarint(dst, s.CreatedGen)
}

func readScionMsg(r *transport.Reader) ScionMsg {
	return ScionMsg{Scion: InterScion{TargetOID: addr.OID(r.Uvarint()), TargetBunch: addr.BunchID(r.Uint32()),
		SrcOID: addr.OID(r.Uvarint()), SrcBunch: addr.BunchID(r.Uint32()), SrcNode: r.NodeID(),
		CreatedGen: r.Uvarint()}}
}

func appendTableMsg(dst []byte, m TableMsg) []byte {
	dst = transport.AppendNodeID(dst, m.From)
	dst = transport.AppendUvarint(dst, uint64(m.Bunch))
	dst = transport.AppendUvarint(dst, m.Gen)
	dst = transport.AppendSlice(dst, m.InterStubs, appendInterStub)
	dst = transport.AppendSlice(dst, m.IntraStubs, appendIntraStub)
	dst = transport.AppendUvarints(dst, m.Exiting)
	return transport.AppendUvarints(dst, m.Derivative)
}

func readTableMsg(r *transport.Reader) TableMsg {
	return TableMsg{From: r.NodeID(), Bunch: addr.BunchID(r.Uint32()), Gen: r.Uvarint(),
		InterStubs: transport.ReadSlice(r, 5, readInterStub),
		IntraStubs: transport.ReadSlice(r, 3, readIntraStub),
		Exiting:    transport.ReadUvarints[addr.OID](r),
		Derivative: transport.ReadUvarints[addr.OID](r)}
}

func appendInterStub(dst []byte, s InterStub) []byte {
	dst = transport.AppendUvarint(dst, uint64(s.SrcOID))
	dst = transport.AppendUvarint(dst, uint64(s.SrcBunch))
	dst = transport.AppendUvarint(dst, uint64(s.TargetOID))
	dst = transport.AppendUvarint(dst, uint64(s.TargetBunch))
	return transport.AppendNodeID(dst, s.ScionNode)
}

func readInterStub(r *transport.Reader) InterStub {
	return InterStub{SrcOID: addr.OID(r.Uvarint()), SrcBunch: addr.BunchID(r.Uint32()),
		TargetOID: addr.OID(r.Uvarint()), TargetBunch: addr.BunchID(r.Uint32()), ScionNode: r.NodeID()}
}

func appendIntraStub(dst []byte, s IntraStub) []byte {
	dst = transport.AppendUvarint(dst, uint64(s.OID))
	dst = transport.AppendUvarint(dst, uint64(s.Bunch))
	return transport.AppendNodeID(dst, s.OldOwner)
}

func readIntraStub(r *transport.Reader) IntraStub {
	return IntraStub{OID: addr.OID(r.Uvarint()), Bunch: addr.BunchID(r.Uint32()), OldOwner: r.NodeID()}
}
