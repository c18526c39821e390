package cluster

import (
	"bmx/internal/addr"
	"bmx/internal/core"
	"bmx/internal/mem"
	"bmx/internal/transport"
)

// Wire codecs of the cluster-level payloads — bunch mapping and the
// forwarded directory service — for the multi-process TCP transport.
// PROTOCOL.md lists the layouts.
const (
	tagMapBunchReq byte = 64 + iota
	tagMapBunchReply
	tagDirReq
	tagDirReply
)

func init() {
	transport.RegisterPayload(tagMapBunchReq, appendMapBunchReq, readMapBunchReq)
	transport.RegisterPayload(tagMapBunchReply, appendMapBunchReply, readMapBunchReply)
	transport.RegisterPayload(tagDirReq, appendDirReq, readDirReq)
	transport.RegisterPayload(tagDirReply, appendDirReply, readDirReply)
}

func appendMapBunchReq(dst []byte, q mapBunchReq) []byte {
	return transport.AppendUvarint(transport.AppendUvarint(dst, uint64(q.Bunch)), q.Gen)
}

func readMapBunchReq(r *transport.Reader) mapBunchReq {
	return mapBunchReq{Bunch: addr.BunchID(r.Uint32()), Gen: r.Uvarint()}
}

func appendMapBunchReply(dst []byte, p mapBunchReply) []byte {
	return transport.AppendSlice(dst, p.Images, appendSegImage)
}

func readMapBunchReply(r *transport.Reader) mapBunchReply {
	return mapBunchReply{Images: transport.ReadSlice(r, 7, readSegImage)}
}

func appendSegImage(dst []byte, img mem.SegImage) []byte {
	dst = transport.AppendUvarint(dst, uint64(img.ID))
	dst = transport.AppendUvarint(dst, uint64(img.Bunch))
	dst = transport.AppendUvarint(dst, uint64(img.Gen))
	dst = transport.AppendVarint(dst, int64(img.AllocOff))
	dst = transport.AppendUvarints(dst, img.Words)
	dst = transport.AppendUvarints(dst, img.ObjBits)
	return transport.AppendUvarints(dst, img.RefBits)
}

func readSegImage(r *transport.Reader) mem.SegImage {
	return mem.SegImage{ID: addr.SegID(r.Uint32()), Bunch: addr.BunchID(r.Uint32()), Gen: r.Uint32(),
		AllocOff: r.Int(), Words: transport.ReadUvarints[uint64](r),
		ObjBits: transport.ReadUvarints[uint64](r), RefBits: transport.ReadUvarints[uint64](r)}
}

func appendSegmentMeta(dst []byte, m mem.SegmentMeta) []byte {
	dst = transport.AppendUvarint(dst, uint64(m.ID))
	dst = transport.AppendUvarint(dst, uint64(m.Base))
	dst = transport.AppendUvarint(dst, uint64(m.Bunch))
	dst = transport.AppendVarint(dst, int64(m.Words))
	return transport.AppendUvarint(dst, uint64(m.Gen))
}

func readSegmentMeta(r *transport.Reader) mem.SegmentMeta {
	return mem.SegmentMeta{ID: addr.SegID(r.Uint32()), Base: addr.Addr(r.Uvarint()),
		Bunch: addr.BunchID(r.Uint32()), Words: r.Int(), Gen: r.Uint32()}
}

func appendObjInfo(dst []byte, in core.ObjInfo) []byte {
	dst = transport.AppendUvarint(dst, uint64(in.OID))
	dst = transport.AppendUvarint(dst, uint64(in.Bunch))
	dst = transport.AppendVarint(dst, int64(in.Size))
	dst = transport.AppendNodeID(dst, in.AllocNode)
	return transport.AppendUvarint(dst, uint64(in.AllocAddr))
}

func readObjInfo(r *transport.Reader) core.ObjInfo {
	return core.ObjInfo{OID: addr.OID(r.Uvarint()), Bunch: addr.BunchID(r.Uint32()), Size: r.Int(),
		AllocNode: r.NodeID(), AllocAddr: addr.Addr(r.Uvarint())}
}

func appendDirReq(dst []byte, q dirReq) []byte {
	dst = transport.AppendUvarint(dst, uint64(q.B))
	dst = transport.AppendNodeID(dst, q.Node)
	dst = transport.AppendUvarint(dst, uint64(q.Seg))
	dst = transport.AppendUvarint(dst, uint64(q.O))
	dst = transport.AppendUvarint(dst, uint64(q.A))
	return appendObjInfo(dst, q.Info)
}

func readDirReq(r *transport.Reader) dirReq {
	return dirReq{B: addr.BunchID(r.Uint32()), Node: r.NodeID(), Seg: addr.SegID(r.Uint32()),
		O: addr.OID(r.Uvarint()), A: addr.Addr(r.Uvarint()), Info: readObjInfo(r)}
}

func appendDirReply(dst []byte, p dirReply) []byte {
	dst = transport.AppendUvarint(dst, uint64(p.B))
	dst = transport.AppendUvarints(dst, p.Bs)
	dst = transport.AppendNodeID(dst, p.Node)
	dst = transport.AppendSlice(dst, p.Nodes, transport.AppendNodeID)
	dst = transport.AppendUvarint(dst, uint64(p.O))
	dst = transport.AppendUvarints(dst, p.OIDs)
	dst = appendSegmentMeta(dst, p.Meta)
	dst = transport.AppendSlice(dst, p.Metas, appendSegmentMeta)
	dst = appendObjInfo(dst, p.Info)
	return transport.AppendBool(dst, p.Ok)
}

func readDirReply(r *transport.Reader) dirReply {
	return dirReply{B: addr.BunchID(r.Uint32()), Bs: transport.ReadUvarints[addr.BunchID](r),
		Node: r.NodeID(), Nodes: transport.ReadSlice(r, 1, (*transport.Reader).NodeID),
		O: addr.OID(r.Uvarint()), OIDs: transport.ReadUvarints[addr.OID](r),
		Meta: readSegmentMeta(r), Metas: transport.ReadSlice(r, 5, readSegmentMeta),
		Info: readObjInfo(r), Ok: r.Bool()}
}
