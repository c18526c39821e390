package main

import (
	"bmx/internal/addr"
	"bmx/internal/obs/heat"
	"bmx/internal/transport"
)

// Wire codecs of the driver-protocol payloads (ctl.*), for the TCP
// transport. PROTOCOL.md lists the layouts.
const (
	tagCtlMapReq byte = 80 + iota
	tagCtlMutateReq
	tagCtlAck
	tagCtlStatsReply
	tagCtlHeatReply
)

func init() {
	transport.RegisterPayload(tagCtlMapReq,
		func(dst []byte, q ctlMapReq) []byte { return transport.AppendUvarint(dst, uint64(q.Bunch)) },
		func(r *transport.Reader) ctlMapReq { return ctlMapReq{Bunch: addr.BunchID(r.Uint32())} })
	transport.RegisterPayload(tagCtlMutateReq,
		func(dst []byte, q ctlMutateReq) []byte {
			return transport.AppendUvarint(transport.AppendUvarints(dst, q.OIDs), q.Round)
		},
		func(r *transport.Reader) ctlMutateReq {
			return ctlMutateReq{OIDs: transport.ReadUvarints[uint64](r), Round: r.Uvarint()}
		})
	transport.RegisterPayload(tagCtlAck,
		func(dst []byte, _ ctlAck) []byte { return dst },
		func(*transport.Reader) ctlAck { return ctlAck{} })
	transport.RegisterPayload(tagCtlStatsReply,
		func(dst []byte, p ctlStatsReply) []byte {
			return transport.AppendMap(dst, p.Counters, transport.AppendString, transport.AppendVarint)
		},
		func(r *transport.Reader) ctlStatsReply {
			return ctlStatsReply{Counters: transport.ReadMap(r, 2, (*transport.Reader).Str, (*transport.Reader).Varint)}
		})
	transport.RegisterPayload(tagCtlHeatReply,
		func(dst []byte, p ctlHeatReply) []byte { return transport.AppendSlice(dst, p.Rows, appendHeatRow) },
		func(r *transport.Reader) ctlHeatReply {
			return ctlHeatReply{Rows: transport.ReadSlice(r, 10, readHeatRow)}
		})
}

func appendHeatRow(dst []byte, row heat.Row) []byte {
	dst = transport.AppendUvarint(dst, row.OID)
	dst = transport.AppendUvarint(dst, uint64(row.Bunch))
	dst = transport.AppendNodeID(dst, addr.NodeID(row.Node))
	for _, v := range [...]uint64{row.Reads, row.Writes, row.Acquires, row.Remote, row.Hops} {
		dst = transport.AppendUvarint(dst, v)
	}
	if dst = transport.AppendBool(dst, row.Owner != nil); row.Owner != nil {
		dst = transport.AppendNodeID(dst, addr.NodeID(*row.Owner))
	}
	return transport.AppendUvarint(dst, row.OwnerTick)
}

func readHeatRow(r *transport.Reader) heat.Row {
	row := heat.Row{OID: r.Uvarint(), Bunch: r.Uint32(), Node: int32(r.NodeID()),
		Reads: r.Uvarint(), Writes: r.Uvarint(), Acquires: r.Uvarint(), Remote: r.Uvarint(), Hops: r.Uvarint()}
	if r.Bool() {
		owner := int32(r.NodeID())
		row.Owner = &owner
	}
	row.OwnerTick = r.Uvarint()
	return row
}
