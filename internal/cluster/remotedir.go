package cluster

import (
	"errors"
	"fmt"

	"bmx/internal/addr"
	"bmx/internal/core"
	"bmx/internal/mem"
	"bmx/internal/transport"
)

// The multi-process cluster keeps the paper's centralized metadata service:
// one process — the seed, node 0 — owns the real core.Directory, and every
// other process holds a remoteDir, a core.Dir proxy that forwards each
// method as an application-class message ("dir.*") to the seed. Every
// method is a synchronous call except SetOwnerHint: the hint is advisory
// (chains stay authoritative, and a late or lost hint names a past owner,
// which still lies on a sound transfer chain), so it goes one-way and no
// ownership change waits on the seed. Directory traffic is bookkeeping the
// simulated cluster performs through a shared in-memory object; it is
// deliberately application-class so the paper's §4.4 probe (no GC-class
// message on the critical path) measures the collector's protocol
// messages, not the deployment's metadata plumbing. The collector answers
// an object's bunch from its own DSM state (Collector.BunchOf), so only
// first contact with an object (dir.locate) puts a dir call on a mutator's
// path in steady state.
//
// Deadlock safety: dir messages are issued on the raw TCP transport — NOT
// the node's lock-releasing wrapper — so they may run while the caller
// holds its node lock. That is sound because serving a dir message takes
// no node lock anywhere: the seed answers from the Directory's own mutex on
// a transport goroutine (handleCall for calls, handleAsync for the one-way
// hint, both before the node lock), and the TCP transport serves every call
// on a fresh goroutine, so a seed blocked in its own outbound call cannot
// wedge the service.

// dirReq is the argument bundle of one forwarded directory method; which
// fields matter depends on the "dir.<method>" kind.
type dirReq struct {
	B    addr.BunchID
	Node addr.NodeID
	Seg  addr.SegID
	O    addr.OID
	A    addr.Addr
	Info core.ObjInfo
}

// dirReply is the result bundle. Metas travel by value; the proxy adopts
// them into its mirror allocator.
type dirReply struct {
	B     addr.BunchID
	Bs    []addr.BunchID
	Node  addr.NodeID
	Nodes []addr.NodeID
	O     addr.OID
	OIDs  []addr.OID
	Meta  mem.SegmentMeta
	Metas []mem.SegmentMeta
	Info  core.ObjInfo
	Ok    bool
}

func (r dirReply) wireBytes() int {
	return 16 + 8*(len(r.Bs)+len(r.Nodes)+len(r.OIDs)) + 40*len(r.Metas)
}

// serveDir answers one forwarded directory message against the
// authoritative directory. The seed's handlers call it before anything
// else; it never takes a node lock.
func serveDir(d *core.Directory, m transport.Msg) (any, int, error) {
	req, _ := m.Payload.(dirReq)
	rep := dirReply{}
	switch m.Kind {
	case "dir.newBunch":
		rep.B = d.NewBunch(req.Node)
	case "dir.bunches":
		rep.Bs = d.Bunches()
	case "dir.creator":
		rep.Node = d.Creator(req.B)
	case "dir.addReplica":
		d.AddReplica(req.B, req.Node)
	case "dir.removeReplica":
		d.RemoveReplica(req.B, req.Node)
	case "dir.replicas":
		rep.Nodes = d.Replicas(req.B)
	case "dir.hasReplica":
		rep.Ok = d.HasReplica(req.B, req.Node)
	case "dir.addInterested":
		d.AddInterested(req.B, req.Node)
	case "dir.holders":
		rep.Nodes = d.Holders(req.B)
	case "dir.addSegment":
		rep.Meta = *d.AddSegment(req.B)
		rep.Ok = true
	case "dir.removeSegment":
		d.RemoveSegment(req.B, req.Seg)
		if meta := d.Allocator().Meta(req.Seg); meta != nil {
			rep.Meta, rep.Ok = *meta, true
		}
	case "dir.segments":
		for _, meta := range d.Segments(req.B) {
			rep.Metas = append(rep.Metas, *meta)
		}
	case "dir.meta":
		if meta := d.Allocator().Meta(req.Seg); meta != nil {
			rep.Meta, rep.Ok = *meta, true
		}
	case "dir.newOID":
		rep.O = d.NewOID()
	case "dir.registerObject":
		d.RegisterObject(req.Info)
	case "dir.object":
		rep.Info, rep.Ok = d.Object(req.O)
	case "dir.segmentPopulation":
		rep.OIDs = d.SegmentPopulation(req.A)
	case "dir.setOwnerHint":
		d.SetOwnerHint(req.O, req.Node)
	case "dir.locate":
		rep.B, rep.Node = d.Locate(req.O)
	default:
		return nil, 0, fmt.Errorf("cluster: unknown dir call %q", m.Kind)
	}
	return rep, rep.wireBytes(), nil
}

// remoteDir is the proxy. Its mirror allocator resolves unseen segment
// descriptors through "dir.meta" on demand, so address arithmetic and
// segment mapping work identically to the shared-memory cluster.
type remoteDir struct {
	tr     transport.Transport
	self   addr.NodeID
	seed   addr.NodeID
	mirror *mem.Allocator
}

var _ core.Dir = (*remoteDir)(nil)

func newRemoteDir(tr transport.Transport, self, seed addr.NodeID, segWords int) *remoteDir {
	rd := &remoteDir{tr: tr, self: self, seed: seed, mirror: mem.NewAllocator(segWords)}
	rd.mirror.SetResolver(func(id addr.SegID) *mem.SegmentMeta {
		rep := rd.call("dir.meta", dirReq{Seg: id})
		if !rep.Ok {
			return nil
		}
		return &rep.Meta
	})
	return rd
}

// call forwards one directory method and panics on transport failure: the
// directory API has no error channel (the in-memory service cannot fail),
// and a peer that has lost its metadata authority cannot limp on. The one
// exception is this peer's own shutdown: a delivery still draining after
// Close gets the zero reply (no segment, no bunch, not found) instead.
func (rd *remoteDir) call(kind string, req dirReq) dirReply {
	raw, err := rd.tr.Call(transport.Msg{
		From: rd.self, To: rd.seed, Kind: kind, Class: transport.ClassApp,
		Payload: req, Bytes: 32,
	})
	if errors.Is(err, transport.ErrClosed) {
		return dirReply{}
	}
	if err != nil {
		panic(fmt.Sprintf("cluster: directory call %s to seed %v failed: %v", kind, rd.seed, err))
	}
	return raw.(dirReply)
}

func (rd *remoteDir) Allocator() *mem.Allocator { return rd.mirror }

func (rd *remoteDir) NewBunch(creator addr.NodeID) addr.BunchID {
	return rd.call("dir.newBunch", dirReq{Node: creator}).B
}

func (rd *remoteDir) Bunches() []addr.BunchID { return rd.call("dir.bunches", dirReq{}).Bs }

func (rd *remoteDir) Creator(b addr.BunchID) addr.NodeID {
	return rd.call("dir.creator", dirReq{B: b}).Node
}

func (rd *remoteDir) AddReplica(b addr.BunchID, node addr.NodeID) {
	rd.call("dir.addReplica", dirReq{B: b, Node: node})
}

func (rd *remoteDir) RemoveReplica(b addr.BunchID, node addr.NodeID) {
	rd.call("dir.removeReplica", dirReq{B: b, Node: node})
}

func (rd *remoteDir) Replicas(b addr.BunchID) []addr.NodeID {
	return rd.call("dir.replicas", dirReq{B: b}).Nodes
}

func (rd *remoteDir) HasReplica(b addr.BunchID, node addr.NodeID) bool {
	return rd.call("dir.hasReplica", dirReq{B: b, Node: node}).Ok
}

func (rd *remoteDir) AddInterested(b addr.BunchID, node addr.NodeID) {
	rd.call("dir.addInterested", dirReq{B: b, Node: node})
}

func (rd *remoteDir) Holders(b addr.BunchID) []addr.NodeID {
	return rd.call("dir.holders", dirReq{B: b}).Nodes
}

func (rd *remoteDir) AddSegment(b addr.BunchID) *mem.SegmentMeta {
	rep := rd.call("dir.addSegment", dirReq{B: b})
	return rd.mirror.Adopt(rep.Meta)
}

func (rd *remoteDir) RemoveSegment(b addr.BunchID, id addr.SegID) {
	rep := rd.call("dir.removeSegment", dirReq{B: b, Seg: id})
	if rep.Ok {
		rd.mirror.Adopt(rep.Meta) // refresh: the authority unbound its bunch
	}
}

func (rd *remoteDir) Segments(b addr.BunchID) []*mem.SegmentMeta {
	rep := rd.call("dir.segments", dirReq{B: b})
	out := make([]*mem.SegmentMeta, 0, len(rep.Metas))
	for _, meta := range rep.Metas {
		out = append(out, rd.mirror.Adopt(meta))
	}
	return out
}

func (rd *remoteDir) NewOID() addr.OID { return rd.call("dir.newOID", dirReq{}).O }

func (rd *remoteDir) RegisterObject(info core.ObjInfo) {
	rd.call("dir.registerObject", dirReq{Info: info})
}

func (rd *remoteDir) Object(o addr.OID) (core.ObjInfo, bool) {
	rep := rd.call("dir.object", dirReq{O: o})
	return rep.Info, rep.Ok
}

func (rd *remoteDir) SegmentPopulation(a addr.Addr) []addr.OID {
	return rd.call("dir.segmentPopulation", dirReq{A: a}).OIDs
}

// SetOwnerHint is the one one-way directory message: the caller does not
// wait for the seed. A send the transport refuses — a broken stream, or
// this peer already closed — loses the hint, which only leaves an older
// past owner as the chain's starting point.
func (rd *remoteDir) SetOwnerHint(o addr.OID, n addr.NodeID) {
	rd.tr.Send(transport.Msg{
		From: rd.self, To: rd.seed, Kind: "dir.setOwnerHint", Class: transport.ClassApp,
		Payload: dirReq{O: o, Node: n}, Bytes: 32,
	})
}

func (rd *remoteDir) Locate(o addr.OID) (addr.BunchID, addr.NodeID) {
	rep := rd.call("dir.locate", dirReq{O: o})
	return rep.B, rep.Node
}
