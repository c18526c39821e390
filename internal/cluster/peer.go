package cluster

import (
	"fmt"
	"sort"
	"time"

	"bmx/internal/addr"
	"bmx/internal/core"
	"bmx/internal/mem"
	"bmx/internal/obs"
	"bmx/internal/transport"
	"bmx/internal/transport/tcp"
)

// PeerConfig assembles one process of a multi-process cluster: a single
// node over the real TCP transport. Every process is given the same address
// set — its own listen address plus every other process's — and node
// identity follows from it deterministically: sort all addresses, your rank
// is your NodeID. The rank-0 process is the seed: it owns the authoritative
// core.Directory and serves the other processes' "dir.*" messages; everyone
// else holds a remoteDir proxy. No further coordination is needed to boot.
// Peers run entry consistency.
type PeerConfig struct {
	// Listen is this process's address, exactly as the other processes
	// name it in their Peers list (the NodeID derivation compares the
	// strings, so ":0" or unequal spellings would break identity).
	Listen string
	// Peers are the other processes' listen addresses.
	Peers []string

	SegWords int // segment size in words; default 256
	Seed     int64
}

// Peer is one process's share of a multi-process cluster: a Cluster holding
// exactly one Node, plus the seed/proxy directory wiring and a control-call
// hook for a driver protocol layered on top ("ctl.*" kinds).
type Peer struct {
	cl *Cluster
	n  *Node
	tr *tcp.Transport
}

// NewPeer builds this process's node and starts listening. The returned
// peer is live immediately; use WaitReady to block until the whole cluster
// is mutually connected.
func NewPeer(cfg PeerConfig) (*Peer, error) {
	all := append(append([]string(nil), cfg.Peers...), cfg.Listen)
	sort.Strings(all)
	for i := 1; i < len(all); i++ {
		if all[i] == all[i-1] {
			return nil, fmt.Errorf("cluster: duplicate peer address %q", all[i])
		}
	}
	id := addr.NodeID(sort.SearchStrings(all, cfg.Listen))
	tr, err := tcp.New(tcp.Options{Listen: cfg.Listen, Peers: cfg.Peers, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	cl := &Cluster{
		cfg: Config{Nodes: len(all), SegWords: cfg.SegWords, Seed: cfg.Seed}.withDefaults(),
		net: tr,
	}
	if id == 0 {
		cl.dir = core.NewDirectory(mem.NewAllocator(cl.cfg.SegWords))
	} else {
		cl.dir = newRemoteDir(tr, id, 0, cl.cfg.SegWords)
	}
	return &Peer{cl: cl, n: cl.newNode(id), tr: tr}, nil
}

// SetControl installs the driver's handler for "ctl.*" calls.
func (p *Peer) SetControl(h transport.CallHandler) { p.cl.ctl.Store(&h) }

// Control sends one driver-protocol call to another process's node. The
// call runs under a ctl.drive span, so everything the remote node does to
// serve it — including any cross-process acquires — traces back here.
func (p *Peer) Control(to addr.NodeID, kind string, payload any, bytes int) (any, error) {
	defer p.n.rec.StartSpan(obs.OpCtl, addr.NilOID).End()
	return p.tr.Call(transport.Msg{
		From: p.n.id, To: to, Kind: kind, Class: transport.ClassApp,
		Payload: payload, Bytes: bytes,
	})
}

// WaitReady blocks until every other process's node is routable.
func (p *Peer) WaitReady(timeout time.Duration) error {
	return p.tr.WaitForNodes(p.Size()-1, timeout)
}

// ID returns this process's node identity (its rank in the sorted address
// set).
func (p *Peer) ID() addr.NodeID { return p.n.id }

// Size returns the cluster size (process count).
func (p *Peer) Size() int { return p.cl.cfg.Nodes }

// IsSeed reports whether this process owns the authoritative directory.
func (p *Peer) IsSeed() bool { return p.n.id == 0 }

// Cluster returns the single-node cluster view (stats, observer, tracing).
func (p *Peer) Cluster() *Cluster { return p.cl }

// Node returns the local node (the full mutator and collection API).
func (p *Peer) Node() *Node { return p.n }

// Transport returns the underlying TCP transport.
func (p *Peer) Transport() *tcp.Transport { return p.tr }

// Close tears down the transport (listener and every peer stream).
func (p *Peer) Close() error { return p.tr.Close() }
