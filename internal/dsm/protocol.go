package dsm

import (
	"errors"
	"fmt"
	"strings"

	"bmx/internal/addr"
	"bmx/internal/obs"
	"bmx/internal/obs/heat"
	"bmx/internal/transport"
)

// ErrNoOwner reports that an acquire chain consulted every node that could
// possibly own the object — every hop goes to a node the chain has not yet
// visited, and visited nodes are proven non-owners because acquires for one
// object are serialized — and none owned it: the object was reclaimed on
// every node and only stale routing state survives. The requester treats
// this as a fault-in request against the persistent store (reestablish),
// not as a protocol fatal.
var ErrNoOwner = errors.New("dsm: object has no owner anywhere")

// Message kinds. The cluster routes incoming messages with these prefixes to
// the DSM layer.
const (
	KindAcquire    = "dsm.acquire"
	KindInvalidate = "dsm.invalidate"
)

// Counter names indexed by mode and class, so an acquire or invalidation
// formats nothing.
var (
	acquireCounters = [...]*transport.ClassCounter{
		ModeRead:  transport.NewClassCounter("dsm.acquire.r."),
		ModeWrite: transport.NewClassCounter("dsm.acquire.w."),
	}
	invalidatedCounter  = transport.NewClassCounter("dsm.invalidated.")
	invalidationCounter = transport.NewClassCounter("dsm.invalidation.")
)

// acquireReq travels along the ownerPtr chain until it reaches a node able
// to grant the requested token.
type acquireReq struct {
	O         addr.OID
	Mode      Mode
	Requester addr.NodeID
	// RequesterGen is the requester's next table generation for the
	// object's bunch; it stamps entering-ownerPtr entries and intra-bunch
	// scions created on the requester's behalf (see ssp.CreatedGen).
	RequesterGen uint64
	Class        transport.Class
	Hops         int
	// Via lists every node the request has visited, requester first. It
	// exists for diagnosis: when the hop bound fires, the error names the
	// exact node sequence the chain traversed, so a routing cycle reads as
	// a repeating pattern instead of a bare count.
	Via []addr.NodeID
	// Piggyback carries the requester's pending location updates for the
	// first node on the chain — GC information riding on a consistency
	// message (§4.4), costing no extra message.
	Piggyback []Manifest
}

// acquireReply returns the token, the object image, and everything the
// invariants of §5 require.
type acquireReply struct {
	Image     ObjectImage
	Manifests []Manifest   // invariant 1 + opportunistic pending updates
	Intra     *IntraSSPReq // invariant 3 (write grants only)
	Granter   addr.NodeID
	// Hops is how many ownerPtr forwards the request travelled before it
	// was granted (0 = the first node asked could grant).
	Hops int
	// Path lists the nodes that repointed their ownerPtr at the requester
	// while the write request travelled the chain (Li's algorithm); the
	// requester records an entering ownerPtr for each.
	Path []PathEntry
}

type invalidateReq struct {
	O     addr.OID
	Class transport.Class
}

// Node is one site's DSM protocol engine. It also keeps the site's object
// records: the protocol state of each object beside the collector's
// canonical address, location epoch and root count (record.go).
type Node struct {
	id    addr.NodeID
	net   transport.Transport
	hooks Hooks
	// objs holds one record per object the node knows (record.go);
	// bunches lists them per bunch and entering indexes their entering
	// ownerPtrs by (bunch, sender). retired keeps the location epochs of
	// objects whose record was freed: an epoch must never go backward.
	objs     map[addr.OID]*Record
	bunches  map[addr.BunchID]*members
	entering map[enterKey]map[addr.OID]*ObjState
	retired  map[addr.OID]uint64
	protocol Protocol

	maxHops int

	// Flight-recorder plumbing, cached from the transport's observer so
	// the per-acquire cost while tracing is disabled is one atomic load.
	rec          *obs.Recorder
	acquireHops  *obs.Histogram
	acquireTicks *obs.Histogram
	piggyHist    *obs.Histogram
	// heat is this node's access-locality table; every acquire and
	// ownership transition is attributed there (one atomic load while the
	// table is disabled).
	heat *heat.Table

	// outbox holds the invariant-2 location updates queued since the last
	// flush, per destination in first-touch order (locbatch.go).
	outbox      map[addr.NodeID]*locBatch
	outboxOrder []addr.NodeID
	// scratch is the reusable copy-set snapshot buffer (takeCopySet).
	scratch []addr.NodeID
}

// NewNode creates the protocol engine for node id. The caller is responsible
// for routing "dsm.*" messages from the network to HandleCall/HandleAsync.
// ht is the node's access-locality table.
func NewNode(id addr.NodeID, net transport.Transport, hooks Hooks, clusterSize int, ht *heat.Table) *Node {
	o := net.Stats().Observer()
	return &Node{
		id:           id,
		net:          net,
		hooks:        hooks,
		objs:         make(map[addr.OID]*Record),
		bunches:      make(map[addr.BunchID]*members),
		entering:     make(map[enterKey]map[addr.OID]*ObjState),
		retired:      make(map[addr.OID]uint64),
		outbox:       make(map[addr.NodeID]*locBatch),
		maxHops:      2*clusterSize + 4,
		rec:          o.Recorder(id),
		acquireHops:  o.Hist("dsm.acquire.hops"),
		acquireTicks: o.Hist("dsm.acquire.ticks"),
		piggyHist:    o.Hist("net.piggyback.bytes"),
		heat:         ht,
	}
}

// SetProtocol selects the consistency protocol variant. Call before any
// traffic; all nodes of a cluster must agree.
func (n *Node) SetProtocol(p Protocol) { n.protocol = p }

func (n *Node) stats() *transport.Stats { return n.net.Stats() }

// Acquire obtains a read or write token for o on behalf of class (the
// application, or — only ever in the baseline collectors — the GC). On
// return the three invariants of §5 hold at this node.
func (n *Node) Acquire(o addr.OID, mode Mode, class transport.Class) error {
	if mode != ModeRead && mode != ModeWrite {
		return fmt.Errorf("dsm: invalid acquire mode %v", mode)
	}
	st := n.state(o)
	n.stats().Add(acquireCounters[mode].Name(class), 1)
	watch := transport.StartWatch(n.net.Clock())
	n.rec.Emit(obs.Event{Kind: obs.KAcquireStart, Class: obs.Class(class), OID: o, A: int64(mode)})

	// Local fast paths: token already cached (entry consistency keeps
	// tokens until someone else pulls them). The strict protocol never
	// caches read tokens at non-owners, so its reads always revalidate.
	if mode == ModeRead && st.Mode >= ModeRead && (n.protocol == ProtocolEntry || st.Owner) {
		n.stats().Add("dsm.acquire.local", 1)
		n.heat.NoteAcquire(o, st.Bunch, false, 0)
		n.rec.Emit(obs.Event{Kind: obs.KAcquireLocal, Class: obs.Class(class), OID: o, A: int64(mode)})
		return nil
	}
	if st.Owner {
		n.stats().Add("dsm.acquire.local", 1)
		n.heat.NoteAcquire(o, st.Bunch, false, 0)
		n.rec.Emit(obs.Event{Kind: obs.KAcquireLocal, Class: obs.Class(class), OID: o, A: int64(mode)})
		if mode == ModeWrite {
			// Upgrading owner: revoke outstanding read tokens. If a reader
			// is unreachable the upgrade is refused (the reader keeps its
			// consistent copy); the survivors stay in the copy-set so a
			// retry after the fault heals re-invalidates exactly them.
			if err := n.invalidateCopySet(o, st, class); err != nil {
				return err
			}
			st.Mode = ModeWrite
			return nil
		}
		// Owner always has a consistent copy.
		if st.Mode == ModeInvalid {
			st.Mode = ModeRead
		}
		return nil
	}

	// The token is remote: the whole owner-chain exchange — forwarding hops,
	// the reroute retry, and reply processing — runs under one requester-side
	// span, so the trace tree separates network time from local bookkeeping.
	defer n.rec.StartSpan(obs.OpAcquireRemote, o).End()

	target := st.OwnerPtr
	if target == addr.NoNode {
		n.rec.Emit(obs.Event{Kind: obs.KRouteDangling, Class: obs.Class(class), OID: o})
		return fmt.Errorf("dsm: %v has no route to the owner of %v", n.id, o)
	}
	if target == n.id {
		// The chain starts at this node's own allocation-site hint but the
		// local route is gone (the replica was reclaimed here). Try any
		// other plausible owner before concluding the object is unowned.
		target = n.routeAround(o, []addr.NodeID{n.id})
		if target == addr.NoNode {
			if n.reestablish(o, st, mode, class) {
				return nil
			}
			n.rec.Emit(obs.Event{Kind: obs.KRouteDangling, Class: obs.Class(class), OID: o})
			return fmt.Errorf("dsm: %v holds a dangling handle to reclaimed object %v", n.id, o)
		}
		st.OwnerPtr = target
	}
	req := acquireReq{
		O:            o,
		Mode:         mode,
		Requester:    n.id,
		RequesterGen: n.hooks.NextTableGen(st.Bunch),
		Class:        class,
		Via:          []addr.NodeID{n.id},
		Piggyback:    n.hooks.TakePendingManifests(target),
	}
	pb := 0
	for _, m := range req.Piggyback {
		pb += m.WireBytes()
	}
	raw, err := n.net.Call(transport.Msg{
		From: n.id, To: target, Kind: KindAcquire, Class: class,
		Payload: req, Bytes: 32 + pb, Piggyback: pb,
	})
	if err != nil {
		if errors.Is(err, ErrNoOwner) {
			// The chain was exhaustive: every plausible owner was visited
			// and none owned the object. Fault it back in locally.
			if n.reestablish(o, st, mode, class) {
				return nil
			}
			return err
		}
		// The chain failed for a transient reason (e.g. a partition). Retry
		// once through the manager's probable owner, which is on a sound
		// transfer chain by construction.
		_, hint := n.hooks.Locate(o)
		if hint == addr.NoNode || hint == n.id || hint == target {
			return err
		}
		n.stats().Add("dsm.rerouted", 1)
		n.rec.Emit(obs.Event{Kind: obs.KReroute, Class: obs.Class(class), OID: o, From: n.id, To: hint})
		st.OwnerPtr = hint
		req.Hops = 0
		req.Via = []addr.NodeID{n.id} // the retry is a fresh chain
		req.Piggyback = n.hooks.TakePendingManifests(hint)
		raw, err = n.net.Call(transport.Msg{
			From: n.id, To: hint, Kind: KindAcquire, Class: class,
			Payload: req, Bytes: 32, Piggyback: 0,
		})
		if err != nil {
			if errors.Is(err, ErrNoOwner) && n.reestablish(o, st, mode, class) {
				return nil
			}
			return err
		}
	}
	rep := raw.(acquireReply)

	// Invariant 1: addresses become valid before the acquire completes.
	n.hooks.ApplyManifests(rep.Manifests, rep.Granter)
	n.hooks.InstallImage(rep.Image, rep.Manifests, rep.Granter)
	if rep.Intra != nil {
		// Invariant 3: the new owner's intra-bunch stub.
		n.hooks.ApplyIntraSSP(rep.Intra)
	}

	st.RoutingOnly = false // a token makes this a real replica again
	if mode == ModeWrite {
		st.Mode = ModeWrite
		st.Owner = true
		st.OwnerPtr = addr.NoNode
		st.CopySet = nil
		for _, pe := range rep.Path {
			if pe.Node != n.id {
				n.setEntering(st, pe.Node, pe.Gen)
			}
		}
		n.rec.Emit(obs.Event{Kind: obs.KOwnerTransfer, Class: obs.Class(class), OID: o, From: rep.Granter, To: n.id})
		n.heat.NoteOwner(o)
		n.hooks.OnOwnershipAcquired(o)
	} else {
		st.Mode = ModeRead
		st.Owner = false
		st.OwnerPtr = rep.Granter
	}

	elapsed := watch.Elapsed()
	n.stats().Add("dsm.acquire.remote", 1)
	n.heat.NoteAcquire(o, st.Bunch, true, rep.Hops)
	n.acquireHops.Observe(int64(rep.Hops))
	n.acquireTicks.Observe(int64(elapsed))
	n.rec.Emit(obs.Event{Kind: obs.KAcquireDone, Class: obs.Class(class), OID: o, A: int64(mode), B: int64(elapsed)})

	// Invariant 2: push the location updates down the local copy-set.
	n.forwardManifests(o, rep.Manifests)
	n.flushLocOutbox(class)
	return nil
}

// Release marks the end of a critical section. Under entry consistency the
// token stays cached locally until another node acquires it, so no message
// is sent. Under the strict protocol a non-owner's read token is dropped:
// the next read revalidates.
func (n *Node) Release(o addr.OID) {
	n.stats().Add("dsm.release", 1)
	n.rec.Emit(obs.Event{Kind: obs.KRelease, Class: obs.ClassApp, OID: o})
	if n.protocol == ProtocolStrict {
		if st := n.stateOf(o); st != nil && !st.Owner && st.Mode == ModeRead {
			st.Mode = ModeInvalid
		}
	}
}

// HandleCall serves synchronous DSM requests routed from the network.
func (n *Node) HandleCall(m transport.Msg) (any, int, error) {
	switch m.Kind {
	case KindAcquire:
		req := m.Payload.(acquireReq)
		if len(req.Piggyback) > 0 {
			n.hooks.ApplyManifests(req.Piggyback, req.Requester)
		}
		rep, err := n.serveAcquire(req)
		if err != nil {
			return nil, 0, err
		}
		bytes := rep.Image.WireBytes()
		pb := 0
		for _, mf := range rep.Manifests {
			pb += mf.WireBytes()
		}
		if rep.Intra != nil {
			pb += 16
		}
		n.stats().Add("bytes.piggyback", int64(pb))
		if pb > 0 {
			// Reply-side piggyback (manifests riding back on the grant)
			// never flows through a Msg.Piggyback field, so the transport
			// cannot see it; feed the shared histogram from here.
			n.piggyHist.Observe(int64(pb))
		}
		return rep, bytes + pb, nil
	case KindInvalidate:
		req := m.Payload.(invalidateReq)
		if err := n.serveInvalidate(req); err != nil {
			return nil, 0, err
		}
		return nil, 0, nil
	default:
		return nil, 0, fmt.Errorf("dsm: unknown call kind %q", m.Kind)
	}
}

// HandleAsync consumes asynchronous DSM messages (copy-set location
// forwarding).
func (n *Node) HandleAsync(m transport.Msg) {
	if m.Kind != KindLocBatch {
		return
	}
	// Apply and re-forward each entry in queue order. The re-forwards queue
	// into this node's own outbox (per destination, across objects), so a
	// batch travelling down a distributed copy-set stays batched.
	bm := m.Payload.(LocBatchMsg)
	n.stats().Add("dsm.locBatch.recv", 1)
	for _, e := range bm.Entries {
		n.hooks.ApplyManifests(e.Manifests, e.From)
		n.forwardManifests(e.O, e.Manifests)
	}
	n.flushLocOutbox(m.Class)
}

func (n *Node) serveAcquire(req acquireReq) (acquireReply, error) {
	st := n.state(req.O)
	switch {
	case st.Owner:
		return n.grantAsOwner(req, st)
	case req.Mode == ModeRead && st.Mode >= ModeRead:
		// A read token can be obtained from any node already holding one
		// (§2.2); copy-sets stay distributed.
		return n.grantRead(req, st), nil
	default:
		return n.forwardAcquire(req, st)
	}
}

func (n *Node) forwardAcquire(req acquireReq, st *ObjState) (acquireReply, error) {
	if req.Hops >= n.maxHops {
		// The bound firing is a protocol fatal: name the exact node
		// sequence the chain traversed (a routing cycle reads as a
		// repeating pattern) and dump the flight-recorder window.
		n.rec.Emit(obs.Event{Kind: obs.KMaxHops, Class: obs.Class(req.Class), OID: req.O, A: int64(req.Hops)})
		err := fmt.Errorf("dsm: ownerPtr chain for %v exceeded %d hops (path %s)",
			req.O, n.maxHops, pathString(append(req.Via, n.id)))
		n.net.Stats().Observer().Fatal(n.id, err.Error())
		return acquireReply{}, err
	}
	seen := append(append([]addr.NodeID(nil), req.Via...), n.id)
	if st.OwnerPtr == addr.NoNode || st.OwnerPtr == n.id || inVia(req.Via, st.OwnerPtr) {
		// The local route is broken (replica reclaimed here) or points back
		// into the chain — the stale-manifest edges that caused the O36
		// ping-pong. Route around it: forward to any plausible owner the
		// chain has not consulted. Visited nodes are proven non-owners
		// (ownership of one object cannot move while its acquire chain
		// runs), so when no unvisited candidate remains, no owner exists
		// anywhere and the requester must re-establish the object instead.
		alt := n.routeAround(req.O, seen)
		if alt == addr.NoNode {
			n.stats().Add("dsm.route.exhausted", 1)
			return acquireReply{}, fmt.Errorf("dsm: %v cannot route %v request for %v (path %s): %w",
				n.id, req.Mode, req.O, pathString(seen), ErrNoOwner)
		}
		if st.OwnerPtr != addr.NoNode && st.OwnerPtr != n.id {
			n.stats().Add("dsm.route.cycleAvoided", 1)
			n.rec.Emit(obs.Event{Kind: obs.KRouteCycle, Class: obs.Class(req.Class), OID: req.O,
				From: st.OwnerPtr, To: alt, A: int64(req.Hops)})
		}
		st.OwnerPtr = alt
	}
	fwd := req
	fwd.Hops++
	fwd.Via = seen
	fwd.Piggyback = n.hooks.TakePendingManifests(st.OwnerPtr)
	n.stats().Add("dsm.forwards", 1)
	n.rec.Emit(obs.Event{Kind: obs.KAcquireHop, Class: obs.Class(req.Class), OID: req.O,
		From: req.Requester, To: st.OwnerPtr, A: int64(req.Hops)})
	raw, err := n.net.Call(transport.Msg{
		From: n.id, To: st.OwnerPtr, Kind: KindAcquire, Class: req.Class,
		Payload: fwd, Bytes: 32,
	})
	if err != nil {
		return acquireReply{}, err
	}
	rep := raw.(acquireReply)
	if req.Mode == ModeWrite {
		// Li's dynamic distributed manager: nodes along the path repoint
		// their ownerPtr at the requester, shortening future chains. Each
		// reports itself so the new owner records the entering ownerPtr.
		st.OwnerPtr = req.Requester
		rep.Path = append(rep.Path, PathEntry{Node: n.id, Gen: n.hooks.NextTableGen(st.Bunch)})
	}
	return rep, nil
}

func (n *Node) grantAsOwner(req acquireReq, st *ObjState) (acquireReply, error) {
	if req.Mode == ModeRead {
		if st.Mode == ModeWrite {
			// Granting a read downgrades the writer; ownership stays.
			st.Mode = ModeRead
		}
		return n.grantRead(req, st), nil
	}

	// Write grant: revoke all outstanding read tokens first, so possession
	// of the write token means no other consistent copy exists (§2.2). If
	// a reader is unreachable the grant is refused — ownership stays here
	// and the requester surfaces the error to its caller.
	if err := n.invalidateCopySet(req.O, st, req.Class); err != nil {
		return acquireReply{}, err
	}

	// Invariant 3: create the intra-bunch scion (if this node holds stubs
	// for the object) before replying with the token.
	intra := n.hooks.PrepareOwnershipTransfer(req.O, req.Requester, req.RequesterGen)

	rep := acquireReply{
		Image: n.hooks.ObjectImage(req.O),
		// Invariant 1 manifests plus any location updates queued for the
		// requester — riding the grant costs no extra message (§4.4).
		Manifests: append(n.hooks.GrantManifests(req.O),
			n.hooks.TakePendingManifests(req.Requester)...),
		Intra:   intra,
		Granter: n.id,
		Hops:    req.Hops,
		Path:    []PathEntry{{Node: n.id, Gen: n.hooks.NextTableGen(st.Bunch)}},
	}
	n.rec.Emit(obs.Event{Kind: obs.KAcquireGrant, Class: obs.Class(req.Class), OID: req.O,
		From: req.Requester, To: n.id, A: int64(req.Mode), B: int64(req.Hops)})
	n.recordManifestEntering(rep.Manifests, req)
	st.Owner = false
	st.Mode = ModeInvalid
	st.OwnerPtr = req.Requester
	st.CopySet = nil
	// The requester now owns the object, so its replica no longer points
	// here: any entering entry recorded for it is obsolete.
	n.dropEntering(st, req.Requester)
	n.stats().Add("dsm.grant.write", 1)
	return rep, nil
}

func (n *Node) grantRead(req acquireReq, st *ObjState) acquireReply {
	// The copy-set is tracked under every protocol: a reader inside its
	// critical section must be invalidated by a writer. What the strict
	// protocol removes is caching ACROSS critical sections (Release drops
	// the token), not the invalidation machinery.
	st.addCopy(req.Requester)
	n.setEntering(st, req.Requester, req.RequesterGen)
	n.stats().Add("dsm.grant.read", 1)
	n.rec.Emit(obs.Event{Kind: obs.KAcquireGrant, Class: obs.Class(req.Class), OID: req.O,
		From: req.Requester, To: n.id, A: int64(req.Mode), B: int64(req.Hops)})
	rep := acquireReply{
		Image: n.hooks.ObjectImage(req.O),
		Manifests: append(n.hooks.GrantManifests(req.O),
			n.hooks.TakePendingManifests(req.Requester)...),
		Granter: n.id,
		Hops:    req.Hops,
	}
	n.recordManifestEntering(rep.Manifests, req)
	return rep
}

// recordManifestEntering pins every object whose manifest we just shipped:
// if the requester had no state for it, its ownerPtr now points here, so an
// entering entry must exist at this node or the requester's routing chain
// could dangle after a local collection. Spurious entries (the requester
// already routed elsewhere) are retired by the requester's next
// reachability table.
func (n *Node) recordManifestEntering(ms []Manifest, req acquireReq) {
	for _, m := range ms {
		if m.OID == req.O {
			continue // the granted object's entry is handled by the grant itself
		}
		st := n.state(m.OID)
		if !st.hasEntering(req.Requester) {
			n.setEntering(st, req.Requester, req.RequesterGen)
		}
	}
}

func (n *Node) serveInvalidate(req invalidateReq) error {
	st := n.state(req.O)
	// Invalidate the local copy unconditionally (conservative: forcing a
	// revalidation is always safe), then the subtree. If a child of the
	// distributed copy-set is unreachable it stays in this node's copy-set
	// and the error propagates up, so the writer's grant is refused while
	// that child may still hold a consistent copy.
	err := n.invalidateCopySet(req.O, st, req.Class)
	if !st.Owner {
		st.Mode = ModeInvalid
	}
	n.stats().Add(invalidatedCounter.Name(req.Class), 1)
	return err
}

// invalidateCopySet revokes the read tokens this node granted, recursively
// down the distributed copy-set tree. Invalidations are synchronous: the
// write grant must not complete while consistent read copies remain. A
// member that cannot be reached (e.g. across a partition) therefore stays
// in the copy-set — a later retry re-invalidates exactly the survivors —
// and the error is surfaced so the grant or upgrade is refused rather than
// completed with a possibly-consistent remote copy outstanding.
func (n *Node) invalidateCopySet(o addr.OID, st *ObjState, class transport.Class) error {
	var firstErr error
	members := n.takeCopySet(st)
	defer n.putCopySet(members)
	for _, c := range members {
		n.stats().Add(invalidationCounter.Name(class), 1)
		n.rec.Emit(obs.Event{Kind: obs.KInvalidate, Class: obs.Class(class), OID: o, From: n.id, To: c})
		if _, err := n.net.Call(transport.Msg{
			From: n.id, To: c, Kind: KindInvalidate, Class: class,
			Payload: invalidateReq{O: o, Class: class}, Bytes: 16,
		}); err != nil {
			n.stats().Add("dsm.invalidation.failed", 1)
			if firstErr == nil {
				firstErr = fmt.Errorf("dsm: invalidate %v at %v: %w", o, c, err)
			}
			continue
		}
		st.dropCopy(c)
	}
	return firstErr
}

// inVia reports whether the chain has already visited id.
func inVia(via []addr.NodeID, id addr.NodeID) bool {
	for _, v := range via {
		if v == id {
			return true
		}
	}
	return false
}

// routeAround picks the first plausible owner the chain has not yet visited,
// or NoNode when every candidate has been consulted.
func (n *Node) routeAround(o addr.OID, seen []addr.NodeID) addr.NodeID {
	for _, c := range n.hooks.RouteCandidates(o) {
		if c != n.id && !inVia(seen, c) {
			return c
		}
	}
	return addr.NoNode
}

// reestablish faults an object back into the store at this node after the
// chain proved it unowned everywhere: the directory still names the object
// (a live handle reached it), so the acquire re-creates its storage — this
// node becomes the owner — instead of failing the mutator. No consistent
// copy survives anywhere, so the last locally cached words (or zeroes) are
// as valid as any.
func (n *Node) reestablish(o addr.OID, st *ObjState, mode Mode, class transport.Class) bool {
	if !n.hooks.Reestablish(o) {
		return false
	}
	st.RoutingOnly = false
	st.Owner = true
	st.Mode = mode
	st.OwnerPtr = addr.NoNode
	st.CopySet = nil
	n.stats().Add("dsm.reestablished", 1)
	n.rec.Emit(obs.Event{Kind: obs.KReestablish, Class: obs.Class(class), OID: o, A: int64(mode)})
	n.heat.NoteOwner(o)
	n.hooks.OnOwnershipAcquired(o)
	return true
}

// pathString renders a traversed node sequence as "N1 -> N2 -> N1".
func pathString(via []addr.NodeID) string {
	parts := make([]string, len(via))
	for i, v := range via {
		parts[i] = v.String()
	}
	return strings.Join(parts, " -> ")
}

// forwardManifests implements invariant 2: location updates received for o
// are queued for every node in the local copy-set, the same fan-out used to
// invalidate read copies. The enclosing bracket sends them (flushLocOutbox).
func (n *Node) forwardManifests(o addr.OID, ms []Manifest) {
	if len(ms) == 0 {
		return
	}
	st := n.stateOf(o)
	if st == nil || len(st.CopySet) == 0 {
		return
	}
	pb := 0
	for _, m := range ms {
		pb += m.WireBytes()
	}
	members := n.takeCopySet(st)
	defer n.putCopySet(members)
	for _, c := range members {
		n.queueLocUpdate(c, LocMsg{O: o, From: n.id, Manifests: ms}, pb)
	}
}
