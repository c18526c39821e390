package core

import (
	"bmx/internal/addr"
	"bmx/internal/dsm"
	"bmx/internal/mem"
	"bmx/internal/ssp"
)

// This file implements dsm.Hooks: the collector's participation in the
// consistency protocol's synchronization points (§5). It is the only place
// where GC information crosses into DSM traffic — always as piggyback,
// never as a token operation.

var _ dsm.Hooks = (*Collector)(nil)

// manifestOf builds this node's current manifest for o (its local canonical
// address), or false if the object is unknown here.
func (c *Collector) manifestOf(o addr.OID) (dsm.Manifest, bool) {
	a, ok := c.heap.Canonical(o)
	if !ok {
		return dsm.Manifest{}, false
	}
	size := 0
	if c.heap.Mapped(a) && c.heap.IsObjectAt(a) {
		if c.heap.ObjOID(a) != o {
			// Stale canonical into a reused address range: advertising it
			// would spread the bogus location to every peer the manifest
			// reaches.
			c.stats().Add("core.loc.staleCanonical", 1)
			return dsm.Manifest{}, false
		}
		size = c.heap.ObjSize(a)
	} else if info, ok := c.dir.Object(o); ok {
		size = info.Size
	}
	return dsm.Manifest{
		OID: o, Addr: a, Size: size, Bunch: c.dir.BunchOf(o),
		Epoch: c.LocationEpoch(o),
	}, true
}

// GrantManifests implements invariant 1: when granting o, ship the current
// locations of o and of every object o directly references.
func (c *Collector) GrantManifests(o addr.OID) []dsm.Manifest {
	var out []dsm.Manifest
	if m, ok := c.manifestOf(o); ok {
		out = append(out, m)
	}
	a, ok := c.heap.Canonical(o)
	if !ok || !c.heap.Mapped(a) || !c.heap.IsObjectAt(a) {
		return out
	}
	seen := map[addr.OID]bool{o: true}
	for _, ra := range c.heap.Refs(a) {
		t := c.OIDAt(ra)
		if t.IsNil() || seen[t] {
			continue
		}
		seen[t] = true
		if m, ok := c.manifestOf(t); ok {
			out = append(out, m)
		}
	}
	return out
}

// ApplyManifests installs location information received on consistency
// traffic. A manifest whose address differs from the local canonical address
// is a location update: the local contents are copied to the indicated
// address and a forwarding pointer is left behind (§4.4: "After N1 receives
// O2's new address, O2 is copied to the indicated address, and all the local
// references are updated accordingly without requiring any token").
func (c *Collector) ApplyManifests(ms []dsm.Manifest, from addr.NodeID) {
	for _, m := range ms {
		c.applyManifest(m, from)
	}
}

func (c *Collector) applyManifest(m dsm.Manifest, from addr.NodeID) {
	meta := c.dir.Allocator().Lookup(m.Addr)
	if meta == nil {
		c.stats().Add("core.loc.badAddr", 1)
		return
	}
	// The owner's location for an object it owns is authoritative; a
	// foreign manifest must not move it (only the owner copies an object,
	// §4.2).
	if c.dsm.IsOwner(m.OID) {
		return
	}
	// Out-of-order protection: background messages from different senders
	// may deliver an older location after a newer one; applying it would
	// move the canonical address backward and plant a stale forwarding
	// pointer over good data.
	if m.Epoch < c.locEpoch[m.OID] {
		c.stats().Add("core.loc.staleEpoch", 1)
		return
	}
	c.locEpoch[m.OID] = m.Epoch
	if !c.heap.Mapped(m.Addr) {
		c.heap.MapSegment(meta)
		// Holding part of the bunch makes this node an interested party
		// for address-change rounds (§4.5), but not a replica: the write
		// barrier still sends scion-messages for unmapped bunches. The
		// node does gain a collector replica, though — its cached objects
		// carry ownerPtrs, so its BGC must produce exiting lists for this
		// bunch or the owners could never retire their entering entries.
		if m.Bunch != addr.NoBunch && !c.dir.HasReplica(m.Bunch, c.node) {
			c.dir.AddInterested(m.Bunch, c.node)
			c.Replica(m.Bunch)
		}
	}
	cur, known := c.heap.Canonical(m.OID)
	if known && cur == m.Addr {
		return // idempotent re-delivery
	}
	// Address-space reuse protection: a segment freed by the §4.5 protocol
	// can be reallocated, so a sufficiently delayed manifest may name an
	// address that now holds a *different* object's header. Epochs cannot
	// catch this (they are per-object); identity can. Adopting the address
	// anyway would alias two objects onto one header, and a later manifest
	// for the stale object would then plant a forwarding pointer on — and
	// copy data out of — the innocent resident.
	if c.heap.IsObjectAt(m.Addr) && c.heap.ObjOID(m.Addr) != m.OID {
		c.stats().Add("core.loc.reusedAddr", 1)
		return
	}
	if !c.heap.IsObjectAt(m.Addr) {
		c.heap.Materialize(m.Addr, m.OID, m.Size)
	}
	if known && cur != m.Addr {
		src := c.heap.Resolve(cur)
		if src != m.Addr && c.heap.Mapped(src) && c.heap.IsObjectAt(src) &&
			c.heap.ObjOID(src) == m.OID {
			c.heap.CopyObject(src, m.Addr)
			c.heap.SetFwd(src, m.Addr)
		}
		c.stats().Add("core.loc.applied", 1)
	}
	c.heap.SetCanonical(m.OID, m.Addr)
	c.dsm.Learn(m.OID, m.Bunch, from)
}

// ObjectImage ships o's local contents with a token grant. The copy's
// pointer fields are first normalized to the granter's current canonical
// addresses — a strictly local update the collector is always allowed to
// make (§4.4) — so the shipped words are meaningful at the receiver once
// the accompanying manifests are applied; a stale address might resolve
// only through headers the granter happens to still map.
func (c *Collector) ObjectImage(o addr.OID) dsm.ObjectImage {
	man, ok := c.manifestOf(o)
	if !ok {
		return dsm.ObjectImage{Manifest: dsm.Manifest{OID: o}}
	}
	img := dsm.ObjectImage{Manifest: man}
	a := man.Addr
	if !c.heap.Mapped(a) || !c.heap.IsObjectAt(a) {
		return img
	}
	c.normalizeRefs(a)
	n := c.heap.ObjSize(a)
	img.Words = make([]uint64, n)
	img.RefMask = make([]bool, n)
	for i := 0; i < n; i++ {
		img.Words[i] = c.heap.GetField(a, i)
		img.RefMask[i] = c.heap.IsRefField(a, i)
	}
	return img
}

// InstallImage overwrites the local replica with a consistent image received
// with a token grant.
func (c *Collector) InstallImage(img dsm.ObjectImage, from addr.NodeID) {
	if img.Addr.IsNil() {
		return
	}
	c.applyManifest(img.Manifest, from)
	a, ok := c.heap.Canonical(img.OID)
	if !ok || !c.heap.Mapped(a) {
		return
	}
	if !c.heap.IsObjectAt(a) {
		c.heap.Materialize(a, img.OID, img.Size)
	}
	if c.heap.ObjOID(a) != img.OID {
		// Stale canonical into a reused address range: writing the image
		// here would corrupt the object now resident at this address.
		c.stats().Add("core.loc.staleCanonical", 1)
		return
	}
	// The canonical location now holds the authoritative consistent copy:
	// a local forwarding pointer left here by an out-of-order location
	// update must not shadow it.
	if c.heap.Forwarded(a) {
		c.heap.ClearFwd(a)
	}
	for i := range img.Words {
		c.heap.SetField(a, i, img.Words[i], img.RefMask[i])
	}
}

// normalizeRefs rewrites the pointer fields of the object at a to the
// freshest locally known address of each referee: through forwarding
// pointers, then through the canonical map keyed by the referee's identity.
func (c *Collector) normalizeRefs(a addr.Addr) {
	for i, v := range c.heap.Refs(a) {
		if v.IsNil() {
			continue
		}
		r, oid := c.ResolveRef(v)
		if oid.IsNil() {
			continue // stale garbage; nothing better known
		}
		if r != v {
			c.heap.SetField(a, i, uint64(r), true)
			c.stats().Add("core.loc.refsNormalized", 1)
		}
	}
}

// PrepareOwnershipTransfer implements invariant 3 at the old owner: if this
// node holds inter-bunch stubs (or an intra-bunch stub) for o, create the
// intra-bunch scion before the token grant and return the request for the
// new owner's matching stub (§5, §3.2).
func (c *Collector) PrepareOwnershipTransfer(o addr.OID, newOwner addr.NodeID, newOwnerGen uint64) *dsm.IntraSSPReq {
	b := c.dir.BunchOf(o)
	if b == addr.NoBunch {
		return nil
	}
	rep := c.Replica(b)
	holds := false
	for _, s := range rep.Table.InterStubs {
		if s.SrcOID == o {
			holds = true
			break
		}
	}
	if !holds {
		for _, s := range rep.Table.IntraStubs {
			if s.OID == o {
				holds = true
				break
			}
		}
	}
	if !holds {
		return nil
	}
	if c.replicateSSPs {
		// Ablation A1 (§3.2's rejected alternative): replicate the
		// inter-bunch SSPs at the new owner instead of forwarding
		// through an intra-bunch SSP.
		req := &dsm.IntraSSPReq{OID: o, Bunch: b, OldOwner: c.node}
		for _, s := range rep.Table.InterStubList() {
			if s.SrcOID == o {
				req.Replicate = append(req.Replicate, dsm.ReplicatedStub{
					SrcOID: s.SrcOID, TargetOID: s.TargetOID, TargetBunch: s.TargetBunch,
				})
			}
		}
		if len(req.Replicate) == 0 {
			return nil
		}
		return req
	}
	rep.Table.AddIntraScion(ssp.IntraScion{
		OID: o, Bunch: b, NewOwner: newOwner, CreatedGen: newOwnerGen,
	})
	c.stats().Add("core.intraSSP.created", 1)
	return &dsm.IntraSSPReq{OID: o, Bunch: b, OldOwner: c.node}
}

// ApplyIntraSSP creates the new owner's intra-bunch stub — or, under the A1
// ablation, fresh replicated inter-bunch SSPs, each costing a scion-message
// when the target bunch is not mapped locally.
func (c *Collector) ApplyIntraSSP(req *dsm.IntraSSPReq) {
	if len(req.Replicate) > 0 {
		for _, r := range req.Replicate {
			if err := c.ensureInterSSP(r.SrcOID, req.Bunch, r.TargetOID, r.TargetBunch); err != nil {
				// The stub being replicated still exists at the old owner,
				// so the target stays protected; the replica is re-attempted
				// on the next ownership transfer.
				c.stats().Add("core.ssp.replicateFailed", 1)
				continue
			}
			c.stats().Add("core.ssp.replicated", 1)
		}
		return
	}
	c.Replica(req.Bunch).Table.AddIntraStub(ssp.IntraStub{
		OID: req.OID, Bunch: req.Bunch, OldOwner: req.OldOwner,
	})
}

// OnOwnershipAcquired drops this node's intra-bunch scions for an object it
// just became the owner of: the owner's replica is kept alive by entering
// ownerPtrs and roots, so forwarding liveness to it through an intra-bunch
// SSP is redundant — and, worse, when ownership revisits a previous owner
// the redundant SSPs form self-sustaining cycles among old owners that no
// table message could ever unwind.
func (c *Collector) OnOwnershipAcquired(o addr.OID) {
	// Update the manager's probable-owner record (Li's dynamic
	// distributed manager keeps exactly this hint).
	c.dir.SetOwnerHint(o, c.node)
	b := c.dir.BunchOf(o)
	if b == addr.NoBunch {
		return
	}
	rep := c.Replica(b)
	for key, sc := range rep.Table.IntraScions {
		if sc.OID == o {
			delete(rep.Table.IntraScions, key)
			c.stats().Add("core.intraSSP.collapsed", 1)
		}
	}
}

// TakePendingManifests drains the location updates queued for peer so they
// ride as piggyback on an outgoing consistency message (§4.4).
func (c *Collector) TakePendingManifests(peer addr.NodeID) []dsm.Manifest {
	q := c.pending[peer]
	if len(q) == 0 {
		return nil
	}
	delete(c.pending, peer)
	c.stats().Add("core.loc.piggybacked", int64(len(q)))
	return manifestList(q)
}

// NextTableGen stamps entering entries and scions created on this node's
// behalf with the generation of its next reachability table for the bunch.
func (c *Collector) NextTableGen(b addr.BunchID) uint64 {
	if b == addr.NoBunch {
		return 1
	}
	return c.Replica(b).Gen + 1
}

// OwnerHint starts an ownerPtr chain at the object's probable owner (the
// manager's record, falling back to the allocation site).
func (c *Collector) OwnerHint(o addr.OID) addr.NodeID {
	return c.dir.OwnerHintOf(o)
}

// RouteCandidates lists every plausible owner of o, most likely first: the
// manager's probable owner, then every node with content of the object's
// bunch (Holders is a superset of the possible owners — becoming owner
// materializes the object locally, which registers the node as at least an
// interested holder, and holders are never forgotten).
func (c *Collector) RouteCandidates(o addr.OID) []addr.NodeID {
	var out []addr.NodeID
	if h := c.dir.OwnerHintOf(o); h != addr.NoNode {
		out = append(out, h)
	}
	b := c.dir.BunchOf(o)
	if b == addr.NoBunch {
		return out
	}
	for _, h := range c.dir.Holders(b) {
		if len(out) > 0 && h == out[0] {
			continue
		}
		out = append(out, h)
	}
	return out
}

// Reestablish re-creates o's storage at this node: fresh (or still locally
// cached) contents at a fresh canonical address, superseding every older
// location. Called by the protocol when an acquire chain proved the object
// reclaimed on every node while a live handle still names it — the
// persistent store faults it back in rather than failing the mutator.
// Reports false when the directory has no record of the object (the handle
// is truly dangling).
func (c *Collector) Reestablish(o addr.OID) bool {
	info, ok := c.dir.Object(o)
	if !ok {
		return false
	}
	if !c.dir.HasReplica(info.Bunch, c.node) {
		c.dir.AddInterested(info.Bunch, c.node)
	}
	a, live := c.heap.Canonical(o)
	if live {
		a = c.heap.Resolve(a)
		live = c.heap.Mapped(a) && c.heap.IsObjectAt(a) && c.heap.ObjOID(a) == o
	}
	if !live {
		rep := c.Replica(info.Bunch)
		if rep.allocSeg == nil || rep.allocSeg.FreeWords() < mem.HeaderWords+info.Size {
			rep.allocSeg = c.newAllocSeg(info.Bunch)
		}
		var ok2 bool
		a, ok2 = c.heap.Alloc(rep.allocSeg, o, info.Size)
		if !ok2 {
			return false
		}
		c.dir.RecordPlacement(a, o)
	}
	c.heap.SetCanonical(o, a)
	// Supersede every location manifest in flight: a delayed older address
	// must not move the resurrected object backward at any holder.
	c.locEpoch[o]++
	c.queueLocation(o, info.Bunch, a, c.heap.ObjSize(a))
	c.stats().Add("core.reestablished", 1)
	return true
}

// BunchOf maps an object to its bunch via the directory.
func (c *Collector) BunchOf(o addr.OID) addr.BunchID { return c.dir.BunchOf(o) }
