package cluster

import (
	"fmt"

	"bmx/internal/addr"
	"bmx/internal/mem"
)

// CheckInvariants audits the cluster-wide protocol and GC invariants
// (DESIGN.md §7) and returns every violation found. It is a debugging and
// testing facility: the checks walk internal state directly and assume the
// cluster is quiescent (no operation in flight).
//
// Checked invariants:
//
//   - token conservation: every known object has at most one owner and at
//     most one write-mode holder; a writer excludes readers.
//   - SSP pairing: every inter-bunch stub's scion node actually holds the
//     matching scion (modulo in-flight scion-messages, which a quiescent
//     cluster has none of); every intra-bunch scion's new owner holds the
//     matching stub (a scion without a stub would be an unremovable root)
//     unless the holder already reclaimed the object.
//   - entering/ownerPtr symmetry: a mutator-rooted replica's ownerPtr
//     target either has an entering entry for the replica holder or no
//     longer knows the object (weakly live replicas are exempt: §6.2
//     deliberately omits their exiting ownerPtrs).
//   - heap sanity: every canonical address resolves to a header carrying
//     the object's identity.
//   - invariant 1 (§5): every pointer word of a consistent copy — an object
//     the node owns or holds a token for — resolves through the local chain
//     (Collector.ResolveRef, nothing in hand) to a header.
//   - bunch agreement: every object a node's DSM state files under a bunch
//     is in that bunch according to the directory — the premise that lets
//     Collector.BunchOf answer from local state.
func (cl *Cluster) CheckInvariants() []string {
	// Freeze the whole cluster: take every node lock in ascending node-ID
	// order (the one place two node locks are held at once; the fixed
	// order makes concurrent checkers deadlock-free).
	for _, n := range cl.nodes {
		n.mu.Lock()
	}
	defer func() {
		for _, n := range cl.nodes {
			n.mu.Unlock()
		}
	}()
	var bad []string
	report := func(format string, args ...any) {
		bad = append(bad, fmt.Sprintf(format, args...))
	}

	// Collect per-object global views.
	type view struct {
		owners  []addr.NodeID
		writers []addr.NodeID
		readers []addr.NodeID
	}
	views := make(map[addr.OID]*view)
	for _, n := range cl.nodes {
		for _, b := range cl.dir.Bunches() {
			for _, r := range n.dsm.Members(b) {
				o := r.OID()
				if info, _ := cl.dir.Object(o); info.Bunch != b {
					report("bunch: %v is in %v at %v, but the directory says %v", o, b, n.id, info.Bunch)
				}
				v := views[o]
				if v == nil {
					v = &view{}
					views[o] = v
				}
				if n.dsm.IsOwner(o) {
					v.owners = append(v.owners, n.id)
				}
				switch n.dsm.ModeOf(o) {
				case 2: // ModeWrite
					v.writers = append(v.writers, n.id)
				case 1: // ModeRead
					v.readers = append(v.readers, n.id)
				}
			}
		}
	}
	for o, v := range views {
		if len(v.owners) > 1 {
			report("token: %v has %d owners: %v", o, len(v.owners), v.owners)
		}
		if len(v.writers) > 1 {
			report("token: %v has %d write tokens: %v", o, len(v.writers), v.writers)
		}
		if len(v.writers) == 1 && len(v.readers) > 0 {
			report("token: %v has writer %v and readers %v", o, v.writers[0], v.readers)
		}
	}

	for _, n := range cl.nodes {
		heap := n.col.Heap()
		for _, msg := range n.dsm.AuditIndexes() {
			report("index: %s at %v", msg, n.id)
		}
		// Heap sanity.
		heap.ForEachSegment(func(s *mem.Segment) {
			fwds := 0
			for _, a := range s.Objects() {
				if heap.Forwarded(a) {
					fwds++
				}
			}
			if got := s.ForwardedHeaders(); got != fwds {
				report("heap: %v counts %d forwarded headers at %v, holds %d", s.Meta.ID, got, n.id, fwds)
			}
		})
		n.dsm.ForEachCanonical(func(o addr.OID, a addr.Addr) {
			r := heap.Resolve(a)
			if !heap.Mapped(r) {
				report("heap: %v canonical %v resolves to unmapped %v at %v", o, a, r, n.id)
				return
			}
			if !heap.IsObjectAt(r) {
				report("heap: %v canonical %v resolves to non-object %v at %v", o, a, r, n.id)
				return
			}
			if got := heap.ObjOID(r); got != o {
				report("heap: %v canonical resolves to header of %v at %v", o, got, n.id)
			}
		})
		// Invariant 1.
		n.dsm.ForEachCanonical(func(o addr.OID, a addr.Addr) {
			if !n.dsm.IsOwner(o) && n.dsm.ModeOf(o) == 0 {
				return
			}
			if a = heap.Resolve(a); !heap.IsObjectAt(a) || heap.ObjOID(a) != o {
				return // heap sanity reports it
			}
			heap.ForEachRef(a, func(f int, w addr.Addr) {
				if r, _ := n.col.ResolveRef(w, nil); r.IsNil() && !w.IsNil() {
					report("address: %v.%d at %v names %v, which no header here identifies", o, f, n.id, w)
				}
			})
		})
		// SSP pairing.
		for _, b := range n.col.MappedBunches() {
			t := n.col.Replica(b).Table
			for _, s := range t.InterStubList() {
				host := cl.nodes[int(s.ScionNode)]
				found := false
				for _, sc := range host.col.Replica(s.TargetBunch).Table.InterScionList() {
					if sc.TargetOID == s.TargetOID && sc.SrcOID == s.SrcOID && sc.SrcNode == n.id {
						found = true
						break
					}
				}
				if !found {
					report("ssp: stub %v at %v has no scion at %v", s, n.id, s.ScionNode)
				}
			}
			// Intra-bunch scions must have their matching stub at the new
			// owner (a scion without a live stub would be an unremovable
			// root). The reverse — a stub without a scion — is harmless
			// residue of the ownership-revisit collapse and is retired
			// when the object dies at the stub holder.
			for _, sc := range t.IntraScionList() {
				holder := cl.nodes[int(sc.NewOwner)]
				if !holder.dsm.Knows(sc.OID) {
					continue // holder reclaimed; its next table retires this scion
				}
				found := false
				for _, st2 := range holder.col.Replica(b).Table.IntraStubList() {
					if st2.OID == sc.OID && st2.OldOwner == n.id {
						found = true
						break
					}
				}
				if !found {
					report("ssp: intra scion %v at %v has no stub at %v", sc, n.id, sc.NewOwner)
				}
			}
		}
		// Entering/ownerPtr symmetry: a MUTATOR-ROOTED non-owned replica's
		// route target must remember us — the strongest liveness a replica
		// can have locally must pin it at its owner. Weakly live replicas
		// legitimately lack entries (§6.2 omits their exiting ownerPtrs;
		// their protection flows through the intra-bunch SSP chain).
		for _, b := range n.col.MappedBunches() {
			for o, target := range n.dsm.NonOwnedLive(b) {
				if !n.dsm.IsRoot(o) {
					continue
				}
				if _, hasReplica := n.dsm.Canonical(o); !hasReplica {
					// Routing bookkeeping without a replica needs no
					// entering entry (it appears in no exiting list).
					continue
				}
				if int(target) >= len(cl.nodes) {
					report("route: %v at %v points at invalid node %v", o, n.id, target)
					continue
				}
				peer := cl.nodes[int(target)]
				if !peer.dsm.Knows(o) {
					continue // peer reclaimed; self-heal retracts the route
				}
				ok := false
				for _, e := range peer.dsm.EnteringOf(o) {
					if e == n.id {
						ok = true
						break
					}
				}
				if !ok {
					report("route: %v at %v points at %v, which has no entering entry for it",
						o, n.id, target)
				}
			}
		}
	}
	return bad
}
