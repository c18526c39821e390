package cluster

import (
	"fmt"
	"strings"

	"bmx/internal/addr"
	"bmx/internal/core"
	"bmx/internal/dsm"
	"bmx/internal/mem"
	"bmx/internal/rvm"
)

// Persistence follows the prototype of §8: each segment is associated with a
// file, and recovery uses RVM-style recoverable virtual memory — mutations
// between checkpoints are batched into redo-log transactions; Sync forces
// the open transaction; Checkpoint writes full segment images and truncates
// the log. A crash loses everything after the last Sync and nothing before
// it. From-space and to-space are each file-backed (the O'Toole approach):
// every segment, whichever space it currently plays, has its own image file.

// logAllocation records a fresh object's header so recovery can rebuild the
// object map: recovery materializes the object at the header record's
// address, and its field values follow as logWrite records when the mutator
// stores them. Called under the cluster lock.
func (n *Node) logAllocation(oid addr.OID) {
	if n.log != nil {
		a, _ := n.dsm.Canonical(oid) // the allocation just set it
		n.logRange(n.tx(), a, mem.HeaderWords)
	}
}

// logObject records r's object's complete contents — header, data words and the
// fields' reference-map bits — at its current canonical address, as one
// range record. A whole object is the durable transcript of a GC copy: the
// object's earlier log records all name its from-space address, so the
// to-space copy must reach the log whole or a recovery would resolve the
// canonical address to uninitialized to-space. The record's address IS the
// object's location; the last header in log order wins.
func (n *Node) logObject(tx *rvm.Tx, r *dsm.Record) {
	if a, ok := r.Canonical(); ok {
		n.logRange(tx, a, mem.HeaderWords+n.col.Heap().ObjSize(a))
	}
}

// logRange records the words words at a, with their reference-map bits, as
// one range record read from the heap into the node's reused buffers.
func (n *Node) logRange(tx *rvm.Tx, a addr.Addr, words int) {
	heap := n.col.Heap()
	seg := heap.SegAt(a)
	n.logWords, n.logRefs = heap.ReadRange(a, words, n.logWords, n.logRefs)
	tx.SetRange(seg.Meta.ID, seg.Meta.Gen, a.WordOff(seg.Meta.Base), n.logWords, n.logRefs)
}

// flipBarrier is the collector's durability barrier (§8, O'Toole et al.):
// the BGC calls it from its locked flip bracket, once per collection. It
// logs what the flip changed — the to-space headers of copied objects and
// a death record per reclaimed object — and commits them, with whatever
// the open transaction holds, in one forced log write. Runs with the node
// lock held (the flip bracket takes it), so it touches openTx like any
// other persistence path.
//
// A crash armed via ArmFlipCrash fires here: CrashBeforeFlipSync skips the
// barrier entirely (the flip happened in memory but nothing about it
// reached the durable log), CrashAfterFlipSync runs the full barrier
// first. The actual kill is executed by the chaos driver after the
// collection returns; see crash.go.
func (n *Node) flipBarrier(fl core.FlipLog) {
	if n.log == nil {
		return
	}
	if n.flipCrash == CrashBeforeFlipSync {
		n.flipCrash = crashFired
		return
	}
	if n.openTx != nil || len(fl.Copied) > 0 || len(fl.Dead) > 0 {
		tx := n.tx()
		for _, r := range fl.Copied {
			n.logObject(tx, r)
		}
		for _, o := range fl.Dead {
			tx.SetDead(o)
		}
		n.openTx.Commit()
		n.openTx = nil
	}
	n.cl.Stats().Add("cluster.flipBarriers", 1)
	if n.flipCrash == CrashAfterFlipSync {
		n.flipCrash = crashFired
	}
}

// logWrite records one mutated field and its reference-map bit as one
// range record. Called under the cluster lock.
func (n *Node) logWrite(objAddr addr.Addr, field int) {
	if n.log == nil {
		return
	}
	n.logRange(n.tx(), n.col.Heap().DataAddr(objAddr, field), 1)
}

func (n *Node) tx() *rvm.Tx {
	if n.openTx == nil {
		n.openTx = n.log.Begin()
	}
	return n.openTx
}

// Sync commits the open mutation transaction to the node's recoverable log.
// Mutations since the previous Sync become crash-durable.
func (n *Node) Sync() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.openTx != nil {
		n.openTx.Commit()
		n.openTx = nil
	}
}

// Checkpoint writes full images of this node's mapped segments of bunch b to
// their backing files and truncates the recoverable log. Garbage-collected
// space never reaches the checkpoint: persistence by reachability means
// objects unreachable from the roots are not stored on disk (§1) — the BGC
// drops them before they can be checkpointed, and reclaimed from-space
// segments have their files removed.
func (n *Node) Checkpoint(b addr.BunchID) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.disk == nil {
		return fmt.Errorf("cluster: node %v has no disk", n.id)
	}
	if n.openTx != nil {
		n.openTx.Commit()
		n.openTx = nil
	}
	heap := n.col.Heap()
	current := make(map[addr.SegID]bool)
	for _, meta := range n.cl.dir.Segments(b) {
		current[meta.ID] = true
		if s := heap.Seg(meta.ID); s != nil {
			rvm.WriteImage(n.disk, s.Export())
		}
	}
	// The live-set names the objects these images legitimately contain.
	// Headers of already-reclaimed objects linger in from-space images
	// until the segments are recycled; recovery uses the live-set to leave
	// such corpses dead once the truncation below discards their death
	// records.
	var liveOIDs []addr.OID
	for _, r := range n.dsm.Members(b) {
		if _, ok := r.Canonical(); ok {
			liveOIDs = append(liveOIDs, r.OID())
		}
	}
	rvm.WriteLiveSet(n.disk, b, liveOIDs)
	// Remove files of segments the bunch no longer has (reclaimed
	// from-space): address recycling reaches secondary storage too (§1).
	// The judgement uses the bunch recorded IN the image — the segment's
	// current metadata may already belong to the range's next tenant.
	for _, name := range n.disk.Files() {
		if strings.HasSuffix(name, ".tmp") {
			// A crash-atomic install interrupted before its swap; the
			// canonical file is intact, so the orphan is garbage.
			n.disk.Remove(name)
			continue
		}
		var id uint32
		if _, err := fmt.Sscanf(name, "segimg-%d", &id); err != nil {
			continue
		}
		if current[addr.SegID(id)] {
			continue
		}
		if img, ok := rvm.ReadImage(n.disk, addr.SegID(id)); ok && img.Bunch == b {
			n.disk.Remove(name)
		}
	}
	n.log.Truncate()
	n.cl.Stats().Add("cluster.checkpoints", 1)
	return nil
}

// Crash simulates a node failure: the disk loses everything unsynced, and
// the in-memory replica of bunch b is discarded. RecoverBunch rebuilds it.
func (n *Node) Crash(b addr.BunchID) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.disk == nil {
		return fmt.Errorf("cluster: node %v has no disk", n.id)
	}
	n.disk.Crash()
	n.openTx = nil
	n.dropReplica(b, false)
	// The collector's cached allocation segment points at a replica the
	// drop just discarded; allocating through it would create objects the
	// heap (and the redo log) can never see. Unsent location manifests die
	// with the process as well.
	n.col.CrashBunch(b)
	n.dsm.ForgetBunch(b)
	return nil
}

// RecoverBunch reloads bunch b from this node's disk: segment images from
// the checkpoint, then the committed suffix of the recoverable log, then
// protocol state rebuilt from the recovered headers (the recovering node
// owns what it recovers, matching the one-process-per-node prototype
// simplification of §8).
func (n *Node) RecoverBunch(b addr.BunchID) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.disk == nil {
		return fmt.Errorf("cluster: node %v has no disk", n.id)
	}
	heap := n.col.Heap()
	for _, meta := range n.cl.dir.Segments(b) {
		img, ok := rvm.ReadImage(n.disk, meta.ID)
		if !ok {
			// No checkpoint image: the segment left no durable trace of
			// its own (a to-space segment from a recent flip, say). It is
			// still part of the bunch's address range, so recovery maps
			// it back empty — the log replay below repopulates whatever
			// was committed, and the allocator's frontier may point here.
			heap.MapSegment(meta)
			continue
		}
		if img.Bunch != b || img.Gen != meta.Gen {
			// The segment's address range was recycled: this backing file
			// belongs to a previous tenant — possibly of the same bunch,
			// which only the tenancy generation can tell — and must not be
			// replayed here. The range itself is current, so it comes back
			// empty.
			heap.MapSegment(meta)
			continue
		}
		seg := heap.MapSegment(meta)
		seg.Import(img)
	}
	// Replay committed mutations logged after the checkpoint. Death
	// records are collected first: a death is final (OIDs are never
	// recycled), and a reclaimed object must stay dead no matter what an
	// earlier checkpoint image or header record says — resurrecting
	// collected garbage would break persistence-by-reachability (§7).
	recs := n.log.Recover()
	dead := make(map[addr.OID]bool)
	for _, rec := range recs {
		if rec.Dead {
			dead[rec.OID] = true
		}
	}
	// The checkpoint live-set and the log's replayed headers together name
	// every object the durable store vouches for; any other header found
	// in an image is a corpse (reclaimed before the last checkpoint, death
	// record truncated away with the log).
	ckptLive, _ := rvm.ReadLiveSet(n.disk, b)
	logHeaders := make(map[addr.OID]bool)
	var zero []uint64 // as long as the largest object replayed; never written
	for _, rec := range recs {
		if rec.Dead {
			continue
		}
		meta := n.cl.dir.Allocator().Meta(rec.Seg)
		if meta == nil || meta.Bunch != b || meta.Gen != rec.Gen {
			// Unknown segment, another bunch's segment, or a record from
			// an earlier tenancy of a recycled range: replaying it would
			// corrupt whatever lives there now.
			continue
		}
		base := heap.MapSegment(meta).Meta.Base.AddWords(rec.Off)
		// A logged object header must reappear in the object map at the
		// record's address — that is where the object lived when the
		// header was logged, whether by allocation (header only) or by a
		// GC copy (full contents). The canonical address follows the last
		// header in log order, so a copied object resolves to its
		// to-space location even when the from-space image also survived
		// on disk.
		if len(rec.Words) >= mem.HeaderWords {
			oid := addr.OID(rec.Words[1])
			if info, ok := n.cl.dir.Object(oid); ok && !dead[oid] {
				logHeaders[oid] = true
				heap.Materialize(base, info.OID, info.Size)
				// The record is the object's entire durable state at this
				// log position: words beyond what it carries are zero (a
				// header-only record is a fresh allocation). Without this,
				// records of the range's previous same-bunch tenant —
				// which replayed earlier in the log — would bleed into
				// fields the new tenant never wrote.
				if len(zero) < info.Size {
					zero = make([]uint64, info.Size)
				}
				heap.WriteRange(base.AddWords(mem.HeaderWords), zero[:info.Size], zero)
				n.dsm.SetCanonical(oid, info.Bunch, base)
			}
		}
		// The record's words and reference-map bits land last, over the
		// zeroing above; header words carry 0 bits.
		heap.WriteRange(base, rec.Words, rec.Refs)
	}
	// Rebuild canonical addresses and protocol state from the headers: the
	// recovering node owns what it recovers, matching the one-process-per-
	// node prototype simplification of §8. Objects whose death was logged
	// are dropped, not registered: the collector reclaimed them before the
	// crash, and recovery must agree. An object registers at the header its
	// canonical address names; no later header changes that address.
	for _, meta := range n.cl.dir.Segments(b) {
		seg := heap.Seg(meta.ID)
		if seg == nil {
			continue
		}
		for _, a := range seg.Objects() {
			if heap.Forwarded(a) {
				continue
			}
			oid := heap.ObjOID(a)
			// A header vouched for by neither the checkpoint live-set nor
			// the replayed log suffix is a corpse: the object died before
			// the last checkpoint (its death record was truncated away,
			// but the bytes survived in a from-space image). It gets the
			// same treatment as a logged death.
			if dead[oid] || (!ckptLive[oid] && !logHeaders[oid]) {
				n.dsm.DropCanonical(oid)
				continue
			}
			can, known := n.dsm.Canonical(oid)
			if !known {
				can = a
				n.dsm.SetCanonical(oid, n.col.BunchOf(oid), a)
			}
			if can == a && !n.dsm.Knows(oid) {
				n.dsm.RegisterNew(oid, b)
			}
		}
	}
	n.cl.Stats().Add("cluster.recoveries", 1)
	return nil
}
