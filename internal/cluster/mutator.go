package cluster

import (
	"fmt"

	"bmx/internal/addr"
	"bmx/internal/dsm"
	"bmx/internal/obs"
	"bmx/internal/transport"
)

// Ref is a mutator-visible object handle. The paper's mutators hold ordinary
// pointers and use a special comparison macro to see through forwarding
// pointers (§4.2, §8); this API names objects by their stable identity and
// resolves the current local address internally, which has exactly the
// semantics the macro provides.
type Ref struct {
	OID addr.OID
}

// Nil is the null reference.
var Nil = Ref{}

// IsNil reports whether the reference is null.
func (r Ref) IsNil() bool { return r.OID.IsNil() }

// String labels the reference like the paper's figures (O1, O2, ...).
func (r Ref) String() string { return r.OID.String() }

// Alloc allocates an object with size pointer-or-scalar words in bunch b.
// The allocating node becomes the owner and holds the write token. The new
// object is unreachable until rooted or linked: callers must do one of the
// two before the next collection, exactly as a real mutator keeps new
// objects on its stack.
func (n *Node) Alloc(b addr.BunchID, size int) (Ref, error) {
	defer n.rec.StartSpan(obs.OpAlloc, addr.NilOID).End()
	n.rec.EnterCritical()
	defer n.rec.ExitCritical()
	n.mu.Lock()
	defer n.mu.Unlock()
	oid, err := n.col.Alloc(b, size)
	if err != nil {
		return Nil, err
	}
	n.logAllocation(oid)
	return Ref{OID: oid}, nil
}

// MustAlloc is Alloc for tests and examples where failure is fatal.
func (n *Node) MustAlloc(b addr.BunchID, size int) Ref {
	r, err := n.Alloc(b, size)
	if err != nil {
		panic(err)
	}
	return r
}

// AddRoot registers r in this node's root set (a mutator stack reference).
func (n *Node) AddRoot(r Ref) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dsm.AddRoot(r.OID)
}

// RemoveRoot drops one stack reference to r.
func (n *Node) RemoveRoot(r Ref) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dsm.RemoveRoot(r.OID)
}

// AcquireRead obtains a read token for r (§2.2). On return the local copy is
// consistent and — by invariant 1 of §5 — the addresses of r and everything
// it references are valid here.
func (n *Node) AcquireRead(r Ref) error { return n.acquireToken(r, dsm.ModeRead) }

// AcquireWrite obtains the exclusive write token for r, transferring
// ownership here and invalidating all other consistent copies.
func (n *Node) AcquireWrite(r Ref) error { return n.acquireToken(r, dsm.ModeWrite) }

// acquireToken is the top-level token entry point: it serializes against
// other top-level acquires of the same object cluster-wide (the object lock
// is taken before the node lock and held across the whole acquire chain, so
// concurrent acquires of one object cannot interleave their forwarding
// hops), then performs the acquire under the node lock.
func (n *Node) acquireToken(r Ref, mode dsm.Mode) error {
	op := obs.OpAcquireR
	if mode == dsm.ModeWrite {
		op = obs.OpAcquireW
	}
	defer n.rec.StartSpan(op, r.OID).End()
	n.rec.EnterCritical()
	defer n.rec.ExitCritical()
	ol := n.cl.objLock(r.OID)
	ol.Lock()
	defer ol.Unlock()
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.acquireLocked(r, mode)
}

// acquireLocked performs a token acquire at the configured consistency
// granularity: per object (the paper's design), or per allocation segment
// (the coarse-grain variant of §10's future work, emulating page-grain DSM
// and its false sharing).
func (n *Node) acquireLocked(r Ref, mode dsm.Mode) error {
	if err := n.dsm.Acquire(r.OID, mode, transport.ClassApp); err != nil {
		return err
	}
	if !n.cl.cfg.SegmentGrainTokens {
		return nil
	}
	info, ok := n.cl.dir.Object(r.OID)
	if !ok {
		return nil
	}
	for _, sib := range n.cl.dir.SegmentPopulation(info.AllocAddr) {
		if sib == r.OID {
			continue
		}
		// Co-located objects share the token unit; siblings that have
		// already been reclaimed everywhere simply no longer participate.
		if err := n.dsm.Acquire(sib, mode, transport.ClassApp); err != nil {
			n.cl.Stats().Add("cluster.grain.siblingSkipped", 1)
		}
	}
	return nil
}

// Release ends the critical section on r. Under entry consistency this is
// local: the token stays cached until another node claims it.
func (n *Node) Release(r Ref) {
	n.rec.EnterCritical()
	defer n.rec.ExitCritical()
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dsm.Release(r.OID)
}

// WriteRef stores a reference to target in field i of obj. The caller must
// hold obj's write token. Every write passes the write barrier (§3.2),
// which constructs inter-bunch SSPs as needed.
func (n *Node) WriteRef(obj Ref, i int, target Ref) error {
	defer n.rec.StartSpan(obs.OpWriteRef, obj.OID).End()
	n.rec.EnterCritical()
	defer n.rec.ExitCritical()
	n.mu.Lock()
	defer n.mu.Unlock()
	heap := n.col.Heap()
	var ta addr.Addr
	if !target.IsNil() {
		var ok bool
		ta, ok = n.dsm.Canonical(target.OID)
		if !ok {
			return fmt.Errorf("cluster: %v holds no address for %v", n.id, target)
		}
	}
	r, a, err := n.tokenAddr(obj, dsm.ModeWrite)
	if err != nil {
		return err
	}
	oldWord, oldRef := heap.GetField(a, i), heap.IsRefField(a, i)
	heap.SetField(a, i, uint64(ta), !target.IsNil())
	if err := n.col.WriteBarrier(obj.OID, target.OID); err != nil {
		// The protecting SSP could not be constructed (every candidate
		// scion host unreachable, e.g. across a partition): undo the store
		// so no unprotected inter-bunch reference remains, and surface the
		// failure — the caller retries after the fault heals. The address is
		// re-resolved: the barrier's scion-message releases the node lock
		// while it waits, and a collection may have moved the object.
		if _, a2, err2 := n.tokenAddr(obj, dsm.ModeWrite); err2 == nil {
			heap.SetField(a2, i, oldWord, oldRef)
		}
		return err
	}
	n.col.NoteWrite(r.Bunch(), obj.OID)
	if n.heat.Enabled() {
		n.heat.NoteWrite(obj.OID, r.Bunch())
	}
	n.logWrite(a, i)
	return nil
}

// WriteWord stores a scalar in field i of obj (write token required).
func (n *Node) WriteWord(obj Ref, i int, v uint64) error {
	defer n.rec.StartSpan(obs.OpWriteWord, obj.OID).End()
	n.rec.EnterCritical()
	defer n.rec.ExitCritical()
	n.mu.Lock()
	defer n.mu.Unlock()
	r, a, err := n.tokenAddr(obj, dsm.ModeWrite)
	if err != nil {
		return err
	}
	n.col.Heap().SetField(a, i, v, false)
	if err := n.col.WriteBarrier(obj.OID, addr.NilOID); err != nil {
		return err // unreachable: a nil target needs no SSP
	}
	n.col.NoteWrite(r.Bunch(), obj.OID)
	if n.heat.Enabled() {
		n.heat.NoteWrite(obj.OID, r.Bunch())
	}
	n.logWrite(a, i)
	return nil
}

// ReadRef loads the reference in field i of obj, seeing through any
// forwarding pointers (the pointer-comparison/indirection semantics of
// §4.2). The caller must hold a read or write token for obj.
func (n *Node) ReadRef(obj Ref, i int) (Ref, error) {
	n.rec.EnterCritical()
	defer n.rec.ExitCritical()
	n.mu.Lock()
	defer n.mu.Unlock()
	r, a, err := n.tokenAddr(obj, dsm.ModeRead)
	if err != nil {
		return Nil, err
	}
	if n.heat.Enabled() {
		n.heat.NoteRead(obj.OID, r.Bunch())
	}
	heap := n.col.Heap()
	if !heap.IsRefField(a, i) {
		v := heap.GetField(a, i)
		if v == 0 {
			return Nil, nil
		}
		return Nil, fmt.Errorf("cluster: field %d of %v is not a reference", i, obj)
	}
	v := addr.Addr(heap.GetField(a, i))
	if v.IsNil() {
		return Nil, nil
	}
	oid := heap.OIDAt(v)
	if oid.IsNil() {
		return Nil, fmt.Errorf("cluster: dangling reference %v in field %d of %v", v, i, obj)
	}
	return Ref{OID: oid}, nil
}

// ReadWord loads the scalar in field i of obj (read or write token
// required).
func (n *Node) ReadWord(obj Ref, i int) (uint64, error) {
	n.rec.EnterCritical()
	defer n.rec.ExitCritical()
	n.mu.Lock()
	defer n.mu.Unlock()
	r, a, err := n.tokenAddr(obj, dsm.ModeRead)
	if err != nil {
		return 0, err
	}
	if n.heat.Enabled() {
		n.heat.NoteRead(obj.OID, r.Bunch())
	}
	return n.col.Heap().GetField(a, i), nil
}

// SamePtr is the special pointer-comparison operation of §4.2/§8: it
// compares two references through any forwarding pointers.
func (n *Node) SamePtr(x, y Ref) bool { return x.OID == y.OID }

// Size returns the object's size in words (no token needed; sizes are
// immutable header data).
func (n *Node) Size(obj Ref) (int, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	a, ok := n.dsm.Canonical(obj.OID)
	if !ok || !n.col.Heap().Mapped(a) {
		return 0, fmt.Errorf("cluster: %v not present at %v", obj, n.id)
	}
	return n.col.Heap().ObjSize(a), nil
}

// Mode returns this node's token state for obj (for assertions and the
// figure tool: r, w or i as in the paper's figures).
func (n *Node) Mode(obj Ref) dsm.Mode {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.dsm.ModeOf(obj.OID)
}

// IsOwner reports whether this node owns obj.
func (n *Node) IsOwner(obj Ref) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.dsm.IsOwner(obj.OID)
}

// tokenAddr returns obj's record and its present local address, provided
// this node holds at least the need token for it: one record lookup per
// mutator operation.
func (n *Node) tokenAddr(obj Ref, need dsm.Mode) (*dsm.Record, addr.Addr, error) {
	r := n.dsm.Record(obj.OID)
	switch {
	case r.Mode() >= need:
	case need == dsm.ModeWrite:
		return nil, addr.NilAddr, fmt.Errorf("cluster: %v writes %v without the write token", n.id, obj)
	default:
		return nil, addr.NilAddr, fmt.Errorf("cluster: %v reads %v without a token", n.id, obj)
	}
	heap := n.col.Heap()
	a, ok := r.Canonical()
	if !ok {
		return nil, addr.NilAddr, fmt.Errorf("cluster: %v holds no address for %v", n.id, obj)
	}
	a = heap.Resolve(a)
	if !heap.Mapped(a) || !heap.IsObjectAt(a) {
		return nil, addr.NilAddr, fmt.Errorf("cluster: %v at %v is not materialized on %v", obj, a, n.id)
	}
	return r, a, nil
}
