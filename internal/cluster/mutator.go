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
	defer n.critical()()
	defer n.lock()()
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
	defer n.lock()()
	n.col.AddRoot(r.OID)
}

// RemoveRoot drops one stack reference to r.
func (n *Node) RemoveRoot(r Ref) {
	defer n.lock()()
	n.col.RemoveRoot(r.OID)
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
	defer n.critical()()
	defer n.cl.lockObject(r.OID)()
	defer n.lock()()
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
	defer n.critical()()
	defer n.lock()()
	n.dsm.Release(r.OID)
}

// WriteRef stores a reference to target in field i of obj. The caller must
// hold obj's write token. Every write passes the write barrier (§3.2),
// which constructs inter-bunch SSPs as needed.
func (n *Node) WriteRef(obj Ref, i int, target Ref) error {
	defer n.rec.StartSpan(obs.OpWriteRef, obj.OID).End()
	defer n.critical()()
	defer n.lock()()
	heap := n.col.Heap()
	var ta addr.Addr
	if !target.IsNil() {
		var ok bool
		ta, ok = heap.Canonical(target.OID)
		if !ok {
			return fmt.Errorf("cluster: %v holds no address for %v", n.id, target)
		}
	}
	a, err := n.writableAddr(obj)
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
		if a2, err2 := n.writableAddr(obj); err2 == nil {
			heap.SetField(a2, i, oldWord, oldRef)
		}
		return err
	}
	n.col.NoteWrite(obj.OID)
	n.cl.heat.NoteWrite(n.id, obj.OID, n.dsm.KnownBunch(obj.OID))
	n.logWrite(obj.OID, a, i)
	return nil
}

// WriteWord stores a scalar in field i of obj (write token required).
func (n *Node) WriteWord(obj Ref, i int, v uint64) error {
	defer n.rec.StartSpan(obs.OpWriteWord, obj.OID).End()
	defer n.critical()()
	defer n.lock()()
	a, err := n.writableAddr(obj)
	if err != nil {
		return err
	}
	n.col.Heap().SetField(a, i, v, false)
	if err := n.col.WriteBarrier(obj.OID, addr.NilOID); err != nil {
		return err // unreachable: a nil target needs no SSP
	}
	n.col.NoteWrite(obj.OID)
	n.cl.heat.NoteWrite(n.id, obj.OID, n.dsm.KnownBunch(obj.OID))
	n.logWrite(obj.OID, a, i)
	return nil
}

// ReadRef loads the reference in field i of obj, seeing through any
// forwarding pointers (the pointer-comparison/indirection semantics of
// §4.2). The caller must hold a read or write token for obj.
func (n *Node) ReadRef(obj Ref, i int) (Ref, error) {
	defer n.critical()()
	defer n.lock()()
	a, err := n.readableAddr(obj)
	if err != nil {
		return Nil, err
	}
	n.cl.heat.NoteRead(n.id, obj.OID, n.dsm.KnownBunch(obj.OID))
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
	_, oid := n.col.ResolveRef(v)
	if oid.IsNil() {
		return Nil, fmt.Errorf("cluster: dangling reference %v in field %d of %v", v, i, obj)
	}
	return Ref{OID: oid}, nil
}

// ReadWord loads the scalar in field i of obj (read or write token
// required).
func (n *Node) ReadWord(obj Ref, i int) (uint64, error) {
	defer n.critical()()
	defer n.lock()()
	a, err := n.readableAddr(obj)
	if err != nil {
		return 0, err
	}
	n.cl.heat.NoteRead(n.id, obj.OID, n.dsm.KnownBunch(obj.OID))
	return n.col.Heap().GetField(a, i), nil
}

// SamePtr is the special pointer-comparison operation of §4.2/§8: it
// compares two references through any forwarding pointers.
func (n *Node) SamePtr(x, y Ref) bool { return x.OID == y.OID }

// Size returns the object's size in words (no token needed; sizes are
// immutable header data).
func (n *Node) Size(obj Ref) (int, error) {
	defer n.lock()()
	a, ok := n.col.Heap().Canonical(obj.OID)
	if !ok || !n.col.Heap().Mapped(a) {
		return 0, fmt.Errorf("cluster: %v not present at %v", obj, n.id)
	}
	return n.col.Heap().ObjSize(a), nil
}

// Mode returns this node's token state for obj (for assertions and the
// figure tool: r, w or i as in the paper's figures).
func (n *Node) Mode(obj Ref) dsm.Mode {
	defer n.lock()()
	return n.dsm.ModeOf(obj.OID)
}

// IsOwner reports whether this node owns obj.
func (n *Node) IsOwner(obj Ref) bool {
	defer n.lock()()
	return n.dsm.IsOwner(obj.OID)
}

func (n *Node) writableAddr(obj Ref) (addr.Addr, error) {
	if n.dsm.ModeOf(obj.OID) != dsm.ModeWrite {
		return addr.NilAddr, fmt.Errorf("cluster: %v writes %v without the write token", n.id, obj)
	}
	return n.presentAddr(obj)
}

func (n *Node) readableAddr(obj Ref) (addr.Addr, error) {
	if n.dsm.ModeOf(obj.OID) < dsm.ModeRead {
		return addr.NilAddr, fmt.Errorf("cluster: %v reads %v without a token", n.id, obj)
	}
	return n.presentAddr(obj)
}

func (n *Node) presentAddr(obj Ref) (addr.Addr, error) {
	heap := n.col.Heap()
	a, ok := heap.Canonical(obj.OID)
	if !ok {
		return addr.NilAddr, fmt.Errorf("cluster: %v holds no address for %v", n.id, obj)
	}
	a = heap.Resolve(a)
	if !heap.Mapped(a) || !heap.IsObjectAt(a) {
		return addr.NilAddr, fmt.Errorf("cluster: %v at %v is not materialized on %v", obj, a, n.id)
	}
	return a, nil
}
