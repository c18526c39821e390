package dsm

import (
	"cmp"
	"fmt"
	"slices"

	"bmx/internal/addr"
)

// Record is everything one node knows about one object: its protocol state,
// canonical address, location epoch and mutator root count, so a per-object
// step does one lookup (DESIGN.md §14, "One object record per node"). A
// record lives while it holds state, an address or a root; when it is
// freed its epoch moves to the node's retired epochs. Its bunch never
// changes. Its queries accept a nil record: the node knows nothing of the
// object.
type Record struct {
	oid   addr.OID
	bunch addr.BunchID
	roots int32     // mutator root handles (stack references) on this node
	canon addr.Addr // node-local canonical header address, NilAddr if none
	epoch uint64    // relocation epoch applied (or, at the owner, produced) here; see Manifest.Epoch
	freed bool
	// mark is the node's collector's mark, opaque here: it sits in the
	// padding after freed, and a fresh record starts at 0.
	mark uint32
	// st is the protocol state, valid while st.rec points back here. A
	// record that loses its state is retired and its other contents move
	// to a fresh record (detach), so a protocol step that released the node
	// lock around a call keeps writing to the state it started with, even
	// if a re-entrant handler forgot the object meanwhile.
	st ObjState
}

// The record's plain accessors.

func (r *Record) OID() addr.OID       { return r.oid }
func (r *Record) Bunch() addr.BunchID { return r.bunch }
func (r *Record) Known() bool         { return r != nil && r.st.rec != nil }
func (r *Record) IsOwner() bool       { return r.Known() && r.st.Owner }
func (r *Record) IsRoot() bool        { return r != nil && r.roots > 0 }
func (r *Record) HasEntering() bool   { return r.Known() && len(r.st.Entering) > 0 }
func (r *Record) Epoch() uint64       { return r.epoch }
func (r *Record) SetEpoch(e uint64)   { r.epoch = e }
func (r *Record) Mark() uint32        { return r.mark }
func (r *Record) SetMark(m uint32)    { r.mark = m }

// Mode returns the node's token mode for the object.
func (r *Record) Mode() Mode {
	if !r.Known() {
		return ModeInvalid
	}
	return r.st.Mode
}

// SetCanonical records the node's canonical address; it never frees r.
func (r *Record) SetCanonical(a addr.Addr) { r.canon = a }

// Canonical returns the node's canonical address for the object.
func (r *Record) Canonical() (addr.Addr, bool) {
	if r == nil {
		return addr.NilAddr, false
	}
	return r.canon, !r.canon.IsNil()
}

// BumpEpoch starts the object's next location epoch and returns it.
func (r *Record) BumpEpoch() uint64 {
	r.epoch++
	return r.epoch
}

// OwnerPtr returns where the replica's ownerPtr points, NoNode for an owned
// or unknown object.
func (r *Record) OwnerPtr() addr.NodeID {
	if !r.Known() || r.st.Owner {
		return addr.NoNode
	}
	return r.st.OwnerPtr
}

// ReplicaNodes lists the nodes the state says hold a replica through this
// node, a node possibly twice: the copy-set and the entering ownerPtrs.
func (r *Record) ReplicaNodes() []addr.NodeID {
	if !r.Known() {
		return nil
	}
	out := slices.Clone(r.st.CopySet)
	for _, e := range r.st.Entering {
		out = append(out, e.Node)
	}
	return out
}

// members is one bunch's member list: its records in OID order. A record is
// appended when created and dropped lazily once freed; a walk sorts only
// what was appended out of order and merges it into the sorted prefix.
type members struct {
	recs   []*Record
	sorted int  // recs[:sorted] is in OID order
	freed  bool // a listed record was freed
	buf    []*Record
}

// enterKey keys the entering index: the entering ownerPtrs that node from
// holds into bunch's objects here.
type enterKey struct {
	bunch addr.BunchID
	from  addr.NodeID
}

// Record returns the node's record for o, or nil.
func (n *Node) Record(o addr.OID) *Record { return n.objs[o] }

// record returns o's record, creating it in bunch b if there is none.
func (n *Node) record(o addr.OID, b addr.BunchID) *Record {
	if r, ok := n.objs[o]; ok {
		return r
	}
	r := &Record{oid: o, bunch: b, epoch: n.retired[o]}
	delete(n.retired, o)
	n.objs[o] = r
	n.list(r)
	return r
}

// list appends r to its bunch's member list.
func (n *Node) list(r *Record) {
	m := n.bunches[r.bunch]
	if m == nil {
		m = &members{}
		n.bunches[r.bunch] = m
	}
	if k := len(m.recs); m.sorted == k && (k == 0 || m.recs[k-1].oid < r.oid) {
		m.sorted++
	}
	m.recs = append(m.recs, r)
}

// release frees r once it holds nothing.
func (n *Node) release(r *Record) {
	if r.st.rec != nil || !r.canon.IsNil() || r.roots > 0 || r.freed {
		return
	}
	r.freed = true
	delete(n.objs, r.oid)
	if r.epoch != 0 {
		n.retired[r.oid] = r.epoch
	}
	n.bunches[r.bunch].freed = true
}

// Members returns bunch b's records in OID order. The slice is the node's
// own: the caller may free records or forget their state while walking it
// (a freed record stays in it; one a forget re-creates is appended, unseen),
// but must not walk b again.
func (n *Node) Members(b addr.BunchID) []*Record {
	m := n.bunches[b]
	if m == nil {
		return nil
	}
	if m.freed {
		k, sorted := 0, 0
		for i, r := range m.recs {
			if !r.freed {
				if i < m.sorted {
					sorted++
				}
				m.recs[k] = r
				k++
			}
		}
		clear(m.recs[k:])
		m.recs, m.sorted, m.freed = m.recs[:k], sorted, false
	}
	if m.sorted == len(m.recs) {
		return m.recs
	}
	// Merge in place: the prefix is copied aside, and the write index never
	// passes the next unread record of the sorted tail.
	head, tail := m.recs[:m.sorted], m.recs[m.sorted:]
	slices.SortFunc(tail, func(a, b *Record) int { return cmp.Compare(a.oid, b.oid) })
	if len(head) > 0 && tail[0].oid < head[len(head)-1].oid {
		m.buf = append(m.buf[:0], head...)
		i, j := 0, 0
		for k := range m.recs {
			if j == len(tail) || i < len(m.buf) && m.buf[i].oid < tail[j].oid {
				m.recs[k], i = m.buf[i], i+1
			} else {
				m.recs[k], j = tail[j], j+1
			}
		}
		clear(m.buf)
	}
	m.sorted = len(m.recs)
	return m.recs
}

// attach gives o fresh protocol state, replacing any it had; a new record
// goes in bunch b.
func (n *Node) attach(o addr.OID, b addr.BunchID) *ObjState {
	r := n.record(o, b)
	if r.st.rec != nil {
		n.detach(r)
		r = n.record(o, b)
	}
	r.st = ObjState{Bunch: r.bunch, Mode: ModeInvalid, OwnerPtr: addr.NoNode, rec: r}
	return &r.st
}

// detach drops r's protocol state and unindexes its entering ownerPtrs. The
// state stays in r, detached, for a caller still holding it: r is freed,
// and a fresh record takes over whatever else it held, the mark included.
func (n *Node) detach(r *Record) {
	for _, e := range r.st.Entering {
		n.unindex(r.bunch, e.Node, r.oid)
	}
	r.st.rec = nil
	if r.canon.IsNil() && r.roots == 0 {
		n.release(r)
		return
	}
	nr := &Record{oid: r.oid, bunch: r.bunch, roots: r.roots, canon: r.canon, epoch: r.epoch, mark: r.mark}
	r.freed = true
	n.bunches[r.bunch].freed = true
	n.objs[r.oid] = nr
	n.list(nr)
}

// setEntering records (or restamps) from's entering ownerPtr on st as an
// ordinary root, indexing it while st is attached.
func (n *Node) setEntering(st *ObjState, from addr.NodeID, gen uint64) {
	if st.setEntering(from, gen) && st.rec != nil {
		k := enterKey{st.Bunch, from}
		if n.entering[k] == nil {
			n.entering[k] = make(map[addr.OID]*ObjState)
		}
		n.entering[k][st.rec.oid] = st
	}
}

// dropEntering removes from's entering entry from st and from the index.
func (n *Node) dropEntering(st *ObjState, from addr.NodeID) {
	if st.dropEntering(from) && st.rec != nil {
		n.unindex(st.Bunch, from, st.rec.oid)
	}
}

func (n *Node) unindex(b addr.BunchID, from addr.NodeID, o addr.OID) {
	k := enterKey{b, from}
	delete(n.entering[k], o)
	if len(n.entering[k]) == 0 {
		delete(n.entering, k)
	}
}

// Canonical returns this node's canonical address for o.
func (n *Node) Canonical(o addr.OID) (addr.Addr, bool) { return n.objs[o].Canonical() }

// SetCanonical records a as this node's canonical address for o, a new
// record going in bunch b, and returns o's record.
func (n *Node) SetCanonical(o addr.OID, b addr.BunchID, a addr.Addr) *Record {
	r := n.record(o, b)
	r.canon = a
	return r
}

// DropCanonical forgets o's canonical address.
func (n *Node) DropCanonical(o addr.OID) {
	if r, ok := n.objs[o]; ok {
		r.canon = addr.NilAddr
		n.release(r)
	}
}

// ForEachCanonical calls f with every object that has a canonical address
// here, and that address, in no particular order. f may drop the address or
// the state of the object it is given, but must not create records.
func (n *Node) ForEachCanonical(f func(o addr.OID, a addr.Addr)) {
	for _, m := range n.bunches {
		for _, r := range m.recs {
			if !r.freed && !r.canon.IsNil() {
				f(r.oid, r.canon)
			}
		}
	}
}

// Epoch returns o's location epoch here, 0 if none was ever applied.
func (n *Node) Epoch(o addr.OID) uint64 {
	if r, ok := n.objs[o]; ok {
		return r.epoch
	}
	return n.retired[o]
}

// SetEpoch records o's location epoch, with or without a record.
func (n *Node) SetEpoch(o addr.OID, e uint64) {
	switch r, ok := n.objs[o]; {
	case ok:
		r.epoch = e
	case e != 0:
		n.retired[o] = e
	default:
		delete(n.retired, o)
	}
}

// AddRoot registers a mutator stack reference to o; roots are counted so
// that nested handles release correctly. A handle to an object the node
// keeps no record of takes its bunch from the directory.
func (n *Node) AddRoot(o addr.OID) {
	r, ok := n.objs[o]
	if !ok {
		b, _ := n.hooks.Locate(o)
		r = n.record(o, b)
	}
	r.roots++
}

// RemoveRoot drops one mutator stack reference to o.
func (n *Node) RemoveRoot(o addr.OID) {
	if r, ok := n.objs[o]; ok && r.roots > 0 {
		r.roots--
		n.release(r)
	}
}

// IsRoot reports whether o is currently a mutator root on this node.
func (n *Node) IsRoot(o addr.OID) bool { return n.objs[o].IsRoot() }

// ClearMarks sets every record's mark to 0.
func (n *Node) ClearMarks() {
	for _, r := range n.objs {
		r.mark = 0
	}
}

// AuditIndexes checks the member lists and the entering index against a
// walk of the records and returns what disagrees (Cluster.CheckInvariants).
func (n *Node) AuditIndexes() []string {
	var bad []string
	report := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	listed := make(map[*Record]int, len(n.objs))
	for b, m := range n.bunches {
		for i, r := range m.recs {
			if 0 < i && i < m.sorted && m.recs[i-1].oid > r.oid {
				report("members: %v's sorted prefix is out of order at %v", b, r.oid)
			}
			if !r.freed && r.bunch == b {
				listed[r]++
			} else if !r.freed || !m.freed {
				report("members: %v (freed %v, in %v) is listed in %v", r.oid, r.freed, r.bunch, b)
			}
		}
	}
	indexed := 0
	for o, r := range n.objs {
		_, retired := n.retired[o]
		switch {
		case listed[r] != 1 || r.oid != o || r.freed:
			report("records: %v is listed %d times (freed %v)", o, listed[r], r.freed)
		case retired || !r.Known() && r.canon.IsNil() && r.roots == 0:
			report("records: %v holds nothing or has a retired epoch too", o)
		case r.Known() && r.st.Bunch != r.bunch:
			report("records: %v's state is in %v, not %v", o, r.st.Bunch, r.bunch)
		}
		if !r.Known() {
			continue
		}
		for _, e := range r.st.Entering {
			if n.entering[enterKey{r.bunch, e.Node}][o] != &r.st {
				report("entering: the index lacks %v's entry from %v", o, e.Node)
			}
			indexed++
		}
	}
	for _, set := range n.entering {
		indexed -= len(set)
	}
	if indexed != 0 {
		report("entering: the index holds %d entries the records do not", -indexed)
	}
	return bad
}
