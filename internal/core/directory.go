// Package core implements the paper's primary contribution: the copying
// garbage collector for persistent distributed shared objects in weakly
// consistent DSM. It contains the three cooperating subalgorithms of §3:
//
//   - the bunch garbage collector (BGC, §4), which collects one local
//     replica of one bunch independently of every other bunch and of every
//     other replica of the same bunch, copying only locally-owned live
//     objects and merely scanning (possibly inconsistent) non-owned ones,
//     and never acquiring a token;
//   - the scion cleaner (§6), which consumes the idempotent reachability
//     tables produced by remote BGCs to retire dead scions and entering
//     ownerPtrs;
//   - the group garbage collector (GGC, §7), which collects a
//     locality-chosen group of co-mapped bunches at one site to reclaim
//     inter-bunch cycles.
//
// It also implements the from-space reuse protocol of §4.5 and the dsm.Hooks
// side of the three invariants of §5.
package core

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"bmx/internal/addr"
	"bmx/internal/mem"
)

// ObjInfo is the directory's record of one object: where it was allocated
// and by whom. The allocation site is the first owner and therefore a valid
// starting point for any ownerPtr chain. The directory keeps one per object
// ever allocated, packed in its object table (objEntry).
type ObjInfo struct {
	OID       addr.OID
	AllocAddr addr.Addr
	Size      int
	Bunch     addr.BunchID
	AllocNode addr.NodeID
}

type bunchInfo struct {
	id      addr.BunchID
	creator addr.NodeID
	// replicas are nodes that explicitly mapped the bunch (§2.1).
	replicas map[addr.NodeID]bool
	// interested are nodes that cached some of the bunch's objects via
	// consistency traffic without mapping the whole bunch; they need
	// address-change rounds (§4.5) and reachability tables, but a
	// reference created at such a node still requires a scion-message to
	// a node actually mapping the bunch (§3.2).
	interested map[addr.NodeID]bool
	segs       []addr.SegID
}

// Directory is the cluster-wide metadata service — the role the paper gives
// the BMX-server (§8): allocation of non-overlapping segments, the
// bunch-to-segment map, the set of nodes holding a replica of each bunch,
// and the allocation records of objects. It holds no object *contents*;
// those live in per-node heaps and move only via protocol messages.
type Directory struct {
	mu        sync.Mutex
	alloc     *mem.Allocator
	bunches   map[addr.BunchID]*bunchInfo
	objects   objTable
	nextBunch addr.BunchID
	nextOID   addr.OID
	// segObjs lists the objects allocated in each segment (the population
	// sharing one token under segment-grain consistency).
	segObjs map[addr.SegID][]addr.OID
}

// objPageShift sets the object table's page: 4 096 entries of 24 bytes.
const objPageShift = 12

// objTable is the directory's object records, indexed by OID: fixed pages
// of entries, so a record costs its entry and no hash slot. NewOID issues
// OIDs from one counter, so the pages up to the counter's sit in a slice.
// A page past it, for an OID the directory has not issued, goes in a map:
// a stray huge OID costs one page, not memory in proportion to its value.
type objTable struct {
	pages []*objPage
	far   map[uint64]*objPage
}

type objPage [1 << objPageShift]objEntry

// objEntry is one OID's slot: its allocation record, if registered (alloc
// set), and its owner hint, if one was recorded (hint set).
type objEntry struct {
	addr  addr.Addr
	size  int32
	bunch addr.BunchID
	alloc nodeSlot
	hint  nodeSlot
}

// nodeSlot holds a NodeID with its sign bit flipped, so the zero slot
// holds none: the one NodeID it cannot hold, math.MinInt32, is no node's.
type nodeSlot int32

func slotOf(n addr.NodeID) nodeSlot  { return nodeSlot(n ^ math.MinInt32) }
func (s nodeSlot) node() addr.NodeID { return addr.NodeID(s ^ math.MinInt32) }

// entry returns o's slot, nil if its page does not exist. With grow it
// creates the page: in the slice if it is at most the page of issued (the
// next OID to issue), else in the map.
func (t *objTable) entry(o, issued addr.OID, grow bool) *objEntry {
	p := uint64(o) >> objPageShift
	var pg *objPage
	if p < uint64(len(t.pages)) {
		pg = t.pages[p]
	}
	if pg == nil && t.far != nil {
		pg = t.far[p]
	}
	if pg == nil {
		if !grow {
			return nil
		}
		pg = new(objPage)
		if p <= uint64(issued)>>objPageShift {
			if n := int(p) + 1; n > len(t.pages) {
				t.pages = append(t.pages, make([]*objPage, n-len(t.pages))...)
			}
			t.pages[p] = pg
		} else {
			if t.far == nil {
				t.far = make(map[uint64]*objPage)
			}
			t.far[p] = pg
		}
	}
	return &pg[uint64(o)&(1<<objPageShift-1)]
}

// NewDirectory creates a directory drawing segments from alloc.
func NewDirectory(alloc *mem.Allocator) *Directory {
	return &Directory{
		alloc:     alloc,
		bunches:   make(map[addr.BunchID]*bunchInfo),
		nextBunch: 1,
		nextOID:   1,
		segObjs:   make(map[addr.SegID][]addr.OID),
	}
}

// Allocator returns the cluster segment allocator.
func (d *Directory) Allocator() *mem.Allocator { return d.alloc }

// NewBunch registers a bunch created (and initially replicated) at creator.
func (d *Directory) NewBunch(creator addr.NodeID) addr.BunchID {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := d.nextBunch
	d.nextBunch++
	d.bunches[id] = &bunchInfo{
		id:         id,
		creator:    creator,
		replicas:   map[addr.NodeID]bool{creator: true},
		interested: make(map[addr.NodeID]bool),
	}
	return id
}

func (d *Directory) bunch(b addr.BunchID) *bunchInfo {
	bi, ok := d.bunches[b]
	if !ok {
		panic(fmt.Sprintf("core: unknown bunch %v", b))
	}
	return bi
}

// Bunches returns every registered bunch, sorted.
func (d *Directory) Bunches() []addr.BunchID {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]addr.BunchID, 0, len(d.bunches))
	for b := range d.bunches {
		out = append(out, b)
	}
	slices.Sort(out)
	return out
}

// Creator returns the node that created bunch b.
func (d *Directory) Creator(b addr.BunchID) addr.NodeID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bunch(b).creator
}

// AddReplica records that node holds a replica of bunch b.
func (d *Directory) AddReplica(b addr.BunchID, node addr.NodeID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.bunch(b).replicas[node] = true
}

// RemoveReplica records that node dropped its replica of bunch b.
func (d *Directory) RemoveReplica(b addr.BunchID, node addr.NodeID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.bunch(b).replicas, node)
}

// Replicas returns the nodes holding a replica of bunch b, sorted.
func (d *Directory) Replicas(b addr.BunchID) []addr.NodeID {
	d.mu.Lock()
	defer d.mu.Unlock()
	bi := d.bunch(b)
	out := make([]addr.NodeID, 0, len(bi.replicas))
	for n := range bi.replicas {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// HasReplica reports whether node explicitly mapped bunch b.
func (d *Directory) HasReplica(b addr.BunchID, node addr.NodeID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bunch(b).replicas[node]
}

// AddInterested records that node caches some objects of bunch b without
// having mapped it.
func (d *Directory) AddInterested(b addr.BunchID, node addr.NodeID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	bi := d.bunch(b)
	if !bi.replicas[node] {
		bi.interested[node] = true
	}
}

// Holders returns every node with any content of bunch b — explicit
// replicas plus interested parties — sorted. This is the fan-out set for
// location updates, reachability tables, and §4.5 address-change rounds.
func (d *Directory) Holders(b addr.BunchID) []addr.NodeID {
	d.mu.Lock()
	defer d.mu.Unlock()
	bi := d.bunch(b)
	set := make(map[addr.NodeID]bool, len(bi.replicas)+len(bi.interested))
	for n := range bi.replicas {
		set[n] = true
	}
	for n := range bi.interested {
		set[n] = true
	}
	out := make([]addr.NodeID, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// AddSegment allocates a fresh segment for bunch b.
func (d *Directory) AddSegment(b addr.BunchID) *mem.SegmentMeta {
	d.mu.Lock()
	defer d.mu.Unlock()
	m := d.alloc.NewSegment(b)
	bi := d.bunch(b)
	bi.segs = append(bi.segs, m.ID)
	return m
}

// RemoveSegment detaches a reclaimed segment from its bunch and returns its
// address range to the allocator for recycling (§4.5: "the from-space
// segment can be fully reused or freed").
func (d *Directory) RemoveSegment(b addr.BunchID, id addr.SegID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	bi := d.bunch(b)
	for i, s := range bi.segs {
		if s != id {
			continue
		}
		bi.segs = append(bi.segs[:i], bi.segs[i+1:]...)
		if d.alloc.Meta(id) != nil {
			delete(d.segObjs, id)
		}
		d.alloc.Free(id)
		return
	}
}

// Segments returns the current segments of bunch b, in allocation order.
func (d *Directory) Segments(b addr.BunchID) []*mem.SegmentMeta {
	d.mu.Lock()
	defer d.mu.Unlock()
	bi := d.bunch(b)
	out := make([]*mem.SegmentMeta, 0, len(bi.segs))
	for _, id := range bi.segs {
		out = append(out, d.alloc.Meta(id))
	}
	return out
}

// NewOID issues a cluster-unique object identifier.
func (d *Directory) NewOID() addr.OID {
	d.mu.Lock()
	defer d.mu.Unlock()
	o := d.nextOID
	d.nextOID++
	return o
}

// RegisterObject records the allocation of oid. Its size fits in 32 bits:
// an object fits in a segment.
func (d *Directory) RegisterObject(info ObjInfo) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e := d.objects.entry(info.OID, d.nextOID, true)
	e.addr, e.size, e.bunch, e.alloc = info.AllocAddr, int32(info.Size), info.Bunch, slotOf(info.AllocNode)
	if meta := d.alloc.Lookup(info.AllocAddr); meta != nil {
		d.segObjs[meta.ID] = append(d.segObjs[meta.ID], info.OID)
	}
}

// Object returns the allocation record of o.
func (d *Directory) Object(o addr.OID) (ObjInfo, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e := d.objects.entry(o, d.nextOID, false)
	if e == nil || e.alloc == 0 {
		return ObjInfo{}, false
	}
	return ObjInfo{OID: o, AllocAddr: e.addr, Size: int(e.size), Bunch: e.bunch, AllocNode: e.alloc.node()}, true
}

// SegmentPopulation returns the objects allocated in the segment containing
// a — the unit that shares one token under segment-grain consistency.
func (d *Directory) SegmentPopulation(a addr.Addr) []addr.OID {
	d.mu.Lock()
	defer d.mu.Unlock()
	meta := d.alloc.Lookup(a)
	if meta == nil {
		return nil
	}
	return append([]addr.OID(nil), d.segObjs[meta.ID]...)
}

// SetOwnerHint records the probable current owner of o (updated at every
// ownership transfer): the manager-side hint Li's dynamic distributed
// manager keeps; absent, the allocation site stands in. It only seeds
// ownerPtr chains when a node has no local routing state; the chains
// themselves stay authoritative, so a stale hint — any past owner — is
// still a sound place to start one.
func (d *Directory) SetOwnerHint(o addr.OID, n addr.NodeID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.objects.entry(o, d.nextOID, true).hint = slotOf(n)
}

// Locate returns what a node needs to start tracking o: its bunch and its
// probable owner — the last recorded transfer target, falling back to the
// allocation site. An unknown object is (NoBunch, NoNode).
func (d *Directory) Locate(o addr.OID) (addr.BunchID, addr.NodeID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	b, hint := addr.NoBunch, addr.NoNode
	e := d.objects.entry(o, d.nextOID, false)
	if e == nil {
		return b, hint
	}
	if e.alloc != 0 {
		b, hint = e.bunch, e.alloc.node()
	}
	if e.hint != 0 {
		hint = e.hint.node()
	}
	return b, hint
}
