// Package mem implements the memory substrate of the BMX single shared
// address space: uniformly sized segments with cluster-wide non-overlapping
// addresses (handed out by an Allocator, the BMX-server role of §8), bunches
// as logical groups of segments, per-node heaps of mapped segment replicas,
// and the object representation — a header carrying the object's size, its
// stable OID and the forwarding pointer written by a copying collection,
// followed by the data words, described by object-map and reference-map bit
// arrays exactly as in §8 of the paper.
package mem

import (
	"fmt"
	"sync"

	"bmx/internal/addr"
)

// HeaderWords is the size of an object header in words. The paper gives each
// object "a header that precedes the object's data, which includes system
// information such as the object's size" and has the collector write a
// forwarding pointer into the header of a copied object (§4.2). The layout:
//
//	word 0: data size in words (low 32 bits) | flags (high bits)
//	word 1: stable OID
//	word 2: forwarding pointer (non-nil once the object has been copied)
const HeaderWords = 3

const flagForwarded = uint64(1) << 63

// SegBase is the base of the segment-allocated region of the 64-bit address
// space. It is non-zero so that no valid object address is ever the nil
// pointer or a small integer.
const SegBase addr.Addr = 0x0000_1000_0000_0000

// SegmentMeta is the cluster-wide descriptor of a segment: its identity, its
// fixed address range and its owning bunch. Metas are produced by the
// Allocator and shared (the directory of the single address space); the
// actual memory contents are per-node replicas (Segment).
type SegmentMeta struct {
	ID    addr.SegID
	Base  addr.Addr
	Bunch addr.BunchID
	Words int
	// Gen counts tenancies of this address range: recycling bumps it, so
	// durable state stamped with an older generation — a backing file
	// written before the range was reused — is recognizably stale even
	// when both tenancies belong to the same bunch.
	Gen uint32
}

// Limit returns the first address past the segment.
func (m *SegmentMeta) Limit() addr.Addr { return m.Base.AddWords(m.Words) }

// Contains reports whether a falls inside the segment's range.
func (m *SegmentMeta) Contains(a addr.Addr) bool { return a >= m.Base && a < m.Limit() }

// Allocator hands out segments with non-overlapping addresses, the service
// the paper assigns to the BMX-server ("provides basic services, such as
// allocation of non-overlapping segments", §8). Segment size is constant
// (§2.1), so the segment holding an address is found arithmetically.
// Segments freed by the §4.5 reuse protocol return to a free list and their
// address ranges are recycled — "even in a persistent 64-bit address space,
// there is a need for memory reorganization and address recycling" (§1).
type Allocator struct {
	mu       sync.Mutex
	segWords int
	metas    []*SegmentMeta
	free     []addr.SegID
	recycled int
	// resolver, when set, makes this allocator a sparse mirror of a remote
	// authority: a Meta/Lookup miss invokes it (with no allocator lock
	// held — it may block on the network) and adopts whatever descriptor
	// it returns. missed caches resolver misses so unallocated address
	// ranges don't trigger a fetch per probe; it is cleared whenever a new
	// descriptor is adopted, since any adoption may make a miss stale.
	resolver func(addr.SegID) *SegmentMeta
	missed   map[addr.SegID]bool
}

// NewAllocator creates an allocator of segWords-sized segments.
func NewAllocator(segWords int) *Allocator {
	if segWords <= HeaderWords+1 {
		panic(fmt.Sprintf("mem: segment of %d words cannot hold any object", segWords))
	}
	return &Allocator{segWords: segWords}
}

// SegWords returns the constant segment size in words.
func (a *Allocator) SegWords() int { return a.segWords }

// NewSegment allocates a segment for bunch b, recycling a freed address
// range when one is available.
func (a *Allocator) NewSegment(b addr.BunchID) *SegmentMeta {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n := len(a.free); n > 0 {
		id := a.free[n-1]
		a.free = a.free[:n-1]
		m := a.metas[id]
		m.Bunch = b
		m.Gen++
		a.recycled++
		return m
	}
	id := addr.SegID(len(a.metas))
	m := &SegmentMeta{
		ID:    id,
		Base:  SegBase.AddWords(int(id) * a.segWords),
		Bunch: b,
		Words: a.segWords,
	}
	a.metas = append(a.metas, m)
	return m
}

// Free returns a segment's address range to the allocator for recycling.
// The caller guarantees no node maps it and no live object resides in it
// (the §4.5 protocol's postcondition).
func (a *Allocator) Free(id addr.SegID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if int(id) >= len(a.metas) || a.metas[id] == nil {
		return
	}
	a.metas[id].Bunch = addr.NoBunch
	a.free = append(a.free, id)
}

// Recycled reports how many segment allocations reused a freed range.
func (a *Allocator) Recycled() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.recycled
}

// Meta returns the descriptor of segment id, or nil if never allocated.
// On a mirror (SetResolver), a miss consults the remote authority once and
// adopts the result.
func (a *Allocator) Meta(id addr.SegID) *SegmentMeta {
	a.mu.Lock()
	if int(id) < len(a.metas) && a.metas[id] != nil {
		m := a.metas[id]
		a.mu.Unlock()
		return m
	}
	r := a.resolver
	if r == nil || a.missed[id] {
		a.mu.Unlock()
		return nil
	}
	a.mu.Unlock()
	m := r(id) // network fetch: no lock held
	a.mu.Lock()
	defer a.mu.Unlock()
	if m == nil {
		a.missed[id] = true
		if int(id) < len(a.metas) {
			return a.metas[id] // a racing adopt may have filled it
		}
		return nil
	}
	a.adoptLocked(*m)
	return a.metas[id]
}

// SetResolver turns this allocator into a sparse mirror: descriptors it does
// not hold are fetched through f on demand and adopted. Install before use;
// f runs without the allocator lock and may block on the network.
func (a *Allocator) SetResolver(f func(addr.SegID) *SegmentMeta) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.resolver = f
	a.missed = make(map[addr.SegID]bool)
}

// Adopt installs (or refreshes) a descriptor obtained from the remote
// authority at its segment index, growing the table sparsely: slots for
// segments this mirror never heard of stay nil. The descriptor is copied,
// so a wire-decoded value may be passed directly.
func (a *Allocator) Adopt(m SegmentMeta) *SegmentMeta {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.adoptLocked(m)
}

func (a *Allocator) adoptLocked(m SegmentMeta) *SegmentMeta {
	for int(m.ID) >= len(a.metas) {
		a.metas = append(a.metas, nil)
	}
	if cur := a.metas[m.ID]; cur != nil {
		// Refresh in place so every holder of the pointer sees the update
		// (recycling bumps Gen and rebinds Bunch at the authority).
		*cur = m
	} else {
		cp := m
		a.metas[m.ID] = &cp
	}
	if a.missed != nil {
		// Any adoption may invalidate cached misses (the authority has
		// allocated since); drop them all — misses are cheap to re-fetch.
		for id := range a.missed {
			delete(a.missed, id)
		}
	}
	return a.metas[m.ID]
}

// Lookup returns the descriptor of the segment containing address x, or nil
// if x is outside every allocated segment.
func (a *Allocator) Lookup(x addr.Addr) *SegmentMeta {
	if x < SegBase {
		return nil
	}
	idx := int(uint64(x-SegBase) / uint64(a.segWords*addr.WordBytes))
	return a.Meta(addr.SegID(idx))
}

// BunchSegments returns the descriptors of every segment belonging to bunch
// b, in allocation order.
func (a *Allocator) BunchSegments(b addr.BunchID) []*SegmentMeta {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []*SegmentMeta
	for _, m := range a.metas {
		if m != nil && m.Bunch == b {
			out = append(out, m)
		}
	}
	return out
}

// Segment is one node's replica of a segment: the word contents plus the
// object-map and reference-map bit arrays of §8 (one bit per word: a set
// object-map bit marks an object header; a set reference-map bit marks a
// word holding a pointer). Like the Heap that maps it, a replica is
// node-local state guarded by its node's lock, not by one of its own.
type Segment struct {
	Meta   *SegmentMeta
	words  []uint64
	objMap *Bitmap
	refMap *Bitmap
	// allocOff is the bump-allocation offset, meaningful only on the node
	// that allocates into this segment.
	allocOff int
}

func newSegment(m *SegmentMeta) *Segment {
	return &Segment{
		Meta:   m,
		words:  make([]uint64, m.Words),
		objMap: NewBitmap(m.Words),
		refMap: NewBitmap(m.Words),
	}
}

// Contains reports whether a falls inside this segment.
func (s *Segment) Contains(a addr.Addr) bool { return s.Meta.Contains(a) }

// FreeWords returns the number of words still available for allocation.
func (s *Segment) FreeWords() int {
	return s.Meta.Words - s.allocOff
}

// UsedWords returns the number of words consumed by allocation.
func (s *Segment) UsedWords() int {
	return s.allocOff
}

// Objects returns the header addresses of every object materialized in this
// replica, in address order.
func (s *Segment) Objects() []addr.Addr {
	var out []addr.Addr
	s.objMap.ForEach(func(i int) { out = append(out, s.Meta.Base.AddWords(i)) })
	return out
}

// RefBit reports whether word offset off is marked as a pointer.
func (s *Segment) RefBit(off int) bool {
	return s.refMap.Get(off)
}

// SetRefBit marks or clears word offset off in the reference map (used by
// recovery when replaying logged mutations).
func (s *Segment) SetRefBit(off int, v bool) {
	if v {
		s.refMap.Set(off)
	} else {
		s.refMap.Clear(off)
	}
}

// RefWords returns the word offsets marked as pointers in this replica's
// reference map, in increasing order.
func (s *Segment) RefWords() []int {
	var out []int
	s.refMap.ForEach(func(i int) { out = append(out, i) })
	return out
}

// SegImage is a complete serializable image of one segment replica: the
// words, both descriptive bit arrays of §8 (object-map and reference-map)
// and the allocation offset. It is the unit shipped when a node maps an
// existing bunch and the unit persisted to the segment's backing file.
type SegImage struct {
	ID addr.SegID
	// Bunch records which bunch the segment served when the image was
	// taken: segment IDs are recycled (§1's address recycling), so a
	// stale backing file must never be replayed into the range's next
	// tenant.
	Bunch addr.BunchID
	// Gen is the range's tenancy generation at capture time; recovery
	// rejects images whose generation predates the segment's current one.
	Gen      uint32
	AllocOff int
	Words    []uint64
	ObjBits  []uint64
	RefBits  []uint64
}

// WireBytes is the image's simulated transfer size.
func (img SegImage) WireBytes() int {
	return 16 + 8*(len(img.Words)+len(img.ObjBits)+len(img.RefBits))
}

// Export captures the replica's current image.
func (s *Segment) Export() SegImage {
	words := make([]uint64, len(s.words))
	copy(words, s.words)
	return SegImage{
		ID:       s.Meta.ID,
		Bunch:    s.Meta.Bunch,
		Gen:      s.Meta.Gen,
		AllocOff: s.allocOff,
		Words:    words,
		ObjBits:  append([]uint64(nil), s.objMap.bits...),
		RefBits:  append([]uint64(nil), s.refMap.bits...),
	}
}

// Import overwrites the replica from an image of the same segment.
func (s *Segment) Import(img SegImage) {
	if img.ID != s.Meta.ID {
		panic(fmt.Sprintf("mem: importing image of %v into %v", img.ID, s.Meta.ID))
	}
	if len(img.Words) != len(s.words) {
		panic(fmt.Sprintf("mem: restore size %d into segment of %d words", len(img.Words), len(s.words)))
	}
	copy(s.words, img.Words)
	copy(s.objMap.bits, img.ObjBits)
	copy(s.refMap.bits, img.RefBits)
	s.allocOff = img.AllocOff
}

// CopyContentsFrom overwrites this replica's words and maps with those of
// src, which must describe the same segment. It is used when a node maps an
// existing bunch and receives the current replica image.
func (s *Segment) CopyContentsFrom(src *Segment) {
	if src.Meta.ID != s.Meta.ID {
		panic(fmt.Sprintf("mem: copying contents across segments %v -> %v", src.Meta.ID, s.Meta.ID))
	}
	s.Import(src.Export())
}

// Snapshot returns a copy of the raw words (used by the persistence layer).
func (s *Segment) Snapshot() []uint64 {
	out := make([]uint64, len(s.words))
	copy(out, s.words)
	return out
}

// Restore overwrites the raw words from a snapshot and rebuilds nothing:
// object and reference maps are restored separately by the recovery layer.
func (s *Segment) Restore(words []uint64) {
	if len(words) != len(s.words) {
		panic(fmt.Sprintf("mem: restore size %d into segment of %d words", len(words), len(s.words)))
	}
	copy(s.words, words)
}
