package mem

import (
	"fmt"

	"bmx/internal/addr"
)

// Heap is one node's view of the shared address space: the segment replicas
// this node has mapped, their words and their object and reference maps. It
// keeps nothing per object: an object's node-local canonical address lives
// in the node's object record (dsm.Record), beside its protocol state.
//
// A Heap and its Segments carry no lock: they are node-local state, touched
// only under the owning node's lock (cluster.Node) or while the cluster is
// quiescent. Only the Allocator, shared by every node, locks internally.
type Heap struct {
	alloc *Allocator
	// segs is indexed by SegID, nil where this node maps nothing. Segment
	// IDs are dense (the allocator numbers them in order and recycles freed
	// ones), so the table stays as long as the cluster's peak segment count.
	segs []*Segment
}

// NewHeap creates an empty heap drawing segment metadata from alloc.
func NewHeap(alloc *Allocator) *Heap { return &Heap{alloc: alloc} }

// Allocator returns the cluster allocator this heap draws from.
func (h *Heap) Allocator() *Allocator { return h.alloc }

// MapSegment creates a zeroed local replica of the segment described by m.
// Mapping an already-mapped segment returns the existing replica.
func (h *Heap) MapSegment(m *SegmentMeta) *Segment {
	if s := h.Seg(m.ID); s != nil {
		return s
	}
	if n := int(m.ID) + 1; n > len(h.segs) {
		h.segs = append(h.segs, make([]*Segment, n-len(h.segs))...)
	}
	s := newSegment(m)
	h.segs[m.ID] = s
	return s
}

// DiscardSegment drops the local replica of segment id. The caller has
// already forgotten every canonical address that pointed into it.
func (h *Heap) DiscardSegment(id addr.SegID) {
	if int(id) < len(h.segs) {
		h.segs[id] = nil
	}
}

// Seg returns the local replica of segment id, or nil if not mapped.
func (h *Heap) Seg(id addr.SegID) *Segment {
	if int(id) < len(h.segs) {
		return h.segs[id]
	}
	return nil
}

// SegAt returns the local replica containing address a, or nil. Segment
// size is constant, so the index is arithmetic (as in Allocator.Lookup) and
// the answer comes from the node-local map without touching the shared
// allocator.
func (h *Heap) SegAt(a addr.Addr) *Segment {
	id, ok := segIndex(a, h.alloc.SegWords())
	if !ok {
		return nil
	}
	return h.Seg(id)
}

// Mapped reports whether the segment containing a is mapped locally.
func (h *Heap) Mapped(a addr.Addr) bool { return h.SegAt(a) != nil }

// ForEachSegment calls f with every locally mapped replica, in segment-ID
// order. f must not map or unmap segments.
func (h *Heap) ForEachSegment(f func(s *Segment)) {
	for _, s := range h.segs {
		if s != nil {
			f(s)
		}
	}
}

func (h *Heap) mustSeg(a addr.Addr) *Segment {
	s := h.SegAt(a)
	if s == nil {
		panic(fmt.Sprintf("mem: access to unmapped address %v", a))
	}
	return s
}

// Word reads the word at address a. The address must be mapped.
func (h *Heap) Word(a addr.Addr) uint64 {
	s := h.mustSeg(a)
	return s.words[a.WordOff(s.Meta.Base)]
}

// ReadRange reads the n words at address a, and their reference-map bits as
// mask words laid out as Bitmap says, into the storage of words and mask,
// and returns both. The range must lie in one mapped segment.
func (h *Heap) ReadRange(a addr.Addr, n int, words, mask []uint64) ([]uint64, []uint64) {
	s := h.mustSeg(a)
	off := a.WordOff(s.Meta.Base)
	return append(words[:0], s.words[off:off+n]...), s.refMap.extract(mask[:0], off, n)
}

// WriteRange writes words at address a and their reference-map bits from
// mask, laid out as ReadRange returns them. The range must lie in one
// mapped segment.
func (h *Heap) WriteRange(a addr.Addr, words, mask []uint64) {
	s := h.mustSeg(a)
	off := a.WordOff(s.Meta.Base)
	copy(s.words[off:off+len(words)], words)
	s.refMap.store(off, len(words), mask)
	s.markFwds(off, off+len(words)) // a range may cover headers (recovery)
}

// ---- Object layout -------------------------------------------------------

// Alloc bump-allocates an object of dataWords words with identity oid inside
// segment s, writing its header and object-map bit. It returns the header
// address, or false if the segment lacks space.
func (h *Heap) Alloc(s *Segment, oid addr.OID, dataWords int) (addr.Addr, bool) {
	if dataWords < 0 {
		panic("mem: negative object size")
	}
	need := HeaderWords + dataWords
	if s.Meta.Words-s.allocOff < need {
		return addr.NilAddr, false
	}
	a := s.Meta.Base.AddWords(s.allocOff)
	s.allocOff += need
	writeHeader(s, a, oid, dataWords)
	return a, true
}

// Materialize writes an object header (size and OID, no data) at an explicit
// address, used when a node learns an object's location from a manifest or a
// location update. The containing segment must be mapped. Materialize does
// not change the canonical address; callers decide that policy.
func (h *Heap) Materialize(a addr.Addr, oid addr.OID, dataWords int) {
	materialize(h.mustSeg(a), a, oid, dataWords)
}

func materialize(s *Segment, a addr.Addr, oid addr.OID, dataWords int) {
	off := a.WordOff(s.Meta.Base)
	if off+HeaderWords+dataWords > s.Meta.Words {
		panic(fmt.Sprintf("mem: materialize %v (%d words) overflows %v", oid, dataWords, s.Meta.ID))
	}
	if off+HeaderWords+dataWords > s.allocOff {
		// Keep the bump pointer past remotely allocated objects so a
		// later local allocation cannot overlap them.
		s.allocOff = off + HeaderWords + dataWords
	}
	writeHeader(s, a, oid, dataWords)
}

func writeHeader(s *Segment, a addr.Addr, oid addr.OID, dataWords int) {
	off := a.WordOff(s.Meta.Base)
	s.fwdMap.Clear(off)
	s.words[off] = uint64(uint32(dataWords))
	s.words[off+1] = uint64(oid)
	s.words[off+2] = 0
	s.objMap.Set(off)
	s.refMap.store(off, HeaderWords, []uint64{0}) // a header word is never a pointer
}

// IsObjectAt reports whether a mapped object header exists at address a.
func (h *Heap) IsObjectAt(a addr.Addr) bool {
	s := h.SegAt(a)
	if s == nil {
		return false
	}
	return s.objMap.Get(a.WordOff(s.Meta.Base))
}

// ObjSize returns the data size in words of the object headed at a.
func (h *Heap) ObjSize(a addr.Addr) int { return int(uint32(h.Word(a))) }

// ObjOID returns the stable identity of the object headed at a.
func (h *Heap) ObjOID(a addr.Addr) addr.OID { return addr.OID(h.Word(a.AddWords(1))) }

// Forwarded reports whether the object headed at a has been copied, i.e.
// its header holds a forwarding pointer (§4.2).
func (h *Heap) Forwarded(a addr.Addr) bool { return h.Word(a)&flagForwarded != 0 }

// SetFwd installs a forwarding pointer in the header of the object at a.
// This modification is strictly local and never requires a token (§4.2).
func (h *Heap) SetFwd(a, to addr.Addr) {
	s := h.mustSeg(a)
	off := a.WordOff(s.Meta.Base)
	if s.objMap.Get(off) {
		s.fwdMap.Set(off)
	}
	s.words[off+2] = uint64(to)
	s.words[off] |= flagForwarded
}

// ClearFwd removes the forwarding pointer (used when a from-space segment is
// reclaimed and the header deleted, §4.5).
func (h *Heap) ClearFwd(a addr.Addr) {
	s := h.mustSeg(a)
	off := a.WordOff(s.Meta.Base)
	s.fwdMap.Clear(off)
	s.words[off] &^= flagForwarded
	s.words[off+2] = 0
}

// Resolve follows forwarding pointers from a until it reaches an address
// whose object has not been copied, or whose forwarding target is not
// locally mapped. This is the mechanism behind the special pointer
// comparison operation of §4.2/§8.
func (h *Heap) Resolve(a addr.Addr) addr.Addr {
	for !a.IsNil() {
		s := h.SegAt(a)
		if s == nil {
			return a
		}
		off := a.WordOff(s.Meta.Base)
		if !s.objMap.Get(off) || s.words[off]&flagForwarded == 0 {
			return a
		}
		next := addr.Addr(s.words[off+2])
		if next == a {
			return a
		}
		a = next
	}
	return a
}

// DataAddr returns the address of data word i of the object headed at a.
func (h *Heap) DataAddr(a addr.Addr, i int) addr.Addr { return a.AddWords(HeaderWords + i) }

// GetField reads data word i of the object headed at a.
func (h *Heap) GetField(a addr.Addr, i int) uint64 {
	s := h.mustSeg(a)
	off := checkField(s, a, i)
	return s.words[off]
}

// SetField writes data word i of the object headed at a and records in the
// reference map whether the word now holds a pointer.
func (h *Heap) SetField(a addr.Addr, i int, v uint64, isRef bool) {
	s := h.mustSeg(a)
	off := checkField(s, a, i)
	s.words[off] = v
	if isRef {
		s.refMap.Set(off)
	} else {
		s.refMap.Clear(off)
	}
}

// IsRefField reports whether data word i of the object at a holds a pointer
// according to the reference map.
func (h *Heap) IsRefField(a addr.Addr, i int) bool {
	s := h.mustSeg(a)
	return s.refMap.Get(checkField(s, a, i))
}

// checkField validates the field index against the object header and
// returns the word offset of the field. The object's data words must lie in the same segment as its header (objects
// never straddle segments).
func checkField(s *Segment, a addr.Addr, i int) int {
	hdr := a.WordOff(s.Meta.Base)
	size := int(uint32(s.words[hdr]))
	if i < 0 || i >= size {
		panic(fmt.Sprintf("mem: field %d out of range for object %v (%d words) at %v",
			i, addr.OID(s.words[hdr+1]), size, a))
	}
	return hdr + HeaderWords + i
}

// ForEachRef calls f with the index and value of every pointer field of the
// object at a, nil ones included, in field order. Each field is read just
// before f sees it, so f may rewrite fields through SetField.
func (h *Heap) ForEachRef(a addr.Addr, f func(i int, v addr.Addr)) {
	s := h.mustSeg(a)
	hdr := a.WordOff(s.Meta.Base)
	data := hdr + HeaderWords
	s.refMap.forRange(data, data+int(uint32(s.words[hdr])), func(off int) {
		f(off-data, addr.Addr(s.words[off]))
	})
}

// CopyObject copies the object headed at src to dst: header (fresh, not
// forwarded), data words and reference-map bits. Both addresses must be
// mapped (possibly in the same segment), dst typically in to-space. It is
// the one primitive that moves an object inside a heap.
func (h *Heap) CopyObject(src, dst addr.Addr) {
	ss, ds := h.mustSeg(src), h.mustSeg(dst)
	hdr := src.WordOff(ss.Meta.Base)
	size := int(uint32(ss.words[hdr]))
	materialize(ds, dst, addr.OID(ss.words[hdr+1]), size)
	from, to := hdr+HeaderWords, dst.WordOff(ds.Meta.Base)+HeaderWords
	copy(ds.words[to:to+size], ss.words[from:from+size])
	var mask [4]uint64 // an object of up to 256 words moves its bits without allocating
	ds.refMap.store(to, size, ss.refMap.extract(mask[:0], from, size))
}

// OIDAt resolves the address a (following forwarding pointers) and returns
// the OID of the object headed there, or NilOID if no object is known at
// that address locally.
func (h *Heap) OIDAt(a addr.Addr) addr.OID {
	a = h.Resolve(a)
	if !h.IsObjectAt(a) {
		return addr.NilOID
	}
	return h.ObjOID(a)
}
