package mem

import (
	"testing"
	"testing/quick"

	"bmx/internal/addr"
)

const testSegWords = 64

func newTestHeap() (*Allocator, *Heap) {
	a := NewAllocator(testSegWords)
	return a, NewHeap(a)
}

func TestAllocatorNonOverlapping(t *testing.T) {
	a := NewAllocator(testSegWords)
	m1 := a.NewSegment(1)
	m2 := a.NewSegment(2)
	if m1.Limit() != m2.Base {
		t.Fatalf("segments not contiguous: %v limit %v, next base %v", m1.ID, m1.Limit(), m2.Base)
	}
	if m1.Contains(m2.Base) || m2.Contains(m1.Base) {
		t.Fatal("segments overlap")
	}
}

func TestAllocatorLookup(t *testing.T) {
	a := NewAllocator(testSegWords)
	m1 := a.NewSegment(1)
	m2 := a.NewSegment(1)
	if got := a.Lookup(m1.Base.AddWords(5)); got != m1 {
		t.Fatalf("Lookup in m1 returned %v", got)
	}
	if got := a.Lookup(m2.Limit() - 8); got != m2 {
		t.Fatalf("Lookup at end of m2 returned %v", got)
	}
	if a.Lookup(addr.Addr(4)) != nil {
		t.Fatal("Lookup below SegBase should be nil")
	}
	if a.Lookup(m2.Limit()) != nil {
		t.Fatal("Lookup past last segment should be nil")
	}
}

func TestAllocatorBunchSegments(t *testing.T) {
	a := NewAllocator(testSegWords)
	a.NewSegment(1)
	a.NewSegment(2)
	a.NewSegment(1)
	segs := a.BunchSegments(1)
	if len(segs) != 2 {
		t.Fatalf("bunch 1 has %d segments, want 2", len(segs))
	}
	if segs[0].ID != 0 || segs[1].ID != 2 {
		t.Fatalf("wrong segments: %v %v", segs[0].ID, segs[1].ID)
	}
}

func TestAllocatorTinySegmentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewAllocator(HeaderWords)
}

func TestAllocObject(t *testing.T) {
	a, h := newTestHeap()
	s := h.MapSegment(a.NewSegment(1))
	oa, ok := h.Alloc(s, 7, 4)
	if !ok {
		t.Fatal("alloc failed")
	}
	if h.ObjSize(oa) != 4 {
		t.Fatalf("size = %d", h.ObjSize(oa))
	}
	if h.ObjOID(oa) != 7 {
		t.Fatalf("oid = %v", h.ObjOID(oa))
	}
	if h.Forwarded(oa) {
		t.Fatal("fresh object must not be forwarded")
	}
	if !h.IsObjectAt(oa) {
		t.Fatal("object-map bit missing")
	}
	if c, ok := h.Canonical(7); !ok || c != oa {
		t.Fatalf("canonical = %v, %v", c, ok)
	}
	if s.UsedWords() != HeaderWords+4 {
		t.Fatalf("used = %d", s.UsedWords())
	}
}

func TestAllocUntilFull(t *testing.T) {
	a, h := newTestHeap()
	s := h.MapSegment(a.NewSegment(1))
	n := 0
	for {
		if _, ok := h.Alloc(s, addr.OID(n+1), 2); !ok {
			break
		}
		n++
	}
	want := testSegWords / (HeaderWords + 2)
	if n != want {
		t.Fatalf("allocated %d objects, want %d", n, want)
	}
	if len(s.Objects()) != n {
		t.Fatalf("object-map lists %d objects", len(s.Objects()))
	}
}

func TestFieldsAndRefMap(t *testing.T) {
	a, h := newTestHeap()
	s := h.MapSegment(a.NewSegment(1))
	oa, _ := h.Alloc(s, 1, 3)
	h.SetField(oa, 0, 42, false)
	h.SetField(oa, 1, uint64(oa), true)
	if h.GetField(oa, 0) != 42 {
		t.Fatalf("field 0 = %d", h.GetField(oa, 0))
	}
	if h.IsRefField(oa, 0) {
		t.Fatal("field 0 must not be a ref")
	}
	if !h.IsRefField(oa, 1) {
		t.Fatal("field 1 must be a ref")
	}
	// Overwriting a ref with a scalar must clear the reference-map bit.
	h.SetField(oa, 1, 5, false)
	if h.IsRefField(oa, 1) {
		t.Fatal("ref bit not cleared")
	}
	refs := map[int]addr.Addr{}
	h.ForEachRef(oa, func(i int, v addr.Addr) { refs[i] = v })
	if len(refs) != 0 {
		t.Fatalf("refs = %v", refs)
	}
}

func TestFieldBoundsPanics(t *testing.T) {
	a, h := newTestHeap()
	s := h.MapSegment(a.NewSegment(1))
	oa, _ := h.Alloc(s, 1, 2)
	for _, i := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for field %d", i)
				}
			}()
			h.GetField(oa, i)
		}()
	}
}

func TestForwarding(t *testing.T) {
	a, h := newTestHeap()
	s := h.MapSegment(a.NewSegment(1))
	src, _ := h.Alloc(s, 1, 2)
	dst, _ := h.Alloc(s, 2, 2)
	h.SetFwd(src, dst)
	if !h.Forwarded(src) {
		t.Fatal("not forwarded")
	}
	if h.Fwd(src) != dst {
		t.Fatalf("fwd = %v, want %v", h.Fwd(src), dst)
	}
	if h.Resolve(src) != dst {
		t.Fatalf("resolve = %v", h.Resolve(src))
	}
	// Size and OID still readable from a forwarded header.
	if h.ObjSize(src) != 2 || h.ObjOID(src) != 1 {
		t.Fatal("forwarded header corrupted size/oid")
	}
	h.ClearFwd(src)
	if h.Forwarded(src) || h.Resolve(src) != src {
		t.Fatal("ClearFwd failed")
	}
}

func TestResolveChain(t *testing.T) {
	a, h := newTestHeap()
	s := h.MapSegment(a.NewSegment(1))
	a1, _ := h.Alloc(s, 1, 1)
	a2, _ := h.Alloc(s, 1, 1)
	a3, _ := h.Alloc(s, 1, 1)
	h.SetFwd(a1, a2)
	h.SetFwd(a2, a3)
	if h.Resolve(a1) != a3 {
		t.Fatalf("chain resolve = %v, want %v", h.Resolve(a1), a3)
	}
}

func TestResolveUnmappedTargetStops(t *testing.T) {
	a, h := newTestHeap()
	s := h.MapSegment(a.NewSegment(1))
	unmapped := a.NewSegment(2) // never mapped in h
	a1, _ := h.Alloc(s, 1, 1)
	h.SetFwd(a1, unmapped.Base)
	if got := h.Resolve(a1); got != unmapped.Base {
		t.Fatalf("resolve = %v, want %v", got, unmapped.Base)
	}
	if h.Resolve(addr.NilAddr) != addr.NilAddr {
		t.Fatal("resolve(nil) != nil")
	}
}

func TestMaterialize(t *testing.T) {
	a, h := newTestHeap()
	s := h.MapSegment(a.NewSegment(1))
	target := s.Meta.Base.AddWords(10)
	h.Materialize(target, 9, 5)
	if !h.IsObjectAt(target) || h.ObjOID(target) != 9 || h.ObjSize(target) != 5 {
		t.Fatal("materialized header wrong")
	}
	// Bump pointer must have advanced past the materialized object so a
	// local allocation cannot overlap it.
	oa, ok := h.Alloc(s, 10, 1)
	if !ok {
		t.Fatal("alloc after materialize failed")
	}
	if oa < target.AddWords(HeaderWords+5) {
		t.Fatalf("allocation at %v overlaps materialized object ending at %v",
			oa, target.AddWords(HeaderWords+5))
	}
}

func TestCopyObject(t *testing.T) {
	a, h := newTestHeap()
	s := h.MapSegment(a.NewSegment(1))
	src, _ := h.Alloc(s, 1, 3)
	h.SetField(src, 0, 11, false)
	h.SetField(src, 1, 22, true)
	h.SetField(src, 2, 33, false)
	dst := s.Meta.Base.AddWords(30)
	h.CopyObject(src, dst)
	if h.ObjOID(dst) != 1 || h.ObjSize(dst) != 3 {
		t.Fatal("copy header wrong")
	}
	if h.GetField(dst, 0) != 11 || h.GetField(dst, 1) != 22 || h.GetField(dst, 2) != 33 {
		t.Fatal("copy data wrong")
	}
	if h.IsRefField(dst, 0) || !h.IsRefField(dst, 1) {
		t.Fatal("copy ref map wrong")
	}
	if h.Forwarded(dst) {
		t.Fatal("copy must not inherit forwarded flag")
	}
}

func TestMapSegmentIdempotent(t *testing.T) {
	a, h := newTestHeap()
	m := a.NewSegment(1)
	s1 := h.MapSegment(m)
	oa, _ := h.Alloc(s1, 1, 1)
	s2 := h.MapSegment(m)
	if s1 != s2 {
		t.Fatal("remap returned a different replica")
	}
	if !h.IsObjectAt(oa) {
		t.Fatal("remap lost contents")
	}
}

func TestUnmapSegment(t *testing.T) {
	a, h := newTestHeap()
	m := a.NewSegment(1)
	s := h.MapSegment(m)
	oa, _ := h.Alloc(s, 1, 1)
	h.UnmapSegment(m.ID)
	if h.Mapped(oa) {
		t.Fatal("still mapped")
	}
	if _, ok := h.Canonical(1); ok {
		t.Fatal("canonical address survived unmap")
	}
	h.UnmapSegment(m.ID) // idempotent
}

// TestRewriteWalks pins the segment-direct walks: every pointer word and
// every forwarding pointer of a replica is offered, scalars and plain
// headers are not, and only the words the callback changes are written.
func TestRewriteWalks(t *testing.T) {
	a, h := newTestHeap()
	s := h.MapSegment(a.NewSegment(1))
	x, _ := h.Alloc(s, 1, 3)
	y, _ := h.Alloc(s, 2, 1)
	z, _ := h.Alloc(s, 3, 1)
	h.SetField(x, 0, 7, false)
	h.SetField(x, 1, uint64(y), true)
	h.SetField(x, 2, uint64(z), true)
	h.SetFwd(y, z)

	var fields []int
	h.ForEachRef(x, func(i int, v addr.Addr) { fields = append(fields, i) })
	if len(fields) != 2 || fields[0] != 1 || fields[1] != 2 {
		t.Fatalf("ForEachRef visited fields %v, want [1 2] in order", fields)
	}

	var seen []addr.Addr
	moveY := func(v addr.Addr) (addr.Addr, bool) {
		seen = append(seen, v)
		return x, v == y
	}
	if n := s.RewriteRefs(moveY); n != 1 || len(seen) != 2 {
		t.Fatalf("RewriteRefs rewrote %d of %v, want 1 of 2 pointer words", n, seen)
	}
	if h.GetField(x, 1) != uint64(x) || h.GetField(x, 2) != uint64(z) || h.GetField(x, 0) != 7 {
		t.Fatalf("fields after RewriteRefs = %d %d %d", h.GetField(x, 0), h.GetField(x, 1), h.GetField(x, 2))
	}
	seen = nil
	moveZ := func(v addr.Addr) (addr.Addr, bool) {
		seen = append(seen, v)
		return x, v == z
	}
	if n := s.RewriteFwds(moveZ); n != 1 || len(seen) != 1 || h.Fwd(y) != x {
		t.Fatalf("RewriteFwds rewrote %d of %v, fwd(y) = %v; want y's forwarding pointer only", n, seen, h.Fwd(y))
	}

	h.DiscardSegment(s.Meta.ID)
	if h.Mapped(x) || len(h.Segments()) != 0 {
		t.Fatal("segment still mapped after DiscardSegment")
	}
	if _, ok := h.Canonical(1); !ok {
		t.Fatal("DiscardSegment touched the canonical map")
	}
}

func TestCopyContentsFrom(t *testing.T) {
	a := NewAllocator(testSegWords)
	h1, h2 := NewHeap(a), NewHeap(a)
	m := a.NewSegment(1)
	s1 := h1.MapSegment(m)
	oa, _ := h1.Alloc(s1, 1, 2)
	h1.SetField(oa, 0, 99, false)
	h1.SetField(oa, 1, 77, true)

	s2 := h2.MapSegment(m)
	s2.CopyContentsFrom(s1)
	if !h2.IsObjectAt(oa) || h2.GetField(oa, 0) != 99 || !h2.IsRefField(oa, 1) {
		t.Fatal("replica copy incomplete")
	}
	if s2.UsedWords() != s1.UsedWords() {
		t.Fatal("bump pointer not copied")
	}
}

func TestCopyContentsAcrossSegmentsPanics(t *testing.T) {
	a := NewAllocator(testSegWords)
	h := NewHeap(a)
	s1 := h.MapSegment(a.NewSegment(1))
	s2 := h.MapSegment(a.NewSegment(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s1.CopyContentsFrom(s2)
}

func TestOIDAt(t *testing.T) {
	a, h := newTestHeap()
	s := h.MapSegment(a.NewSegment(1))
	a1, _ := h.Alloc(s, 5, 1)
	a2, _ := h.Alloc(s, 5, 1)
	h.SetFwd(a1, a2)
	if h.OIDAt(a1) != 5 {
		t.Fatalf("OIDAt through fwd = %v", h.OIDAt(a1))
	}
	if h.OIDAt(s.Meta.Base.AddWords(50)) != addr.NilOID {
		t.Fatal("OIDAt on empty space should be nil")
	}
}

func TestSnapshotRestore(t *testing.T) {
	a, h := newTestHeap()
	s := h.MapSegment(a.NewSegment(1))
	oa, _ := h.Alloc(s, 1, 1)
	h.SetField(oa, 0, 123, false)
	snap := s.Snapshot()
	h.SetField(oa, 0, 456, false)
	s.Restore(snap)
	if h.GetField(oa, 0) != 123 {
		t.Fatal("restore failed")
	}
}

func TestKnownObjectsAndDrop(t *testing.T) {
	a, h := newTestHeap()
	s := h.MapSegment(a.NewSegment(1))
	h.Alloc(s, 1, 1)
	h.Alloc(s, 2, 1)
	if len(h.KnownObjects()) != 2 {
		t.Fatalf("known = %v", h.KnownObjects())
	}
	h.DropObject(1)
	if len(h.KnownObjects()) != 1 {
		t.Fatal("drop failed")
	}
}

func TestObjectBytes(t *testing.T) {
	a, h := newTestHeap()
	s := h.MapSegment(a.NewSegment(1))
	oa, _ := h.Alloc(s, 1, 4)
	if got := h.ObjectBytes(oa); got != (HeaderWords+4)*addr.WordBytes {
		t.Fatalf("ObjectBytes = %d", got)
	}
}

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d", b.Len())
	}
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if !b.Get(0) || !b.Get(64) || !b.Get(129) || b.Get(1) {
		t.Fatal("Get wrong")
	}
	if b.Count() != 3 {
		t.Fatalf("Count = %d", b.Count())
	}
	var got []int
	b.ForEach(func(i int) { got = append(got, i) })
	if len(got) != 3 || got[0] != 0 || got[1] != 64 || got[2] != 129 {
		t.Fatalf("ForEach = %v", got)
	}
	b.Clear(64)
	if b.Get(64) || b.Count() != 2 {
		t.Fatal("Clear wrong")
	}
	b.Reset()
	if b.Count() != 0 {
		t.Fatal("Reset wrong")
	}
}

func TestBitmapProperty(t *testing.T) {
	// Setting an arbitrary set of bits and iterating yields exactly that
	// set in increasing order.
	f := func(idxs []uint16) bool {
		b := NewBitmap(1 << 16)
		want := map[int]bool{}
		for _, i := range idxs {
			b.Set(int(i))
			want[int(i)] = true
		}
		var prev = -1
		n := 0
		ok := true
		b.ForEach(func(i int) {
			if !want[i] || i <= prev {
				ok = false
			}
			prev = i
			n++
		})
		return ok && n == len(want) && b.Count() == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocSizeProperty(t *testing.T) {
	// Any sequence of small allocations yields non-overlapping objects
	// fully inside the segment.
	f := func(sizes []uint8) bool {
		a := NewAllocator(4096)
		h := NewHeap(a)
		s := h.MapSegment(a.NewSegment(1))
		var prevEnd addr.Addr = s.Meta.Base
		for i, sz := range sizes {
			oa, ok := h.Alloc(s, addr.OID(i+1), int(sz%32))
			if !ok {
				return true // segment full is a legal outcome
			}
			if oa < prevEnd {
				return false
			}
			prevEnd = oa.AddWords(HeaderWords + int(sz%32))
			if prevEnd > s.Meta.Limit() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
