package mem

import (
	"math/bits"
	"slices"
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

	// A wide object's pointer fields straddle a mask word. ForEachRef
	// visits exactly them, in order, reading each value just before f
	// sees it: f may rewrite a later field, or its own, through SetField.
	h = NewHeap(NewAllocator(wideSegWords))
	w := newWide(h, h.MapSegment(h.Allocator().NewSegment(1)), 1)
	var got []int
	h.ForEachRef(w, func(i int, v addr.Addr) {
		got = append(got, i)
		want := addr.Addr(wideValue(i))
		switch i {
		case 63:
			want = 777
		case 60:
			h.SetField(w, 63, 777, true)
		case 64:
			h.SetField(w, 64, 5, false)
		}
		if v != want {
			t.Errorf("ForEachRef gave field %d value %d, want %d", i, v, want)
		}
	})
	if !slices.Equal(got, wideRefs) {
		t.Fatalf("ForEachRef visited fields %v, want %v", got, wideRefs)
	}
	if h.IsRefField(w, 64) || h.GetField(w, 64) != 5 || !h.IsRefField(w, 63) {
		t.Fatal("SetField inside ForEachRef did not stick")
	}
}

// wideSegWords fits three wide objects to a segment.
const wideSegWords = 256

// wideFields is the size of a wide object, whose reference bits span two
// mask words; wideRefs are its pointer fields, on both sides of the boundary.
const wideFields = 70

var wideRefs = []int{0, 60, 63, 64, 65, 69}

func wideValue(i int) uint64 { return uint64(1000 + i) }

// newWide allocates a wideFields-field object in s whose field i holds
// wideValue(i), a pointer exactly at the wideRefs fields.
func newWide(h *Heap, s *Segment, oid addr.OID) addr.Addr {
	a, ok := h.Alloc(s, oid, wideFields)
	if !ok {
		panic("wide object does not fit")
	}
	for i := 0; i < wideFields; i++ {
		h.SetField(a, i, wideValue(i), slices.Contains(wideRefs, i))
	}
	return a
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

// fwd returns the forwarding pointer the header at a holds in its third
// word.
func fwd(h *Heap, a addr.Addr) addr.Addr { return addr.Addr(h.Word(a.AddWords(2))) }

func TestForwarding(t *testing.T) {
	a, h := newTestHeap()
	s := h.MapSegment(a.NewSegment(1))
	src, _ := h.Alloc(s, 1, 2)
	dst, _ := h.Alloc(s, 2, 2)
	h.SetFwd(src, dst)
	if !h.Forwarded(src) {
		t.Fatal("not forwarded")
	}
	if fwd(h, src) != dst {
		t.Fatalf("fwd = %v, want %v", fwd(h, src), dst)
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
	a := NewAllocator(wideSegWords)
	h := NewHeap(a)
	s := h.MapSegment(a.NewSegment(1))
	other := h.MapSegment(a.NewSegment(1))
	src := newWide(h, s, 1)
	// Destinations whose data start differs from the source's mod 64:
	// later in the same segment, and early in another one.
	for _, dst := range []addr.Addr{s.Meta.Base.AddWords(100), other.Meta.Base.AddWords(7)} {
		ds := h.SegAt(dst)
		lo, hi := dst.WordOff(ds.Meta.Base), dst.WordOff(ds.Meta.Base)+HeaderWords+wideFields
		ds.refMap.Set(lo - 1) // neighbours, which the copy must leave alone
		ds.refMap.Set(hi)
		ds.refMap.Set(lo + HeaderWords + 1) // a stale bit under a scalar field
		h.CopyObject(src, dst)
		if h.ObjOID(dst) != 1 || h.ObjSize(dst) != wideFields || h.Forwarded(dst) {
			t.Fatalf("copy at %v: header wrong", dst)
		}
		for i := 0; i < wideFields; i++ {
			if h.GetField(dst, i) != wideValue(i) || h.IsRefField(dst, i) != slices.Contains(wideRefs, i) {
				t.Fatalf("copy at %v: field %d = %d ref %v", dst, i, h.GetField(dst, i), h.IsRefField(dst, i))
			}
		}
		if !ds.refMap.Get(lo-1) || !ds.refMap.Get(hi) {
			t.Fatalf("copy at %v changed a neighbouring reference bit", dst)
		}
	}

	// A range read gives the redo log's layout, and a range write of it
	// elsewhere rebuilds the same fields (the grant image's path).
	words, mask := h.ReadRange(h.DataAddr(src, 0), wideFields, nil, nil)
	if len(words) != wideFields || !slices.Equal(mask, []uint64{1 | 1<<60 | 1<<63, 1 | 1<<1 | 1<<5}) {
		t.Fatalf("ReadRange gave %d words, mask %x", len(words), mask)
	}
	dst := other.Meta.Base.AddWords(150)
	h.Materialize(dst, 1, wideFields)
	h.WriteRange(h.DataAddr(dst, 0), words, mask)
	for i := 0; i < wideFields; i++ {
		if h.GetField(dst, i) != wideValue(i) || h.IsRefField(dst, i) != slices.Contains(wideRefs, i) {
			t.Fatalf("range write: field %d = %d ref %v", i, h.GetField(dst, i), h.IsRefField(dst, i))
		}
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
	if n := s.RewriteFwds(moveZ); n != 1 || len(seen) != 1 || fwd(h, y) != x {
		t.Fatalf("RewriteFwds rewrote %d of %v, fwd(y) = %v; want y's forwarding pointer only", n, seen, fwd(h, y))
	}

	h.DiscardSegment(s.Meta.ID)
	mapped := 0
	h.ForEachSegment(func(*Segment) { mapped++ })
	if h.Mapped(x) || mapped != 0 {
		t.Fatal("segment still mapped after DiscardSegment")
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
	s2.Import(s1.Export())
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
	s1.Import(s2.Export())
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
	snap := s.Export()
	h.SetField(oa, 0, 456, false)
	s.Import(snap)
	if h.GetField(oa, 0) != 123 {
		t.Fatal("restore failed")
	}
}

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(130)
	if b.n != 130 {
		t.Fatalf("Len = %d", b.n)
	}
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if !b.Get(0) || !b.Get(64) || !b.Get(129) || b.Get(1) {
		t.Fatal("Get wrong")
	}
	if count(b) != 3 {
		t.Fatalf("Count = %d", count(b))
	}
	var got []int
	b.ForEach(func(i int) { got = append(got, i) })
	if len(got) != 3 || got[0] != 0 || got[1] != 64 || got[2] != 129 {
		t.Fatalf("ForEach = %v", got)
	}
	b.Clear(64)
	if b.Get(64) || count(b) != 2 {
		t.Fatal("Clear wrong")
	}
}

// count returns the number of set bits in b.
func count(b *Bitmap) int {
	n := 0
	for _, w := range b.bits {
		n += bits.OnesCount64(w)
	}
	return n
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
		return ok && n == len(want) && count(b) == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}

	// A range walk, extract and store agree with bit-by-bit Get on
	// ranges that start and end mid-word, and touch no bit outside.
	const size = 512
	g := func(idxs []uint16, lo16, n16, dlo16 uint16) bool {
		b, d := NewBitmap(size), NewBitmap(size)
		for _, i := range idxs {
			b.Set(int(i) % size)
			d.Set(int(i*7) % size)
		}
		lo, n := int(lo16)%size, int(n16)%size
		n = min(n, size-lo)
		dlo := min(int(dlo16)%size, size-n)
		var walked []int
		b.forRange(lo, lo+n, func(i int) { walked = append(walked, i) })
		var want []int
		for i := lo; i < lo+n; i++ {
			if b.Get(i) {
				want = append(want, i)
			}
		}
		mask := b.extract(nil, lo, n)
		if !slices.Equal(walked, want) || len(mask) != (n+63)/64 {
			return false
		}
		before := &Bitmap{n: size, bits: slices.Clone(d.bits)}
		d.store(dlo, n, mask)
		for i := 0; i < size; i++ {
			wantBit := before.Get(i)
			if i >= dlo && i < dlo+n {
				wantBit = b.Get(lo + i - dlo)
			}
			if d.Get(i) != wantBit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 500}); err != nil {
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
