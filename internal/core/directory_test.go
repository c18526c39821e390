package core

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"

	"bmx/internal/addr"
	"bmx/internal/mem"
)

func newDir() *Directory {
	return NewDirectory(mem.NewAllocator(64))
}

func TestDirectoryBunchLifecycle(t *testing.T) {
	d := newDir()
	b := d.NewBunch(2)
	if d.Creator(b) != 2 {
		t.Fatalf("creator = %v", d.Creator(b))
	}
	if !d.HasReplica(b, 2) || d.HasReplica(b, 0) {
		t.Fatal("creator must be the initial replica")
	}
	d.AddReplica(b, 0)
	if got := d.Replicas(b); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("replicas = %v", got)
	}
	d.RemoveReplica(b, 0)
	if d.HasReplica(b, 0) {
		t.Fatal("remove failed")
	}
	if bs := d.Bunches(); len(bs) != 1 || bs[0] != b {
		t.Fatalf("bunches = %v", bs)
	}
}

func TestDirectoryInterestedVsReplica(t *testing.T) {
	d := newDir()
	b := d.NewBunch(0)
	d.AddInterested(b, 1)
	if d.HasReplica(b, 1) {
		t.Fatal("interested must not be a replica")
	}
	if got := d.Holders(b); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("holders = %v", got)
	}
	// A node that is already a replica never becomes merely interested.
	d.AddInterested(b, 0)
	if got := d.Holders(b); len(got) != 2 {
		t.Fatalf("holders after replica-interested = %v", got)
	}
}

func TestDirectorySegments(t *testing.T) {
	d := newDir()
	b := d.NewBunch(0)
	m1 := d.AddSegment(b)
	m2 := d.AddSegment(b)
	if got := d.Segments(b); len(got) != 2 || got[0].ID != m1.ID || got[1].ID != m2.ID {
		t.Fatalf("segments = %v", got)
	}
	d.RemoveSegment(b, m1.ID)
	if got := d.Segments(b); len(got) != 1 || got[0].ID != m2.ID {
		t.Fatalf("segments after remove = %v", got)
	}
	d.RemoveSegment(b, m1.ID) // idempotent
}

func TestDirectoryObjects(t *testing.T) {
	d := newDir()
	b := d.NewBunch(1)
	m := d.AddSegment(b)
	oid := d.NewOID()
	d.RegisterObject(ObjInfo{OID: oid, Bunch: b, Size: 4, AllocNode: 1, AllocAddr: m.Base})
	info, ok := d.Object(oid)
	if !ok || info.Size != 4 || info.AllocNode != 1 || info.Bunch != b {
		t.Fatalf("object = %+v, %v", info, ok)
	}
	if info, ok := d.Object(999); ok || info.Bunch != addr.NoBunch {
		t.Fatal("unknown oid must map to NoBunch")
	}
	// The segment population lists it.
	if pop := d.SegmentPopulation(m.Base); len(pop) != 1 || pop[0] != oid {
		t.Fatalf("population = %v", pop)
	}
}

func TestDirectoryOIDsUnique(t *testing.T) {
	d := newDir()
	seen := map[addr.OID]bool{}
	for i := 0; i < 100; i++ {
		o := d.NewOID()
		if seen[o] {
			t.Fatalf("duplicate OID %v", o)
		}
		seen[o] = true
	}
}

func TestDirectoryUnknownBunchPanics(t *testing.T) {
	d := newDir()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown bunch")
		}
	}()
	d.Creator(42)
}

func TestDirectoryHoldersProperty(t *testing.T) {
	// Holders is always the union of replicas and interested, sorted and
	// duplicate-free.
	f := func(reps, ints []uint8) bool {
		d := newDir()
		b := d.NewBunch(0)
		want := map[addr.NodeID]bool{0: true}
		for _, r := range reps {
			n := addr.NodeID(r % 8)
			d.AddReplica(b, n)
			want[n] = true
		}
		for _, i := range ints {
			n := addr.NodeID(i % 8)
			d.AddInterested(b, n)
			want[n] = true
		}
		got := d.Holders(b)
		if len(got) != len(want) {
			return false
		}
		for i, n := range got {
			if !want[n] {
				return false
			}
			if i > 0 && got[i-1] >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// locateIs fails the test unless d locates o at (b, hint).
func locateIs(t *testing.T, d *Directory, o addr.OID, b addr.BunchID, hint addr.NodeID) {
	t.Helper()
	if gb, gh := d.Locate(o); gb != b || gh != hint {
		t.Fatalf("Locate(%v) = (%v, %v), want (%v, %v)", o, gb, gh, b, hint)
	}
}

func TestObjectTableHintBeforeRegistration(t *testing.T) {
	d := newDir()
	b := d.NewBunch(1)
	o := d.NewOID()
	d.SetOwnerHint(o, 3)
	if _, ok := d.Object(o); ok {
		t.Fatal("a hint alone must not register the object")
	}
	locateIs(t, d, o, addr.NoBunch, 3)
	d.RegisterObject(ObjInfo{OID: o, Bunch: b, Size: 2, AllocNode: 1, AllocAddr: 0x40})
	locateIs(t, d, o, b, 3) // the hint outranks the allocation site
	// A hint naming no node is a hint: it outranks the allocation site too.
	d.SetOwnerHint(o, addr.NoNode)
	locateIs(t, d, o, b, addr.NoNode)
}

func TestObjectTableRegistrationWithoutHint(t *testing.T) {
	d := newDir()
	b := d.NewBunch(2)
	o := d.NewOID()
	info := ObjInfo{OID: o, Bunch: b, Size: 0, AllocNode: 0, AllocAddr: 0}
	d.RegisterObject(info)
	if got, ok := d.Object(o); !ok || got != info {
		t.Fatalf("Object(%v) = %+v, %v; want %+v", o, got, ok, info)
	}
	locateIs(t, d, o, b, 0) // the allocation site stands in for the hint
}

func TestObjectTableUnknownOID(t *testing.T) {
	d := newDir()
	b := d.NewBunch(1)
	o := d.NewOID()
	d.RegisterObject(ObjInfo{OID: o, Bunch: b, Size: 1, AllocNode: 1, AllocAddr: 0x40})
	for _, u := range []addr.OID{addr.NilOID, o + 1} {
		if got, ok := d.Object(u); ok || got != (ObjInfo{}) {
			t.Fatalf("Object(%v) = %+v, %v; want the zero record", u, got, ok)
		}
		locateIs(t, d, u, addr.NoBunch, addr.NoNode)
	}
}

func TestObjectTablePastLastPage(t *testing.T) {
	d := newDir()
	b := d.NewBunch(1)
	past := addr.OID(3 << objPageShift) // pages 0 to 2 not yet issued
	for _, o := range []addr.OID{past, past + 1<<objPageShift - 1, past + 1<<objPageShift} {
		if _, ok := d.Object(o); ok {
			t.Fatalf("Object(%v) found before any registration", o)
		}
		locateIs(t, d, o, addr.NoBunch, addr.NoNode)
		d.RegisterObject(ObjInfo{OID: o, Bunch: b, Size: 4, AllocNode: 2, AllocAddr: 0x80})
		if got, ok := d.Object(o); !ok || got.OID != o || got.Size != 4 {
			t.Fatalf("Object(%v) = %+v, %v after registration", o, got, ok)
		}
		locateIs(t, d, o, b, 2)
	}
	// The counter catching up reaches the same records.
	for d.NewOID() <= past+1<<objPageShift {
	}
	locateIs(t, d, past, b, 2)
	d.SetOwnerHint(past, 5)
	locateIs(t, d, past, b, 5)
}

func TestObjectTableHugeOIDAllocatesOnePage(t *testing.T) {
	d := newDir()
	b := d.NewBunch(1)
	d.RegisterObject(ObjInfo{OID: d.NewOID(), Bunch: b, AllocNode: 1})
	huge := addr.OID(1<<40 + 12345)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d.SetOwnerHint(huge, 4)
	d.RegisterObject(ObjInfo{OID: huge + 1, Bunch: b, Size: 3, AllocNode: 2})
	runtime.ReadMemStats(&after)
	page := uint64(unsafe.Sizeof(objPage{}))
	if got := after.TotalAlloc - before.TotalAlloc; got > page+page/4 {
		t.Fatalf("two records near 1<<40 allocated %d bytes, want at most one %d-byte page and change", got, page)
	}
	locateIs(t, d, huge, addr.NoBunch, 4)
	locateIs(t, d, huge+1, b, 2)
	locateIs(t, d, huge+2, addr.NoBunch, addr.NoNode)
}

// TestObjectTableMatchesMap drives the table and a reference pair of maps
// (a record map and a hint map, the hint outranking the allocation site)
// through seeded random registrations and hints, over issued OIDs, OIDs
// past the counter and far ones, and checks every answer.
func TestObjectTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := newDir()
		b := d.NewBunch(0)
		objects := map[addr.OID]ObjInfo{}
		hints := map[addr.OID]addr.NodeID{}
		var oids []addr.OID
		pick := func() addr.OID {
			switch k := rng.Intn(10); {
			case k < 6 && len(oids) > 0:
				return oids[rng.Intn(len(oids))]
			case k < 8:
				return addr.OID(rng.Intn(3 << objPageShift))
			default:
				return addr.OID(1<<30 + rng.Intn(1<<12))
			}
		}
		for step := 0; step < 3000; step++ {
			switch rng.Intn(3) {
			case 0:
				oids = append(oids, d.NewOID())
			case 1:
				info := ObjInfo{OID: pick(), Bunch: b + addr.BunchID(rng.Intn(3)), Size: rng.Intn(60),
					AllocNode: addr.NodeID(rng.Intn(5)), AllocAddr: addr.Addr(8 * rng.Intn(1<<20))}
				d.RegisterObject(info)
				objects[info.OID] = info
			case 2:
				o, n := pick(), addr.NodeID(rng.Intn(6)-1)
				d.SetOwnerHint(o, n)
				hints[o] = n
			}
			o := pick()
			want, wantOK := objects[o]
			if got, ok := d.Object(o); got != want || ok != wantOK {
				t.Fatalf("seed %d step %d: Object(%v) = %+v, %v; want %+v, %v", seed, step, o, got, ok, want, wantOK)
			}
			wb, wh := addr.NoBunch, addr.NoNode
			if info, ok := objects[o]; ok {
				wb, wh = info.Bunch, info.AllocNode
			}
			if n, ok := hints[o]; ok {
				wh = n
			}
			locateIs(t, d, o, wb, wh)
		}
	}
}
