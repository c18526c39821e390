package cluster

import (
	"strings"
	"testing"
)

// Edge-case tests for the mutator API: every error path a misbehaving
// application can hit must fail cleanly and leave the cluster consistent.

func TestReadNonRefFieldAsRef(t *testing.T) {
	cl := New(Config{Nodes: 1, SegWords: 64})
	n := cl.Node(0)
	b := n.NewBunch()
	o := n.MustAlloc(b, 1)
	n.AddRoot(o)
	n.WriteWord(o, 0, 123)
	if _, err := n.ReadRef(o, 0); err == nil {
		t.Fatal("reading a scalar field as a reference must fail")
	}
	// A zero scalar field reads as a nil reference (uninitialized slot).
	o2 := n.MustAlloc(b, 1)
	n.AddRoot(o2)
	if r, err := n.ReadRef(o2, 0); err != nil || !r.IsNil() {
		t.Fatalf("uninitialized field = %v, %v", r, err)
	}
}

func TestFieldBoundsThroughAPI(t *testing.T) {
	cl := New(Config{Nodes: 1, SegWords: 64})
	n := cl.Node(0)
	b := n.NewBunch()
	o := n.MustAlloc(b, 2)
	n.AddRoot(o)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range field must panic (library corruption guard)")
		}
	}()
	n.WriteWord(o, 5, 1)
}

func TestMustAllocPanicsOnError(t *testing.T) {
	cl := New(Config{Nodes: 1, SegWords: 16})
	n := cl.Node(0)
	b := n.NewBunch()
	defer func() {
		if recover() == nil {
			t.Fatal("MustAlloc must panic on oversized allocation")
		}
	}()
	n.MustAlloc(b, 100)
}

func TestWriteRefUnknownTarget(t *testing.T) {
	cl := New(Config{Nodes: 2, SegWords: 64, Seed: 1})
	n1, n2 := cl.Node(0), cl.Node(1)
	b1 := n1.NewBunch()
	b2 := n2.NewBunch()
	src := n1.MustAlloc(b1, 1)
	tgt := n2.MustAlloc(b2, 1)
	n1.AddRoot(src)
	// n1 never learned tgt's address: the store must fail (a mutator can
	// only write pointers it holds).
	if err := n1.WriteRef(src, 0, tgt); err == nil {
		t.Fatal("write of an unknown pointer must fail")
	}
	if !strings.Contains(n1.WriteRef(src, 0, tgt).Error(), "holds no address") {
		t.Fatal("unexpected error text")
	}
}

func TestRootCounting(t *testing.T) {
	cl := New(Config{Nodes: 1, SegWords: 64})
	n := cl.Node(0)
	b := n.NewBunch()
	o := n.MustAlloc(b, 1)
	// Two stack references; removing one must keep the object rooted.
	n.AddRoot(o)
	n.AddRoot(o)
	n.RemoveRoot(o)
	if st := n.CollectBunch(b); st.Dead != 0 {
		t.Fatal("object with one remaining root reclaimed")
	}
	n.RemoveRoot(o)
	if st := n.CollectBunch(b); st.Dead != 1 {
		t.Fatal("object with no roots survived")
	}
	// Extra removes are harmless.
	n.RemoveRoot(o)
}

func TestSizeErrors(t *testing.T) {
	cl := New(Config{Nodes: 2, SegWords: 64, Seed: 1})
	n1, n2 := cl.Node(0), cl.Node(1)
	b := n1.NewBunch()
	o := n1.MustAlloc(b, 3)
	if sz, err := n1.Size(o); err != nil || sz != 3 {
		t.Fatalf("Size = %d, %v", sz, err)
	}
	// n2 has no replica.
	if _, err := n2.Size(o); err == nil {
		t.Fatal("Size without a replica must fail")
	}
}

func TestZeroSizeObject(t *testing.T) {
	cl := New(Config{Nodes: 2, SegWords: 64, Seed: 1})
	n1, n2 := cl.Node(0), cl.Node(1)
	b := n1.NewBunch()
	o := n1.MustAlloc(b, 0) // a pure marker object
	n1.AddRoot(o)
	if err := n2.AcquireRead(o); err != nil {
		t.Fatal(err)
	}
	st := n1.CollectBunch(b)
	if st.Copied != 1 {
		t.Fatalf("zero-size object not copied: %+v", st)
	}
	if sz, err := n1.Size(o); err != nil || sz != 0 {
		t.Fatalf("size = %d, %v", sz, err)
	}
}

func TestTinySegmentsGC(t *testing.T) {
	// Segment overflow during allocation and during the copy phase: with
	// 16-word segments (13 data words max), multi-object graphs span many
	// segments and every collection allocates several fresh to-space
	// segments.
	cl := New(Config{Nodes: 1, SegWords: 16})
	n := cl.Node(0)
	b := n.NewBunch()
	var objs []Ref
	prev := Nil
	for i := 0; i < 12; i++ {
		o := n.MustAlloc(b, 4)
		n.WriteWord(o, 1, uint64(i))
		if prev.IsNil() {
			n.AddRoot(o)
		} else {
			n.WriteRef(prev, 0, o)
		}
		objs = append(objs, o)
		prev = o
	}
	for round := 0; round < 3; round++ {
		st := n.CollectBunch(b)
		if st.Copied != 12 {
			t.Fatalf("round %d copied %d, want 12", round, st.Copied)
		}
		cl.Run(0)
	}
	for i, o := range objs {
		if v, err := n.ReadWord(o, 1); err != nil || v != uint64(i) {
			t.Fatalf("object %d = %d, %v", i, v, err)
		}
	}
	if bad := cl.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("invariants: %v", bad)
	}
}

func TestReclaimUnderLoss(t *testing.T) {
	// The §4.5 rounds use synchronous calls, so background loss must not
	// affect them.
	cl := New(Config{Nodes: 2, SegWords: 64, Seed: 3, Faults: lossy(0.5)})
	n1, n2 := cl.Node(0), cl.Node(1)
	b := n1.NewBunch()
	o1 := n1.MustAlloc(b, 2)
	o2 := n1.MustAlloc(b, 2)
	n1.AddRoot(o1)
	n1.WriteRef(o1, 0, o2)
	n2.MapBunch(b)
	n2.AddRoot(o1)
	n1.CollectBunch(b)
	cl.Run(0)
	st := n1.ReclaimFromSpace(b)
	if st.Segments == 0 {
		t.Fatal("reclaim did nothing under loss")
	}
	cl.Run(0)
	if err := n2.AcquireRead(o1); err != nil {
		t.Fatal(err)
	}
	if r, err := n2.ReadRef(o1, 0); err != nil || !n2.SamePtr(r, o2) {
		t.Fatalf("graph after lossy reclaim: %v, %v", r, err)
	}
}

func TestDoubleReclaimIsIdempotent(t *testing.T) {
	cl := New(Config{Nodes: 1, SegWords: 64})
	n := cl.Node(0)
	b := n.NewBunch()
	o := n.MustAlloc(b, 1)
	n.AddRoot(o)
	n.CollectBunch(b)
	first := n.ReclaimFromSpace(b)
	second := n.ReclaimFromSpace(b)
	if first.Segments == 0 {
		t.Fatal("first reclaim freed nothing")
	}
	if second.Segments != 0 {
		t.Fatal("second reclaim should find nothing to do")
	}
	if v := n.Collector().FromSpaceSegments(b); len(v) != 0 {
		t.Fatalf("from-space list not drained: %v", v)
	}
}

func TestRefString(t *testing.T) {
	if Nil.String() != "O-nil" {
		t.Fatalf("Nil.String = %q", Nil.String())
	}
	r := Ref{OID: 7}
	if r.String() != "O7" || r.IsNil() {
		t.Fatalf("Ref{7} = %q", r.String())
	}
}
