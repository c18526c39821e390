package baseline

import (
	"testing"

	"bmx/internal/addr"
	"bmx/internal/cluster"
	"bmx/internal/trace"
)

func TestTokenGCAcquiresAndInvalidates(t *testing.T) {
	cl := cluster.New(cluster.Config{Nodes: 3, SegWords: 256, Seed: 1})
	n1 := cl.Node(0)
	b := n1.NewBunch()
	g, err := trace.BuildList(n1, b, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Share(g.Objects, cl.Node(1), cl.Node(2)); err != nil {
		t.Fatal(err)
	}
	st := cl.Stats()
	if st.Get("dsm.acquire.w.gc") != 0 {
		t.Fatal("precondition: no GC acquires yet")
	}
	cs, err := TokenCollectBunch(n1, b)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Copied != 10 {
		t.Fatalf("token GC copied %d, want all 10 (it owns everything)", cs.Copied)
	}
	if got := st.Get("dsm.acquire.w.gc"); got != 10 {
		t.Fatalf("GC token acquires = %d, want 10", got)
	}
	// Every shared read copy was invalidated — the disruption §4.2 warns
	// about.
	if st.Get("dsm.invalidation.gc") == 0 {
		t.Fatal("token GC caused no invalidations despite shared replicas")
	}
	// And the other nodes lost their consistent copies.
	if got := cl.Node(1).Mode(g.Objects[5]); got.String() != "i" {
		t.Fatalf("replica mode after token GC = %v, want i", got)
	}
}

func TestTokenGCStillCorrect(t *testing.T) {
	cl := cluster.New(cluster.Config{Nodes: 2, SegWords: 256, Seed: 1})
	n1 := cl.Node(0)
	b := n1.NewBunch()
	g, err := trace.BuildList(n1, b, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Churn(n1, g, 0.5, 3); err != nil {
		t.Fatal(err)
	}
	cs, err := TokenCollectBunch(n1, b)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Dead == 0 {
		t.Fatal("token GC reclaimed nothing")
	}
	// Live prefix still walks.
	if v, err := n1.ReadWord(g.Root, 1); err != nil || v != 0 {
		t.Fatalf("root = %d, %v", v, err)
	}
}

func TestStrongCollectAll(t *testing.T) {
	cl := cluster.New(cluster.Config{Nodes: 3, SegWords: 256, Seed: 1})
	n1 := cl.Node(0)
	b := n1.NewBunch()
	g, err := trace.BuildList(n1, b, 12)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Share(g.Objects, cl.Node(1), cl.Node(2)); err != nil {
		t.Fatal(err)
	}
	st, err := StrongCollectAll(cl)
	if err != nil {
		t.Fatal(err)
	}
	if st.TokenAcquires == 0 {
		t.Fatal("strong GC acquired no tokens")
	}
	if st.PauseTicks == 0 {
		t.Fatal("strong GC reported no pause")
	}
	if st.Collected.Copied == 0 {
		t.Fatal("strong GC copied nothing")
	}
	// The graph still works afterwards.
	if err := cl.Node(1).AcquireRead(g.Root); err != nil {
		t.Fatal(err)
	}
	if v, _ := cl.Node(1).ReadWord(g.Root, 1); v != 0 {
		t.Fatalf("root payload = %d", v)
	}
}

func TestRefCountNoLossIsCorrect(t *testing.T) {
	sys := NewRefCountSystem(2, 1, 0)
	for o := 1; o <= 20; o++ {
		sys.Create(0, refOID(o))
		sys.AddRef(1, 0, refOID(o)) // remote reference created
	}
	sys.Deliver() // increments safely delivered (acked) ...
	for o := 1; o <= 20; o++ {
		sys.DropRef(0, 0, refOID(o)) // ... before the creator drops its ref
	}
	sys.Deliver()
	// Half of the remote refs are dropped: those objects must be freed,
	// the rest must survive.
	for o := 1; o <= 10; o++ {
		sys.DropRef(1, 0, refOID(o))
	}
	sys.Deliver()
	early, leaks := sys.Audit()
	if early != 0 || leaks != 0 {
		t.Fatalf("violations without loss: early=%d leaks=%d", early, leaks)
	}
	if !sys.homes[0].freed[refOID(3)] {
		t.Fatal("fully dropped object not freed")
	}
	if sys.homes[0].freed[refOID(15)] {
		t.Fatal("referenced object freed")
	}
}

func TestRefCountLossCausesViolations(t *testing.T) {
	sys := NewRefCountSystem(2, 42, 0.3)
	const k = 200
	for o := 1; o <= k; o++ {
		sys.Create(0, refOID(o))
		sys.AddRef(1, 0, refOID(o))
	}
	sys.Deliver()
	for o := 1; o <= k; o++ {
		sys.DropRef(0, 0, refOID(o))
	}
	sys.Deliver()
	// Drop half the remote refs.
	for o := 1; o <= k/2; o++ {
		sys.DropRef(1, 0, refOID(o))
	}
	sys.Deliver()
	early, leaks := sys.Audit()
	if early == 0 {
		t.Fatal("expected premature frees under inc-message loss")
	}
	if leaks == 0 {
		t.Fatal("expected leaks under dec-message loss")
	}
	if sys.String() == "" {
		t.Fatal("empty String")
	}
}

func refOID(i int) addr.OID { return addr.OID(i) }
