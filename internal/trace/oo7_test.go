package trace

import (
	"testing"

	"bmx/internal/cluster"
)

func TestBuildOO7Structure(t *testing.T) {
	cl := cluster.New(cluster.Config{Nodes: 1, SegWords: 512})
	n := cl.Node(0)
	rootB := n.NewBunch()
	cfg := DefaultOO7()
	db, err := BuildOO7(n, rootB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(db.Objects); got != cfg.TotalObjects() {
		t.Fatalf("objects = %d, want %d", got, cfg.TotalObjects())
	}
	if len(db.Bunches) != cfg.Modules || len(db.Modules) != cfg.Modules {
		t.Fatalf("modules = %d/%d", len(db.Bunches), len(db.Modules))
	}
	if db.CrossRefs == 0 {
		t.Fatal("no cross-module references built")
	}
	// Inter-bunch SSPs exist for the cross links (plus root->module ones).
	stubs := 0
	for _, b := range n.Collector().MappedBunches() {
		stubs += len(n.Collector().Replica(b).Table.InterStubs)
	}
	if stubs < db.CrossRefs {
		t.Fatalf("stubs = %d, want >= %d cross refs", stubs, db.CrossRefs)
	}
}

func TestOO7SurvivesCollection(t *testing.T) {
	cl := cluster.New(cluster.Config{Nodes: 1, SegWords: 512})
	n := cl.Node(0)
	rootB := n.NewBunch()
	db, err := BuildOO7(n, rootB, DefaultOO7())
	if err != nil {
		t.Fatal(err)
	}
	// Everything is reachable from the library root: nothing may die.
	for _, b := range n.Collector().MappedBunches() {
		n.CollectBunch(b)
		cl.Run(0)
	}
	n.CollectGroup(nil)
	cl.Run(0)
	for _, o := range db.Objects {
		if _, ok := n.DSM().Canonical(o.OID); !ok {
			t.Fatalf("live design object %v reclaimed", o)
		}
	}
}

func TestOO7ModuleDeletion(t *testing.T) {
	cl := cluster.New(cluster.Config{Nodes: 1, SegWords: 512})
	n := cl.Node(0)
	rootB := n.NewBunch()
	cfg := DefaultOO7()
	db, err := BuildOO7(n, rootB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Drop module 0 from the library. Its objects are garbage except
	// whatever module 1's cross-references still reach — the group
	// collector sorts that out exactly.
	if err := n.AcquireWrite(db.Root); err != nil {
		t.Fatal(err)
	}
	if err := n.WriteRef(db.Root, 0, cluster.Nil); err != nil {
		t.Fatal(err)
	}
	var dead int
	for i := 0; i < 4; i++ {
		st := n.CollectGroup(nil)
		dead += st.Dead
		cl.Run(0)
	}
	if dead == 0 {
		t.Fatal("module deletion reclaimed nothing")
	}
	// Module 1's subtree must be fully intact.
	if _, ok := n.DSM().Canonical(db.Modules[1].OID); !ok {
		t.Fatal("surviving module reclaimed")
	}
	if v, err := n.ReadWord(db.Modules[1], 1); err != nil || v != 1 {
		t.Fatalf("surviving module id = %d, %v", v, err)
	}
	if bad := cl.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("invariants violated after module deletion: %v", bad)
	}
}

func TestOO7ConfigArithmetic(t *testing.T) {
	cfg := OO7Config{Modules: 3, AssemblyFanout: 2, AssemblyLevels: 2,
		PartsPerBase: 2, AtomsPerPart: 3}
	// per module: 1 module + (1+2) assemblies + 4 bases + 4*2*(1+3) parts+atoms
	want := 1 + 3 + 4 + 32
	if got := cfg.ObjectsPerModule(); got != want {
		t.Fatalf("ObjectsPerModule = %d, want %d", got, want)
	}
	if got := cfg.TotalObjects(); got != 1+3*want {
		t.Fatalf("TotalObjects = %d", got)
	}
}

func TestBuildOO7BadConfig(t *testing.T) {
	cl := cluster.New(cluster.Config{Nodes: 1, SegWords: 512})
	n := cl.Node(0)
	if _, err := BuildOO7(n, n.NewBunch(), OO7Config{Modules: 0}); err == nil {
		t.Fatal("bad config accepted")
	}
}
