package ssp

import (
	"testing"
	"testing/quick"

	"bmx/internal/addr"
)

func TestAddInterStubOverwrites(t *testing.T) {
	tb := NewTable(1)
	s := InterStub{SrcOID: 1, SrcBunch: 1, TargetOID: 2, TargetBunch: 2, ScionNode: 0}
	tb.AddInterStub(s)
	s.ScionNode = 1
	tb.AddInterStub(s)
	if len(tb.InterStubs) != 1 {
		t.Fatalf("stubs = %d, want 1 (same key)", len(tb.InterStubs))
	}
	if tb.InterStubs[s.Key()].ScionNode != 1 {
		t.Fatal("overwrite did not take")
	}
}

func TestAddInterScionIdempotent(t *testing.T) {
	tb := NewTable(2)
	s := InterScion{TargetOID: 2, TargetBunch: 2, SrcOID: 1, SrcBunch: 1, SrcNode: 0, CreatedGen: 3}
	tb.AddInterScion(s)
	dup := s
	dup.CreatedGen = 99 // a re-sent scion-message must not refresh the gen
	tb.AddInterScion(dup)
	if len(tb.InterScions) != 1 {
		t.Fatalf("scions = %d", len(tb.InterScions))
	}
	if tb.InterScions[s.Key()].CreatedGen != 3 {
		t.Fatal("duplicate scion-message overwrote the original creation gen")
	}
}

func TestAddIntraScionIdempotent(t *testing.T) {
	tb := NewTable(1)
	s := IntraScion{OID: 3, Bunch: 1, NewOwner: 0, CreatedGen: 1}
	tb.AddIntraScion(s)
	tb.AddIntraScion(IntraScion{OID: 3, Bunch: 1, NewOwner: 0, CreatedGen: 9})
	if len(tb.IntraScions) != 1 || tb.IntraScions[s.Key()].CreatedGen != 1 {
		t.Fatal("intra scion idempotence broken")
	}
}

func TestListsDeterministic(t *testing.T) {
	tb := NewTable(1)
	tb.AddInterStub(InterStub{SrcOID: 3, TargetOID: 5})
	tb.AddInterStub(InterStub{SrcOID: 1, TargetOID: 9})
	tb.AddInterStub(InterStub{SrcOID: 1, TargetOID: 2})
	l := tb.InterStubList()
	if l[0].SrcOID != 1 || l[0].TargetOID != 2 || l[2].SrcOID != 3 {
		t.Fatalf("order wrong: %v", l)
	}

	tb.AddIntraStub(IntraStub{OID: 7, OldOwner: 2})
	tb.AddIntraStub(IntraStub{OID: 7, OldOwner: 0})
	il := tb.IntraStubList()
	if il[0].OldOwner != 0 || il[1].OldOwner != 2 {
		t.Fatalf("intra order wrong: %v", il)
	}

	tb.AddInterScion(InterScion{TargetOID: 4, SrcOID: 1, SrcNode: 1})
	tb.AddInterScion(InterScion{TargetOID: 4, SrcOID: 1, SrcNode: 0})
	sl := tb.InterScionList()
	if sl[0].SrcNode != 0 || sl[1].SrcNode != 1 {
		t.Fatalf("scion order wrong: %v", sl)
	}

	tb.AddIntraScion(IntraScion{OID: 9, NewOwner: 2})
	tb.AddIntraScion(IntraScion{OID: 2, NewOwner: 1})
	isl := tb.IntraScionList()
	if isl[0].OID != 2 || isl[1].OID != 9 {
		t.Fatalf("intra scion order wrong: %v", isl)
	}
}

func TestIntraScionRootOIDs(t *testing.T) {
	tb := NewTable(1)
	tb.AddIntraScion(IntraScion{OID: 8, NewOwner: 0})
	tb.AddIntraScion(IntraScion{OID: 8, NewOwner: 1})
	tb.AddIntraScion(IntraScion{OID: 4, NewOwner: 2})
	roots := tb.IntraScionRootOIDs()
	if len(roots) != 2 || roots[0] != 4 || roots[1] != 8 {
		t.Fatalf("weak roots = %v", roots)
	}
}

func TestStringers(t *testing.T) {
	// The String forms follow the paper's labels; smoke-test they render.
	for _, s := range []string{
		InterStub{SrcOID: 3, SrcBunch: 1, TargetOID: 5, TargetBunch: 2, ScionNode: 2}.String(),
		InterScion{TargetOID: 5, TargetBunch: 2, SrcOID: 3, SrcBunch: 1, SrcNode: 1, CreatedGen: 1}.String(),
		IntraStub{OID: 3, Bunch: 1, OldOwner: 1}.String(),
		IntraScion{OID: 3, Bunch: 1, NewOwner: 0, CreatedGen: 2}.String(),
	} {
		if s == "" {
			t.Fatal("empty String()")
		}
	}
}

func TestTableMsgWireBytes(t *testing.T) {
	m := TableMsg{
		InterStubs: []InterStub{{}, {}},
		IntraStubs: []IntraStub{{}},
		Exiting:    []addr.OID{1, 2, 3},
	}
	if m.WireBytes() != 16+24*3+8*3 {
		t.Fatalf("WireBytes = %d", m.WireBytes())
	}
	if (ScionMsg{}).WireBytes() != 40 {
		t.Fatal("ScionMsg bytes")
	}
}

func TestRootsProperty(t *testing.T) {
	// Every intra-bunch scion's object appears in the weak root set; no
	// extras.
	f := func(targets []uint8) bool {
		tb := NewTable(1)
		want := map[addr.OID]bool{}
		for i, tg := range targets {
			o := addr.OID(tg%16 + 1)
			tb.AddIntraScion(IntraScion{OID: o, NewOwner: addr.NodeID(i % 3)})
			want[o] = true
		}
		roots := tb.IntraScionRootOIDs()
		if len(roots) != len(want) {
			return false
		}
		for _, o := range roots {
			if !want[o] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
