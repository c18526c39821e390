package addr

import (
	"testing"
	"testing/quick"
)

func TestNilAddr(t *testing.T) {
	if !NilAddr.IsNil() {
		t.Fatal("NilAddr must be nil")
	}
	if Addr(8).IsNil() {
		t.Fatal("non-zero address must not be nil")
	}
	if NilAddr.String() != "nil" {
		t.Fatalf("String() = %q, want nil", NilAddr.String())
	}
}

func TestWordOff(t *testing.T) {
	base := Addr(0x1000)
	if off := base.AddWords(3).WordOff(base); off != 3 {
		t.Fatalf("WordOff = %d, want 3", off)
	}
	if off := base.WordOff(base); off != 0 {
		t.Fatalf("WordOff(base) = %d, want 0", off)
	}
}

func TestWordOffPanicsBelowBase(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for address below base")
		}
	}()
	Addr(0x100).WordOff(0x1000)
}

func TestWordOffPanicsMisaligned(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for misaligned address")
		}
	}()
	Addr(0x1004).WordOff(0x1000)
}

func TestAddWordsRoundTrip(t *testing.T) {
	f := func(base uint32, n uint16) bool {
		b := Addr(base) * WordBytes
		return b.AddWords(int(n)).WordOff(b) == int(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddrString(t *testing.T) {
	if got := Addr(0x2a0).String(); got != "0x2a0" {
		t.Fatalf("String = %q", got)
	}
}

func TestOIDString(t *testing.T) {
	if got := OID(3).String(); got != "O3" {
		t.Fatalf("OID String = %q, want O3", got)
	}
	if got := NilOID.String(); got != "O-nil" {
		t.Fatalf("NilOID String = %q", got)
	}
	if !NilOID.IsNil() || OID(1).IsNil() {
		t.Fatal("IsNil misbehaves")
	}
}

func TestNodeString(t *testing.T) {
	// The paper numbers nodes from N1; NodeID is zero-based internally.
	if got := NodeID(0).String(); got != "N1" {
		t.Fatalf("NodeID(0) = %q, want N1", got)
	}
	if got := NodeID(2).String(); got != "N3" {
		t.Fatalf("NodeID(2) = %q, want N3", got)
	}
	if got := NoNode.String(); got != "N-none" {
		t.Fatalf("NoNode = %q", got)
	}
}

func TestBunchString(t *testing.T) {
	if got := BunchID(1).String(); got != "B1" {
		t.Fatalf("BunchID(1) = %q, want B1", got)
	}
	if got := NoBunch.String(); got != "B-none" {
		t.Fatalf("NoBunch = %q", got)
	}
}

func TestSegString(t *testing.T) {
	if got := SegID(4).String(); got != "S4" {
		t.Fatalf("SegID(4) = %q", got)
	}
	if got := NoSeg.String(); got != "S-none" {
		t.Fatalf("NoSeg = %q", got)
	}
}
