// Package addr defines the primitive identifier types of the BMX single
// shared address space: 64-bit addresses, stable object identifiers, node,
// bunch and segment identifiers.
//
// BMX (Ferreira & Shapiro, OSDI '94) offers a 64-bit single address space
// spanning all the nodes of a network, including secondary storage. An object
// is represented by its address; object references are ordinary pointers.
// Because replicas of an object may transiently live at different addresses
// on different nodes (the central point of the paper's GC design), protocol
// state is keyed by a stable object identifier (OID) carried in the object
// header, while mutator-visible references remain plain addresses.
package addr

import "fmt"

// WordBytes is the size of a memory word. All addresses handled by the
// library are word aligned. The paper uses 4-byte map granularity on 32-bit
// pointers; this implementation uses 8-byte words to hold 64-bit pointers,
// with one object-map/reference-map bit per word, which is the same design
// at the native pointer size.
const WordBytes = 8

// Addr is a byte address in the global single address space. The zero
// address is the nil reference.
type Addr uint64

// NilAddr is the null pointer in the shared address space.
const NilAddr Addr = 0

// IsNil reports whether a is the null reference.
func (a Addr) IsNil() bool { return a == NilAddr }

// WordOff returns the word offset of a relative to base. It panics if a is
// below base or misaligned with respect to it, which always indicates
// library-internal corruption rather than a recoverable condition.
func (a Addr) WordOff(base Addr) int {
	if a < base {
		panic(fmt.Sprintf("addr: %v below base %v", a, base))
	}
	d := uint64(a - base)
	if d%WordBytes != 0 {
		panic(fmt.Sprintf("addr: %v misaligned from base %v", a, base))
	}
	return int(d / WordBytes)
}

// AddWords returns the address n words after a.
func (a Addr) AddWords(n int) Addr { return a + Addr(n*WordBytes) }

// String formats the address as a hexadecimal pointer.
func (a Addr) String() string {
	if a.IsNil() {
		return "nil"
	}
	return fmt.Sprintf("0x%x", uint64(a))
}

// OID is a cluster-unique, stable object identifier. It never changes when
// the object is moved by a copying collection, and it is the key for DSM
// token state, stub/scion tables and location-update piggybacking. OID 0 is
// reserved and means "no object".
type OID uint64

// NilOID is the reserved null object identifier.
const NilOID OID = 0

// IsNil reports whether o is the null object identifier.
func (o OID) IsNil() bool { return o == NilOID }

// String formats the OID the way the paper labels objects: O1, O2, ...
func (o OID) String() string {
	if o.IsNil() {
		return "O-nil"
	}
	return fmt.Sprintf("O%d", uint64(o))
}

// NodeID identifies one node (site) of the loosely coupled network.
type NodeID int32

// NoNode is the invalid node identifier.
const NoNode NodeID = -1

// String formats the node the way the paper labels nodes: N1, N2, ...
func (n NodeID) String() string {
	if n == NoNode {
		return "N-none"
	}
	return fmt.Sprintf("N%d", int32(n)+1)
}

// BunchID identifies a bunch: a logical group of segments with an owner and
// protection attributes, the unit of independent garbage collection.
type BunchID uint32

// NoBunch is the invalid bunch identifier.
const NoBunch BunchID = 0

// String formats the bunch the way the paper labels bunches: B1, B2, ...
func (b BunchID) String() string {
	if b == NoBunch {
		return "B-none"
	}
	return fmt.Sprintf("B%d", uint32(b))
}

// SegID identifies a segment: a set of contiguous virtual memory pages with
// a constant size, allocated with non-overlapping addresses by the cluster
// allocator (the BMX-server role).
type SegID uint32

// NoSeg is the invalid segment identifier.
const NoSeg SegID = ^SegID(0)

// String formats the segment identifier.
func (s SegID) String() string {
	if s == NoSeg {
		return "S-none"
	}
	return fmt.Sprintf("S%d", uint32(s))
}
