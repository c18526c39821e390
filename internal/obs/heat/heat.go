// Package heat is the cluster's access-locality accounting layer: per-OID
// read/write/acquire counters and ownership marks stamped with the Lamport
// tick. Every node keeps its own table, and the tables merge at read into
// one consistent heat table (Merge, rows.go): the nodes of one process and
// the processes of a multi-process cluster take the same path. Only its
// node notes into a table, always under the node lock, so the table has
// no lock of its own; while disabled every note is a single atomic load —
// the event rings' contract.
//
// The table is the measurement half of locality-aware placement (ROADMAP):
// the analyzer in report.go turns a snapshot into remote-access ratios per
// object, bunch and node, and a dominant-writer vs current-owner mismatch
// list ranked by wasted hops — concrete migration advice.
package heat

import (
	"sync/atomic"

	"bmx/internal/addr"
)

// Table is one node's heat table: one cell per object the node accessed,
// plus the node's ownership marks. The node lock guards every note and
// every Snapshot.
type Table struct {
	enabled atomic.Bool
	node    addr.NodeID
	now     func() uint64

	cells map[addr.OID]*cell
	// owners holds, per object, the tick at which this node last became
	// its owner.
	owners map[addr.OID]uint64
}

// cell accumulates the node's accesses to one object.
type cell struct {
	bunch    addr.BunchID
	reads    uint64
	writes   uint64
	acquires uint64
	remote   uint64 // acquires that travelled the owner chain
	hops     uint64 // ownerPtr forwards those remote acquires cost
}

// New returns node's table, disabled. now is the Lamport clock that stamps
// ownership marks.
func New(node addr.NodeID, now func() uint64) *Table {
	return &Table{
		node:   node,
		now:    now,
		cells:  make(map[addr.OID]*cell),
		owners: make(map[addr.OID]uint64),
	}
}

// Enable turns accounting on. Instrumentation is always compiled in; this
// flips the one atomic every note checks.
func (t *Table) Enable() { t.enabled.Store(true) }

// Enabled reports whether accounting is on, so a caller can skip the work
// of gathering a note's arguments while it is off.
func (t *Table) Enabled() bool { return t.enabled.Load() }

func (t *Table) cell(o addr.OID, b addr.BunchID) *cell {
	c, ok := t.cells[o]
	if !ok {
		c = &cell{bunch: b}
		t.cells[o] = c
	}
	if c.bunch == addr.NoBunch && b != addr.NoBunch {
		c.bunch = b
	}
	return c
}

// NoteRead records one field read of o.
func (t *Table) NoteRead(o addr.OID, b addr.BunchID) {
	if t.enabled.Load() {
		t.cell(o, b).reads++
	}
}

// NoteWrite records one field write of o.
func (t *Table) NoteWrite(o addr.OID, b addr.BunchID) {
	if t.enabled.Load() {
		t.cell(o, b).writes++
	}
}

// NoteAcquire records one token acquire of o. remote says the token was
// not locally cached (the acquire travelled the owner chain) and hops is
// how many ownerPtr forwards the chain cost — the wasted-hop currency the
// migration advice is ranked in.
func (t *Table) NoteAcquire(o addr.OID, b addr.BunchID, remote bool, hops int) {
	if !t.enabled.Load() {
		return
	}
	c := t.cell(o, b)
	c.acquires++
	if remote {
		c.remote++
		if hops > 0 {
			c.hops += uint64(hops)
		}
	}
}

// NoteOwner records that the node now owns o, stamped with the current
// Lamport tick. Marks are written only at the node that BECOMES the owner
// (allocation, write-grant completion, reestablish), and the merge resolves
// the current owner by the highest tick. Two nodes' marks for one object
// differ in tick while a call leg costs one: the grant's reply advances the
// clock between the old owner's mark and the new one's (a simnet
// CallLatency ≥ 1, a Lamport step per received TCP frame). Under a zero
// CallLatency they can tie, and Merge keeps the later part's mark.
func (t *Table) NoteOwner(o addr.OID) {
	if t.enabled.Load() {
		t.owners[o] = t.now()
	}
}
