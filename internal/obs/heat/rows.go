package heat

import (
	"cmp"
	"slices"

	"bmx/internal/addr"
)

// Row is the wire shape of one heat cell: one accessing node's counters for
// one object, with the table's ownership mark for that object repeated on
// every row (the duplication keeps rows self-contained, so any subset of a
// stream still merges correctly). In a telemetry stream (obs.WriteStream)
// a row is the payload of a record tagged "heat".
type Row struct {
	OID   uint64 `json:"oid"`
	Bunch uint32 `json:"bunch,omitempty"`
	Node  int32  `json:"node"`

	Reads    uint64 `json:"reads,omitempty"`
	Writes   uint64 `json:"writes,omitempty"`
	Acquires uint64 `json:"acquires,omitempty"`
	Remote   uint64 `json:"remote,omitempty"`
	Hops     uint64 `json:"hops,omitempty"`

	// Owner/OwnerTick carry the emitting table's ownership mark for OID.
	// OwnerTick is the Lamport tick of the transition; merging keeps the
	// highest tick, which is how N per-node tables agree on the current
	// owner without ever exchanging ownership state.
	Owner     *int32 `json:"owner,omitempty"`
	OwnerTick uint64 `json:"ownerTick,omitempty"`
}

// Snapshot renders the table as rows sorted by OID — a deterministic
// serialization: same seed, same run, byte-identical rows. Call it under
// the node lock.
func (t *Table) Snapshot() []Row {
	rows := make([]Row, 0, len(t.cells))
	for o, c := range t.cells {
		r := Row{
			OID: uint64(o), Bunch: uint32(c.bunch), Node: int32(t.node),
			Reads: c.reads, Writes: c.writes, Acquires: c.acquires,
			Remote: c.remote, Hops: c.hops,
		}
		if tick, ok := t.owners[o]; ok {
			r.mark(int32(t.node), tick)
		}
		rows = append(rows, r)
	}
	// An ownership mark for an object the node has not (yet) accessed
	// still matters to the mismatch analysis: emit it as a bare row.
	for o, tick := range t.owners {
		if _, ok := t.cells[o]; !ok {
			rows = append(rows, bareRow(o, int32(t.node), tick))
		}
	}
	sortRows(rows)
	return rows
}

// mark sets r's ownership mark.
func (r *Row) mark(owner int32, tick uint64) { r.Owner, r.OwnerTick = &owner, tick }

// bareRow is an ownership mark with no counters: the owner's row for an
// object it holds but has not accessed.
func bareRow(o addr.OID, owner int32, tick uint64) Row {
	r := Row{OID: uint64(o), Node: owner}
	r.mark(owner, tick)
	return r
}

func sortRows(rows []Row) {
	slices.SortFunc(rows, func(a, b Row) int {
		if c := cmp.Compare(a.OID, b.OID); c != 0 {
			return c
		}
		return cmp.Compare(a.Node, b.Node)
	})
}

// Merge combines rows from any number of tables (the per-node tables of
// one process, or the captures of a multi-process run) into one
// cluster-wide table: counters sum per (object, node) cell, and each
// object's owner resolves to the mark with the highest Lamport tick, a tie
// going to the later part. A row with no counters is a bare ownership mark
// and makes no cell: a node's superseded mark must not come out as a row.
// Cluster.Heat, the ctl.heat harvest and bmxstat's multi-file mode share
// this rule. Output is Snapshot-sorted.
func Merge(parts ...[]Row) []Row {
	type cellKey struct {
		oid  uint64
		node int32
	}
	type ownerOf struct {
		node int32
		tick uint64
	}
	cells := make(map[cellKey]*Row)
	owners := make(map[uint64]ownerOf)
	for _, rows := range parts {
		for _, r := range rows {
			if r.Owner != nil {
				if o, ok := owners[r.OID]; !ok || r.OwnerTick >= o.tick {
					owners[r.OID] = ownerOf{node: *r.Owner, tick: r.OwnerTick}
				}
			}
			if r.Reads|r.Writes|r.Acquires|r.Remote|r.Hops == 0 {
				continue
			}
			k := cellKey{oid: r.OID, node: r.Node}
			c, ok := cells[k]
			if !ok {
				c = &Row{OID: r.OID, Node: r.Node}
				cells[k] = c
			}
			if c.Bunch == 0 {
				c.Bunch = r.Bunch
			}
			c.Reads += r.Reads
			c.Writes += r.Writes
			c.Acquires += r.Acquires
			c.Remote += r.Remote
			c.Hops += r.Hops
		}
	}
	out := make([]Row, 0, len(cells))
	for _, c := range cells {
		r := *c
		if o, ok := owners[r.OID]; ok {
			r.mark(o.node, o.tick)
		}
		out = append(out, r)
	}
	// The winning mark of an object its owner never accessed is a bare row.
	for oid, o := range owners {
		if _, ok := cells[cellKey{oid: oid, node: o.node}]; !ok {
			out = append(out, bareRow(addr.OID(oid), o.node, o.tick))
		}
	}
	sortRows(out)
	return out
}
