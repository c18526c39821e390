package heat

import (
	"reflect"
	"sync"
	"testing"

	"bmx/internal/addr"
)

// table builds node's enabled heat table on a Lamport clock the test
// controls.
func table(node addr.NodeID) (*Table, *uint64) {
	tick := new(uint64)
	tb := New(node, func() uint64 { return *tick })
	tb.Enable()
	return tb, tick
}

func TestDisabledPathIsNoOp(t *testing.T) {
	tb := New(1, func() uint64 { return 0 }) // never enabled
	tb.NoteRead(10, 1)
	tb.NoteWrite(10, 1)
	tb.NoteAcquire(10, 1, true, 3)
	tb.NoteOwner(10)
	if len(tb.cells) != 0 || len(tb.owners) != 0 || len(tb.Snapshot()) != 0 {
		t.Fatalf("disabled table accumulated state: %d cells, %d marks", len(tb.cells), len(tb.owners))
	}
}

func TestCountersAccumulate(t *testing.T) {
	tb, tick := table(1)
	*tick = 7
	tb.NoteRead(10, 2)
	tb.NoteRead(10, 2)
	tb.NoteWrite(10, 2)
	tb.NoteAcquire(10, 2, false, 0)
	tb.NoteAcquire(10, 2, true, 3)
	tb.NoteOwner(10)
	rows := tb.Snapshot()
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	r := rows[0]
	if r.OID != 10 || r.Node != 1 || r.Bunch != 2 {
		t.Fatalf("row identity wrong: %+v", r)
	}
	if r.Reads != 2 || r.Writes != 1 || r.Acquires != 2 || r.Remote != 1 || r.Hops != 3 {
		t.Fatalf("counters wrong: %+v", r)
	}
	if r.Owner == nil || *r.Owner != 1 || r.OwnerTick != 7 {
		t.Fatalf("owner mark wrong: %+v", r)
	}
}

func TestSnapshotSortedAndDeterministic(t *testing.T) {
	// Three nodes note in scrambled order; each snapshot, and the merge of
	// all three, must come out (OID, node)-sorted and byte-identical across
	// calls.
	tables := map[addr.NodeID]*Table{}
	var ticks []*uint64
	for _, n := range []addr.NodeID{0, 1, 2} {
		tb, tick := table(n)
		tables[n] = tb
		ticks = append(ticks, tick)
	}
	for _, c := range []struct {
		node addr.NodeID
		oid  addr.OID
	}{{2, 30}, {0, 11}, {1, 30}, {2, 11}, {0, 30}} {
		tables[c.node].NoteWrite(c.oid, 1)
	}
	*ticks[2] = 5
	tables[2].NoteOwner(30)
	merged := func() []Row {
		return Merge(tables[0].Snapshot(), tables[1].Snapshot(), tables[2].Snapshot())
	}
	if a, b := merged(), merged(); !reflect.DeepEqual(a, b) {
		t.Fatalf("two merges of one set of tables differ:\n%+v\nvs\n%+v", a, b)
	}
	for _, rows := range [][]Row{tables[0].Snapshot(), tables[2].Snapshot(), merged()} {
		for i := 1; i < len(rows); i++ {
			p, q := rows[i-1], rows[i]
			if p.OID > q.OID || (p.OID == q.OID && p.Node >= q.Node) {
				t.Fatalf("rows not sorted at %d: %+v then %+v", i, p, q)
			}
		}
	}
	if rows := merged(); len(rows) != 5 {
		t.Fatalf("merged %d rows, want one per (object, node) cell, 5", len(rows))
	}
}

func TestOwnerOnlyMarkSurvivesSnapshot(t *testing.T) {
	tb, tick := table(3)
	*tick = 9
	tb.NoteOwner(42) // no cell for (42, 3)
	rows := tb.Snapshot()
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want the bare owner row", len(rows))
	}
	r := rows[0]
	if r.OID != 42 || r.Owner == nil || *r.Owner != 3 || r.OwnerTick != 9 {
		t.Fatalf("bare owner row wrong: %+v", r)
	}
}

func TestMergeSumsCellsAndResolvesOwnerByTick(t *testing.T) {
	own := func(n int32) *int32 { return &n }
	partA := []Row{
		{OID: 10, Bunch: 1, Node: 0, Writes: 4, Acquires: 2, Remote: 1, Hops: 2,
			Owner: own(0), OwnerTick: 5},
	}
	partB := []Row{
		{OID: 10, Bunch: 1, Node: 0, Writes: 1},
		{OID: 10, Bunch: 1, Node: 1, Writes: 7, Acquires: 3, Remote: 3, Hops: 4,
			Owner: own(1), OwnerTick: 9},
	}
	merged := Merge(partA, partB)
	if len(merged) != 2 {
		t.Fatalf("got %d rows, want 2: %+v", len(merged), merged)
	}
	n0, n1 := merged[0], merged[1]
	if n0.Writes != 5 {
		t.Fatalf("cell (10,0) writes = %d, want summed 5", n0.Writes)
	}
	// Both rows must carry the tick-9 owner: node 1 won.
	for _, r := range merged {
		if r.Owner == nil || *r.Owner != 1 || r.OwnerTick != 9 {
			t.Fatalf("owner not resolved to the highest tick: %+v", r)
		}
	}
	if n1.Hops != 4 || n1.Remote != 3 {
		t.Fatalf("cell (10,1) wrong: %+v", n1)
	}

	// Equal ticks: the later-merged mark wins (>=).
	tie := Merge(
		[]Row{{OID: 7, Node: 0, Owner: own(0), OwnerTick: 5}},
		[]Row{{OID: 7, Node: 1, Owner: own(1), OwnerTick: 5}},
	)
	for _, r := range tie {
		if *r.Owner != 1 {
			t.Fatalf("tie not broken toward the later mark: %+v", r)
		}
	}
}

// TestMergeDropsSupersededOwnerMark pins that a bare ownership mark makes
// no cell: node 0's mark for O7, superseded by node 1's later one, must not
// come out as an all-zero (O7, N0) row. One table holding both notes
// emits one row, so the merge of per-node tables must too.
func TestMergeDropsSupersededOwnerMark(t *testing.T) {
	own := func(n int32) *int32 { return &n }
	merged := Merge(
		[]Row{{OID: 7, Node: 0, Owner: own(0), OwnerTick: 5}},
		[]Row{{OID: 7, Bunch: 1, Node: 1, Reads: 1, Owner: own(1), OwnerTick: 9}},
	)
	if len(merged) != 1 {
		t.Fatalf("got %d rows, want the one (O7, N1) cell: %+v", len(merged), merged)
	}
	if r := merged[0]; r.Node != 1 || r.Reads != 1 || r.Owner == nil || *r.Owner != 1 || r.OwnerTick != 9 {
		t.Fatalf("merged row wrong: %+v", r)
	}
}

func TestAnalyzeFindsOwnerMismatch(t *testing.T) {
	own := func(n int32) *int32 { return &n }
	rows := []Row{
		// Object 10: node 0 wrote most, node 1 owns it — the mismatch.
		{OID: 10, Bunch: 1, Node: 0, Writes: 9, Acquires: 9, Remote: 6, Hops: 11, Owner: own(1), OwnerTick: 8},
		{OID: 10, Bunch: 1, Node: 1, Writes: 2, Acquires: 2, Owner: own(1), OwnerTick: 8},
		// Object 20: owned by its dominant writer — no advice.
		{OID: 20, Bunch: 1, Node: 0, Writes: 5, Acquires: 5, Owner: own(0), OwnerTick: 3},
		// Object 30: reads only, never written — no dominant writer.
		{OID: 30, Bunch: 1, Node: 2, Reads: 4, Owner: own(2), OwnerTick: 2},
	}
	rep := Analyze(rows)
	if rep.TrackedObjects != 3 {
		t.Fatalf("tracked %d objects, want 3", rep.TrackedObjects)
	}
	if rep.TotalAcquires != 16 || rep.RemoteAcquires != 6 {
		t.Fatalf("acquire totals wrong: %+v", rep)
	}
	if got, want := rep.RemoteRatio, 6.0/16.0; got != want {
		t.Fatalf("remote ratio %v, want %v", got, want)
	}
	if len(rep.Mismatches) != 1 {
		t.Fatalf("got %d mismatches, want exactly the O10 one: %+v", len(rep.Mismatches), rep.Mismatches)
	}
	m := rep.Mismatches[0]
	if m.OID != 10 || m.Owner != 1 || m.Dominant != 0 || m.Writes != 9 || m.WastedHops != 11 {
		t.Fatalf("mismatch wrong: %+v", m)
	}
	// Hottest-first object ordering: O10 (11 writes+ reads) leads.
	if rep.Objects[0].OID != 10 {
		t.Fatalf("hottest object is %d, want 10", rep.Objects[0].OID)
	}
	// Per-node slices attached and sorted.
	if len(rep.Objects[0].PerNode) != 2 || rep.Objects[0].PerNode[0].Node != 0 {
		t.Fatalf("per-node slices wrong: %+v", rep.Objects[0].PerNode)
	}
}

func TestAnalyzeRanksMismatchesByWastedHops(t *testing.T) {
	own := func(n int32) *int32 { return &n }
	rows := []Row{
		{OID: 10, Node: 0, Writes: 3, Hops: 2, Owner: own(1), OwnerTick: 1},
		{OID: 20, Node: 0, Writes: 3, Hops: 9, Owner: own(1), OwnerTick: 1},
		{OID: 30, Node: 0, Writes: 3, Hops: 5, Owner: own(1), OwnerTick: 1},
	}
	rep := Analyze(rows)
	if len(rep.Mismatches) != 3 {
		t.Fatalf("got %d mismatches, want 3", len(rep.Mismatches))
	}
	order := [3]uint64{rep.Mismatches[0].OID, rep.Mismatches[1].OID, rep.Mismatches[2].OID}
	if order != [3]uint64{20, 30, 10} {
		t.Fatalf("mismatch ranking %v, want worst hops first [20 30 10]", order)
	}
}

// TestConcurrentNotesUnderRace is the -race hammer for the locking rule:
// a table has no lock, so every note and every snapshot takes its node's
// lock. Two mutator goroutines per node pound that node's table while a
// reader merges snapshots, like Cluster.Heat under /heat. Correctness of
// the totals is asserted; the data-race detector asserts the rest.
func TestConcurrentNotesUnderRace(t *testing.T) {
	const (
		nodes   = 4
		workers = 8
		perG    = 500
	)
	var locks [nodes]sync.Mutex
	var tables [nodes]*Table
	for n := range tables {
		tables[n], _ = table(addr.NodeID(n))
	}
	merged := func() []Row {
		parts := make([][]Row, nodes)
		for n := range tables {
			locks[n].Lock()
			parts[n] = tables[n].Snapshot()
			locks[n].Unlock()
		}
		return Merge(parts...)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			tb := tables[n]
			for i := 0; i < perG; i++ {
				oid := addr.OID(1 + i%17)
				locks[n].Lock()
				tb.NoteWrite(oid, 1)
				tb.NoteRead(oid, 1)
				tb.NoteAcquire(oid, 1, i%3 == 0, i%5)
				if i%50 == 0 {
					tb.NoteOwner(oid)
				}
				locks[n].Unlock()
			}
		}(w % nodes)
	}
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for i := 0; i < 200; i++ {
			_ = merged()
		}
	}()
	wg.Wait()
	snapWG.Wait()

	var writes, reads, acquires uint64
	for _, r := range merged() {
		writes += r.Writes
		reads += r.Reads
		acquires += r.Acquires
	}
	want := uint64(workers * perG)
	if writes != want || reads != want || acquires != want {
		t.Fatalf("lost notes under concurrency: writes=%d reads=%d acquires=%d want %d each",
			writes, reads, acquires, want)
	}
}
