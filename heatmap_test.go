package bmx_test

// Heatmap acceptance tests: the cluster-wide access-locality table driven
// through the public facade. The determinism pin freezes the heat table's
// serialization on simnet — same seed, byte-identical stream — the golden
// pin freezes its content, and the hammer runs the zipf mutators
// concurrently with GC workers under -race.

import (
	"bytes"
	"os"
	"sync"
	"testing"

	"bmx"
	"bmx/internal/obs"
	"bmx/internal/obs/heat"
	"bmx/internal/trace"
)

// driveHeatRun is one fixed-seed simnet run with heat accounting on:
// rotating mutators write a zipf-skewed head and collections run on
// cadence — the bmxd driver in miniature. It returns the nodes' tables
// merged.
func driveHeatRun(t *testing.T, seed int64) []heat.Row {
	t.Helper()
	cl := bmx.New(bmx.Config{Nodes: 3, SegWords: 256, Seed: seed, SendLatency: 1, CallLatency: 1})
	cl.EnableHeat()
	n0 := cl.Node(0)
	b := n0.NewBunch()
	g, err := trace.BuildWeb(n0, b, trace.WebConfig{Objects: 30, OutDegree: 3, Seed: seed, DeadFrac: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Share(g.Objects, cl.Node(1), cl.Node(2)); err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 6; r++ {
		mutator := cl.Node(r % 3)
		if err := trace.MutateZipf(mutator, g, 10, 1.2, seed+int64(r)); err != nil {
			t.Fatal(err)
		}
		if r%2 == 0 {
			for i := 0; i < 3; i++ {
				cl.Node(i).CollectBunch(b)
			}
		}
		cl.Run(0)
	}
	return cl.Heat()
}

// writeRows serializes rows as the heat records of a telemetry stream.
func writeRows(t *testing.T, rows []heat.Row) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteStream(&buf, obs.Stream{Heat: rows}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestHeatTableDeterministicUnderSeed(t *testing.T) {
	a, b := writeRows(t, driveHeatRun(t, 5)), writeRows(t, driveHeatRun(t, 5))
	if len(a) == 0 {
		t.Fatal("heat table is empty after a traced run")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different heat tables:\n%s\nvs\n%s", a, b)
	}
	if bytes.Equal(a, writeRows(t, driveHeatRun(t, 6))) {
		t.Fatal("different seeds produced identical heat tables")
	}
}

// TestHeatRowsMatchGolden is the equality pin of the per-node tables: the
// merged rows of the seed-5 run must equal, byte for byte, the rows the
// cluster produced when every node wrote into one shared table
// (testdata/heat_seed5.ndjson was recorded from that design): counters,
// bunches, owners and owner ticks all match.
func TestHeatRowsMatchGolden(t *testing.T) {
	got := writeRows(t, driveHeatRun(t, 5))
	want, err := os.ReadFile("testdata/heat_seed5.ndjson")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("merged heat rows differ from testdata/heat_seed5.ndjson:\n%s", got)
	}
}

// TestHeatSupersededAllocationMarkIsNoRow pins the merge of per-node
// tables where the seeded run cannot: node 0 allocates an object it never
// touches, so its table holds only an ownership mark, and node 1 then
// takes the write token. One table holding both nodes' notes keeps one
// row, node 1's, and so must the merge: node 0's superseded mark adds no
// empty row.
func TestHeatSupersededAllocationMarkIsNoRow(t *testing.T) {
	cl := bmx.New(bmx.Config{Nodes: 2, SegWords: 64, SendLatency: 1, CallLatency: 1})
	cl.EnableHeat()
	n0, n1 := cl.Node(0), cl.Node(1)
	b := n0.NewBunch()
	o := n0.MustAlloc(b, 2)
	n0.AddRoot(o)
	if err := n1.MapBunch(b); err != nil {
		t.Fatal(err)
	}
	if err := n1.AcquireWrite(o); err != nil {
		t.Fatal(err)
	}
	n1.Release(o)
	rows := cl.Heat()
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want node 1's alone: %+v", len(rows), rows)
	}
	if r := rows[0]; r.Node != 1 || r.Acquires != 1 || r.Owner == nil || *r.Owner != 1 {
		t.Fatalf("row wrong: %+v", r)
	}
}

// TestHeatFindsOwnerMismatchOnRotatingWriters is the simnet acceptance
// shape: rotating mutators leave at least one object owned by a node other
// than its dominant writer, and the analyzer names it with its remote ratio.
func TestHeatFindsOwnerMismatchOnRotatingWriters(t *testing.T) {
	rows := driveHeatRun(t, 5)
	rep := heat.Analyze(rows)
	if rep.TrackedObjects == 0 || rep.TotalAccesses == 0 {
		t.Fatalf("empty locality report: %+v", rep)
	}
	if rep.RemoteAcquires == 0 {
		t.Fatal("rotating mutators produced no remote acquires")
	}
	if len(rep.Mismatches) == 0 {
		t.Fatal("rotating writers left no owner/dominant-writer mismatch")
	}
	m := rep.Mismatches[0]
	if m.Owner == m.Dominant {
		t.Fatalf("mismatch entry does not mismatch: %+v", m)
	}
	t.Logf("heat: %d objects, remote ratio %.2f, top mismatch O%d owner N%d dominant N%d (hops %d)",
		rep.TrackedObjects, rep.RemoteRatio, m.OID, m.Owner, m.Dominant, m.WastedHops)
}

// TestHeatCountersUnderConcurrentMutatorsAndGC is the cluster-level -race
// hammer: per-node mutator goroutines writing disjoint bunches while each
// runs its own collections, heat accounting on, background traffic drained
// concurrently — the parallel driver's shape with the heat table in play.
func TestHeatCountersUnderConcurrentMutatorsAndGC(t *testing.T) {
	const workers = 3
	cl := bmx.New(bmx.Config{Nodes: workers, SegWords: 256, Seed: 9, SendLatency: 1, CallLatency: 1})
	cl.EnableHeat()
	stop := make(chan struct{})
	var drain sync.WaitGroup
	drain.Add(1)
	go func() {
		defer drain.Done()
		for {
			select {
			case <-stop:
				return
			default:
				cl.RunConcurrent(0)
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(n *bmx.Node) {
			defer wg.Done()
			b := n.NewBunch()
			var objs []bmx.Ref
			for i := 0; i < 12; i++ {
				o, err := n.Alloc(b, 2)
				if err != nil {
					t.Error(err)
					return
				}
				n.AddRoot(o)
				objs = append(objs, o)
			}
			for r := 1; r <= 6; r++ {
				for i, o := range objs {
					if err := n.AcquireWrite(o); err != nil {
						t.Error(err)
						return
					}
					if err := n.WriteWord(o, 1, uint64(r*i)); err != nil {
						t.Error(err)
						return
					}
					if _, err := n.ReadWord(o, 1); err != nil {
						t.Error(err)
						return
					}
					n.Release(o)
				}
				if r%2 == 0 {
					n.CollectBunch(b)
				}
			}
		}(cl.Node(w))
	}
	wg.Wait()
	close(stop)
	drain.Wait()
	cl.RunConcurrent(0)

	rows := cl.Heat()
	var writes uint64
	for _, r := range rows {
		writes += r.Writes
	}
	// 3 workers × 6 rounds × 12 objects: no write may be lost.
	if want := uint64(workers * 6 * 12); writes != want {
		t.Fatalf("heat table lost writes under concurrency: %d, want %d", writes, want)
	}
	if errs := cl.CheckInvariants(); len(errs) != 0 {
		t.Fatalf("invariants violated: %v", errs)
	}
}
