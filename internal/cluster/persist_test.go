package cluster

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"bmx/internal/addr"
	"bmx/internal/mem"
)

// Robustness tests for the persistence layer beyond the E9 experiment.

func TestRecoverWithoutCheckpointFails(t *testing.T) {
	cl := New(Config{Nodes: 1, SegWords: 64, WithDisk: true})
	n := cl.Node(0)
	b := n.NewBunch()
	o := n.MustAlloc(b, 1)
	n.AddRoot(o)
	// No checkpoint ever taken: after a crash, nothing recovers — but
	// recovery itself must not corrupt state or panic.
	if err := n.Crash(b); err != nil {
		t.Fatal(err)
	}
	if err := n.RecoverBunch(b); err != nil {
		t.Fatal(err)
	}
	if _, err := n.ReadWord(o, 0); err == nil {
		t.Fatal("unpersisted object readable after crash")
	}
}

func TestRecoveryIsIdempotent(t *testing.T) {
	cl := New(Config{Nodes: 1, SegWords: 64, WithDisk: true})
	n := cl.Node(0)
	b := n.NewBunch()
	o := n.MustAlloc(b, 1)
	n.AddRoot(o)
	n.WriteWord(o, 0, 7)
	if err := n.Checkpoint(b); err != nil {
		t.Fatal(err)
	}
	n.Crash(b)
	for i := 0; i < 3; i++ {
		if err := n.RecoverBunch(b); err != nil {
			t.Fatalf("recovery %d: %v", i, err)
		}
	}
	if v, _ := n.ReadWord(o, 0); v != 7 {
		t.Fatalf("value after triple recovery = %d", v)
	}
	if bad := cl.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("invariants after recovery: %v", bad)
	}
}

func TestCheckpointRemovesReclaimedSegmentFiles(t *testing.T) {
	cl := New(Config{Nodes: 1, SegWords: 64, WithDisk: true})
	n := cl.Node(0)
	b := n.NewBunch()
	live := n.MustAlloc(b, 2)
	n.AddRoot(live)
	for i := 0; i < 6; i++ {
		n.MustAlloc(b, 8) // garbage filling several segments
	}
	if err := n.Checkpoint(b); err != nil {
		t.Fatal(err)
	}

	// Collect and run the §4.5 reuse protocol; after the next checkpoint
	// no backing file of the bunch may describe a segment the bunch no
	// longer has (persistence by reachability: reclaimed space leaves the
	// disk too — unless the range was already recycled to a new tenant).
	freed := n.Collector().FromSpaceSegments(b)
	if st := n.CollectBunch(b); st.Dead == 0 {
		t.Fatal("no garbage collected")
	}
	cl.Run(0)
	freed = append(freed, n.Collector().FromSpaceSegments(b)...)
	n.ReclaimFromSpace(b)
	if err := n.Checkpoint(b); err != nil {
		t.Fatal(err)
	}
	current := map[string]bool{}
	for _, meta := range cl.Directory().Segments(b) {
		current[rvmImageName(meta.ID)] = true
	}
	for _, f := range n.Disk().Files() {
		if !strings.HasPrefix(f, "segimg-") || current[f] {
			continue
		}
		// A non-current file must not claim to belong to bunch b.
		img, ok := rvmReadImage(n, f)
		if ok && img == uint32(b) {
			t.Fatalf("stale backing file %s still claims bunch %v", f, b)
		}
	}
	_ = freed
	// And the surviving data still recovers.
	n.WriteWord(live, 0, 5)
	n.Sync()
	n.Crash(b)
	if err := n.RecoverBunch(b); err != nil {
		t.Fatal(err)
	}
	if v, _ := n.ReadWord(live, 0); v != 5 {
		t.Fatalf("recovered = %d", v)
	}
}

func rvmImageName(id addr.SegID) string { return fmt.Sprintf("segimg-%d", uint32(id)) }

// rvmReadImage returns the bunch id recorded in a segment image file.
func rvmReadImage(n *Node, name string) (uint32, bool) {
	data, ok := n.Disk().Read(name)
	if !ok || len(data) < 12 {
		return 0, false
	}
	return binary.LittleEndian.Uint32(data[4:8]), true
}

func TestPersistenceAPIsRequireDisk(t *testing.T) {
	cl := New(Config{Nodes: 1, SegWords: 64})
	n := cl.Node(0)
	b := n.NewBunch()
	if err := n.Checkpoint(b); err == nil {
		t.Fatal("checkpoint without a disk must fail")
	}
	if err := n.Crash(b); err == nil {
		t.Fatal("crash without a disk must fail")
	}
	if err := n.RecoverBunch(b); err == nil {
		t.Fatal("recovery without a disk must fail")
	}
	n.Sync() // must be a harmless no-op
}

func TestCrashDiscardsOpenTransaction(t *testing.T) {
	cl := New(Config{Nodes: 1, SegWords: 64, WithDisk: true})
	n := cl.Node(0)
	b := n.NewBunch()
	o := n.MustAlloc(b, 1)
	n.AddRoot(o)
	n.WriteWord(o, 0, 1)
	if err := n.Checkpoint(b); err != nil {
		t.Fatal(err)
	}
	// Mutations batched but never synced: the open RVM transaction dies
	// with the crash.
	n.WriteWord(o, 0, 2)
	n.Crash(b)
	if err := n.RecoverBunch(b); err != nil {
		t.Fatal(err)
	}
	if v, _ := n.ReadWord(o, 0); v != 1 {
		t.Fatalf("recovered = %d, want checkpointed 1", v)
	}
}

func TestCheckpointMultipleBunches(t *testing.T) {
	cl := New(Config{Nodes: 1, SegWords: 64, WithDisk: true})
	n := cl.Node(0)
	b1 := n.NewBunch()
	b2 := n.NewBunch()
	o1 := n.MustAlloc(b1, 1)
	o2 := n.MustAlloc(b2, 1)
	n.AddRoot(o1)
	n.AddRoot(o2)
	n.WriteWord(o1, 0, 11)
	n.WriteWord(o2, 0, 22)
	if err := n.Checkpoint(b1); err != nil {
		t.Fatal(err)
	}
	if err := n.Checkpoint(b2); err != nil {
		t.Fatal(err)
	}
	n.Crash(b1)
	n.Crash(b2)
	if err := n.RecoverBunch(b1); err != nil {
		t.Fatal(err)
	}
	if err := n.RecoverBunch(b2); err != nil {
		t.Fatal(err)
	}
	if v, _ := n.ReadWord(o1, 0); v != 11 {
		t.Fatalf("b1 value = %d", v)
	}
	if v, _ := n.ReadWord(o2, 0); v != 22 {
		t.Fatalf("b2 value = %d", v)
	}
}

// TestFlipLogsOneRecordPerCopiedObject pins the flip barrier's log volume:
// a copied object is one range record carrying its words and their
// reference-map mask, not a range plus a record per field. So a flip that
// copies N four-field objects adds at most N such records plus the commit
// markers to rvm.log.bytes.
func TestFlipLogsOneRecordPerCopiedObject(t *testing.T) {
	const objects, fields = 20, 4
	cl := New(Config{Nodes: 1, SegWords: 256, WithDisk: true})
	n := cl.Node(0)
	b := n.NewBunch()
	var prev Ref
	for i := 0; i < objects; i++ {
		r := n.MustAlloc(b, fields)
		n.AddRoot(r)
		if !prev.IsNil() {
			if err := n.WriteRef(r, 0, prev); err != nil {
				t.Fatal(err)
			}
		}
		prev = r
	}
	n.Sync()
	stats := cl.Stats()
	bytes0, commits0 := stats.Get("rvm.log.bytes"), stats.Get("rvm.log.commits")
	if st := n.CollectBunch(b); st.Copied != objects {
		t.Fatalf("collection copied %d objects, want %d", st.Copied, objects)
	}
	const record = 9 + 16 + 8*(mem.HeaderWords+fields) + 8 // tag+tx, seg/gen/off/n, words, one mask word
	bytes, commits := stats.Get("rvm.log.bytes")-bytes0, stats.Get("rvm.log.commits")-commits0
	if limit := objects*record + 9*commits; bytes > limit {
		t.Fatalf("flip copying %d %d-field objects logged %d bytes, want at most %d (%d commits)",
			objects, fields, bytes, limit, commits)
	}
}
