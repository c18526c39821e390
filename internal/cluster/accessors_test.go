package cluster

import (
	"testing"

	"bmx/internal/addr"
)

// Sweep over trivial accessors so regressions in them are caught too.
func TestAccessorSweep(t *testing.T) {
	cl := New(Config{Nodes: 2, SegWords: 64, Seed: 1})
	n := cl.Node(0)
	b := n.NewBunch()
	o := n.MustAlloc(b, 1)
	n.AddRoot(o)

	if n.ID() != addr.NodeID(0) {
		t.Fatal("node id")
	}
	if n.DSM() == nil {
		t.Fatal("dsm accessor")
	}
	if a, ok := n.Collector().Heap().Canonical(o.OID); !ok || a.IsNil() {
		t.Fatal("canonical addr accessor")
	}
	if !n.Collector().IsRoot(o.OID) {
		t.Fatal("IsRoot")
	}
	if n.Collector().Heap().Allocator() == nil {
		t.Fatal("heap allocator accessor")
	}
	if cl.Pending() != 0 {
		t.Fatal("pending should be empty")
	}
	// Step drains a single queued message.
	n.CollectBunch(b)
	if cl.Pending() > 0 && !cl.Step() {
		t.Fatal("Step should deliver when messages pend")
	}
	cl.Run(0)
	// A collection with a remote holder queues a location update for it,
	// which a flush then sends.
	n2 := cl.Node(1)
	if err := n2.AcquireRead(o); err != nil {
		t.Fatal(err)
	}
	n.CollectBunch(b)
	flushed := cl.Stats().Get("core.locFlush.msgs")
	n.mu.Lock()
	n.col.FlushLocations()
	n.mu.Unlock()
	if cl.Stats().Get("core.locFlush.msgs") == flushed {
		t.Fatal("no pending location updates after GC with a remote holder")
	}
	cl.Run(0)
}
