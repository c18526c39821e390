package cluster

import (
	"strings"
	"testing"

	"bmx/internal/transport"
)

// TestCachedOpsAllocateNothing pins the entry-consistency fast path (§2.2):
// an acquire of a token the node already caches, a word access and the
// release are purely local, and the brackets around them — node lock,
// object stripe, critical-path marker, counters — allocate nothing. Covered
// for the owner's write token and for a read token cached at a replica.
func TestCachedOpsAllocateNothing(t *testing.T) {
	cl := New(Config{Nodes: 2, SegWords: 64})
	owner, reader := cl.Node(0), cl.Node(1)
	b := owner.NewBunch()
	o := owner.MustAlloc(b, 4)
	owner.AddRoot(o)
	if err := reader.MapBunch(b); err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	write := func() {
		must(owner.AcquireWrite(o))
		must(owner.WriteWord(o, 1, 7))
		owner.Release(o)
	}
	read := func() {
		must(reader.AcquireRead(o))
		_, err := reader.ReadWord(o, 1)
		must(err)
		reader.Release(o)
	}
	// Warm up: the reader's first acquire is remote, and the counters
	// register their names on first use.
	write()
	read()
	if got := testing.AllocsPerRun(200, read); got != 0 {
		t.Errorf("cached AcquireRead+ReadWord+Release: %v allocs/op, want 0", got)
	}
	// The owner's upgrade pulls the reader's token once; after that the
	// write token stays cached at the owner.
	write()
	if got := testing.AllocsPerRun(200, write); got != 0 {
		t.Errorf("cached AcquireWrite+WriteWord+Release: %v allocs/op, want 0", got)
	}
}

// TestCallWithoutNodeLockPanics pins the ownership tripwire: a call through
// a node's transport must come from the holder of that node's lock, because
// the wrapper releases the lock for the exchange. Without the lock held the
// wrapper panics instead of unlocking a lock someone else may hold, and the
// lock is left as it was.
func TestCallWithoutNodeLockPanics(t *testing.T) {
	cl := New(Config{Nodes: 2})
	n := cl.Node(0)
	msg := transport.Msg{From: 0, To: 1, Kind: "cl.noSuchKind", Class: transport.ClassApp}

	// Held: the call goes through (the callee rejects the kind) and the
	// lock is held again on return.
	n.mu.Lock()
	if _, err := n.tr.Call(msg); err == nil {
		t.Fatal("unknown call kind accepted")
	}
	if n.mu.TryLock() {
		t.Fatal("node lock not re-taken after the call")
	}
	n.mu.Unlock()

	defer func() {
		r := recover()
		s, _ := r.(string)
		if !strings.HasPrefix(s, tripwireMsg) {
			t.Fatalf("recovered %v, want the tripwire's panic", r)
		}
		if !n.mu.TryLock() {
			t.Fatal("tripwire left the node lock held")
		}
		n.mu.Unlock()
	}()
	n.tr.Call(msg)
	t.Fatal("call without the node lock did not panic")
}
