package dsm

import (
	"fmt"
	"math/rand"
	"testing"

	"bmx/internal/addr"
	"bmx/internal/simnet"
	"bmx/internal/transport"
)

// buildCopySetEnv builds the deterministic location-update scenario: N1
// holds distributed copy-sets {N2, N3} for two objects that both reference
// a third, the owner N0 moves that third object, and N1's re-acquires push
// the new address down both copy-sets at acquire exit.
func buildCopySetEnv(t *testing.T) *fakeEnv {
	t.Helper()
	env := newFakeEnv(t, 4)
	env.newObj(1, 1, 0)
	env.newObj(2, 1, 0)
	env.newObj(3, 1, 0)
	env.refs[1] = []addr.OID{3}
	env.refs[2] = []addr.OID{3}
	// N1 reads both objects from the owner; N2 and N3 read from N1, so
	// N1's copy-set for each object is {N2, N3}.
	env.nodes[1].Acquire(1, ModeRead, simnet.ClassApp)
	env.nodes[1].Acquire(2, ModeRead, simnet.ClassApp)
	for _, id := range []addr.NodeID{2, 3} {
		env.nodes[id].Learn(1, 1, 1)
		env.nodes[id].Learn(2, 1, 1)
		env.nodes[id].Acquire(1, ModeRead, simnet.ClassApp)
		env.nodes[id].Acquire(2, ModeRead, simnet.ClassApp)
	}
	// The owner moves O3 (a BGC move); N1 re-acquires O1 and O2, receives
	// the O3 manifest in each grant, and must push it down both copy-sets.
	env.hooks[0].addrs[3] = 0x9999
	env.nodes[1].objs[1].Mode = ModeInvalid
	env.nodes[1].objs[2].Mode = ModeInvalid
	env.nodes[1].Acquire(1, ModeRead, simnet.ClassApp)
	env.nodes[1].Acquire(2, ModeRead, simnet.ClassApp)
	env.net.Run(0)
	if env.net.Stats().Get("dsm.locBatch.sent") == 0 {
		t.Fatal("acquire exit flushed no batches; the scenario lost its teeth")
	}
	return env
}

// sendLocEntries delivers entries from N0 to N1 — as one batch, or as one
// single-entry batch per entry in the same order — and drains the fan-out.
func sendLocEntries(env *fakeEnv, entries []LocMsg, oneBatch bool) {
	batches := [][]LocMsg{entries}
	if !oneBatch {
		batches = nil
		for _, e := range entries {
			batches = append(batches, []LocMsg{e})
		}
	}
	for _, b := range batches {
		env.net.Send(transport.Msg{
			From: 0, To: 1, Kind: KindLocBatch, Class: simnet.ClassApp,
			Payload: LocBatchMsg{From: 0, Entries: b},
			Bytes:   8,
		})
	}
	env.net.Run(0)
}

// TestCoalescedLocUpdatesEquivalent pins the batching contract against the
// handler itself: one k-entry batch leaves the final owner/mode/ownerPtr/
// copy-set/entering state — and the applied addresses — byte-identical to
// k single-entry batches delivered in the same order, while sending
// strictly fewer messages. The two entries move O3 to different addresses,
// so the comparison also pins that entries apply in queue order.
func TestCoalescedLocUpdatesEquivalent(t *testing.T) {
	entries := func(env *fakeEnv) []LocMsg {
		first := Manifest{OID: 3, Addr: 0xABCD, Size: env.sizeOf[3], Bunch: 1}
		last := first
		last.Addr = 0xBEEF
		return []LocMsg{
			{O: 1, From: 0, Manifests: []Manifest{first}},
			{O: 2, From: 0, Manifests: []Manifest{last}},
		}
	}
	split := buildCopySetEnv(t)
	sendLocEntries(split, entries(split), false)
	batched := buildCopySetEnv(t)
	sendLocEntries(batched, entries(batched), true)

	// The batch re-forwards merged per destination across objects: one
	// message each to N2 and N3, not one per entry.
	sm, bm := split.net.Stats().Get("msg.sent.app"), batched.net.Stats().Get("msg.sent.app")
	if bm >= sm {
		t.Fatalf("one batch sent %d messages, single-entry batches %d; batching must save messages", bm, sm)
	}

	for i := 0; i < 4; i++ {
		id := addr.NodeID(i)
		p, c := split.nodes[id], batched.nodes[id]
		for o := addr.OID(1); o <= 3; o++ {
			if p.IsOwner(o) != c.IsOwner(o) || p.ModeOf(o) != c.ModeOf(o) ||
				p.OwnerPtrOf(o) != c.OwnerPtrOf(o) {
				t.Fatalf("N%d %v: owner/mode/ptr diverged: split (%v %v %v) batched (%v %v %v)",
					i+1, o, p.IsOwner(o), p.ModeOf(o), p.OwnerPtrOf(o),
					c.IsOwner(o), c.ModeOf(o), c.OwnerPtrOf(o))
			}
			if fmt.Sprint(p.CopySetOf(o)) != fmt.Sprint(c.CopySetOf(o)) {
				t.Fatalf("N%d %v copy-set diverged: %v vs %v", i+1, o, p.CopySetOf(o), c.CopySetOf(o))
			}
			if fmt.Sprint(p.EnteringOf(o)) != fmt.Sprint(c.EnteringOf(o)) {
				t.Fatalf("N%d %v entering diverged: %v vs %v", i+1, o, p.EnteringOf(o), c.EnteringOf(o))
			}
			if split.hooks[id].addrs[o] != batched.hooks[id].addrs[o] {
				t.Fatalf("N%d %v address diverged: %#x vs %#x",
					i+1, o, split.hooks[id].addrs[o], batched.hooks[id].addrs[o])
			}
		}
		// Invariant 2 reached the leaves, last entry last.
		if i >= 1 && batched.hooks[id].addrs[3] != 0xBEEF {
			t.Fatalf("N%d: O3 address = %#x, want the last entry's update applied", i+1, batched.hooks[id].addrs[3])
		}
	}
}

// TestCoalescedRandomSoakInvariants re-runs the token-conservation property
// soak over objects that reference each other, so grants carry manifests
// and location updates flow down the copy-sets: whatever the schedule,
// batching must never break single-owner / single-writer /
// writer-excludes-readers.
func TestCoalescedRandomSoakInvariants(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		env := newFakeEnv(t, 4)
		env.newObj(1, 1, 0)
		env.newObj(2, 1, 1)
		env.refs[1] = []addr.OID{2}
		rng := rand.New(rand.NewSource(seed))
		for step := 0; step < 150; step++ {
			node := env.nodes[addr.NodeID(rng.Intn(4))]
			o := addr.OID(1 + rng.Intn(2))
			mode := ModeRead
			if rng.Intn(2) == 0 {
				mode = ModeWrite
			}
			if err := node.Acquire(o, mode, simnet.ClassApp); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			env.net.Run(0)
			checkTokenInvariants(t, env, o, fmt.Sprintf("coalesced seed %d step %d", seed, step))
		}
	}
}

func TestTakeSortedScratchReuse(t *testing.T) {
	env := newFakeEnv(t, 1)
	n := env.nodes[0]
	set := map[addr.NodeID]bool{3: true, 1: true, 2: true}
	buf1, put1 := n.takeSorted(set)
	if len(buf1) != 3 || buf1[0] != 1 || buf1[1] != 2 || buf1[2] != 3 {
		t.Fatalf("sorted = %v", buf1)
	}
	// A nested take (re-entrant handler during an outbound call) must get
	// its own buffer, not clobber the outer iteration.
	buf2, put2 := n.takeSorted(set)
	if &buf1[0] == &buf2[0] {
		t.Fatal("nested takeSorted reused the outer buffer")
	}
	put2()
	put1()
	buf3, put3 := n.takeSorted(set)
	put3()
	if len(buf3) != 3 || buf3[0] != 1 || buf3[2] != 3 {
		t.Fatalf("reused buffer sorted = %v", buf3)
	}
}
