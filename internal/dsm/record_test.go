package dsm

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"bmx/internal/addr"
)

// bruteMembers lists, by a walk of every record, the OIDs of bunch b in
// order: what Members must answer.
func bruteMembers(n *Node, b addr.BunchID) []addr.OID {
	var out []addr.OID
	for o, r := range n.objs {
		if r.bunch == b {
			out = append(out, o)
		}
	}
	slices.Sort(out)
	return out
}

// bruteEnteringRoots is EnteringRoots by a walk of every record.
func bruteEnteringRoots(n *Node, b addr.BunchID) []addr.OID {
	var out []addr.OID
	for _, o := range bruteMembers(n, b) {
		if r := n.objs[o]; r.st.rec == r && len(r.st.Entering) > 0 {
			out = append(out, o)
		}
	}
	return out
}

// bruteNonOwnedLive is NonOwnedLive by a walk of every record.
func bruteNonOwnedLive(n *Node, b addr.BunchID) map[addr.OID]addr.NodeID {
	out := make(map[addr.OID]addr.NodeID)
	for o, r := range n.objs {
		if st := &r.st; st.rec == r && r.bunch == b && !st.Owner && !st.RoutingOnly && st.OwnerPtr != addr.NoNode {
			out[o] = st.OwnerPtr
		}
	}
	return out
}

// bruteRemovable counts what RemoveEnteringUpTo(b, from, gen, keep) must
// remove, by a walk of every record.
func bruteRemovable(n *Node, b addr.BunchID, from addr.NodeID, gen uint64, keep map[addr.OID]bool) int {
	count := 0
	for o, r := range n.objs {
		if r.st.rec != r || r.bunch != b || keep[o] {
			continue
		}
		if i, ok := r.st.findEntering(from); ok && r.st.Entering[i].Gen <= gen {
			count++
		}
	}
	return count
}

// TestRecordIndexesMatchBruteForce drives one node through seeded random
// sequences of every operation that creates, changes or frees a record or
// an entering entry, and after each one checks the member lists, the
// entering index and every answer built on them against a walk of the
// records.
func TestRecordIndexesMatchBruteForce(t *testing.T) {
	const objects, bunches = 40, 3
	bunchOf := func(o addr.OID) addr.BunchID { return addr.BunchID(1 + int(o)%bunches) }
	for seed := int64(1); seed <= 20; seed++ {
		env := newFakeEnv(t, 4)
		for o := addr.OID(1); o <= objects; o++ {
			env.bunch[o] = bunchOf(o)
			env.hint[o] = 1
			env.sizeOf[o] = 1
		}
		n := env.nodes[0]
		rng := rand.New(rand.NewSource(seed))
		for step := 0; step < 400; step++ {
			o := addr.OID(1 + rng.Intn(objects))
			b := bunchOf(o)
			from := addr.NodeID(1 + rng.Intn(3))
			gen := uint64(rng.Intn(6))
			var op string
			switch k := rng.Intn(14); k {
			case 0:
				op = "RegisterNew"
				n.RegisterNew(o, b)
			case 1:
				op = "Learn"
				n.Learn(o, b, from)
			case 2:
				op = "AddEntering"
				n.AddEntering(o, from, gen)
			case 3:
				op = "grantRead"
				n.grantRead(acquireReq{O: o, Mode: ModeRead, Requester: from, RequesterGen: gen}, n.state(o))
			case 4:
				op = "grantWrite"
				if st := n.state(o); st.Owner {
					if _, err := n.grantAsOwner(acquireReq{O: o, Mode: ModeWrite, Requester: from, RequesterGen: gen}, st); err != nil {
						t.Fatal(err)
					}
				}
			case 5:
				op = "SetEnteringDerivative"
				n.SetEnteringDerivative(o, from, rng.Intn(2) == 0)
			case 6:
				op = "Forget"
				n.Forget(o)
			case 7:
				op = "DemoteToRouting"
				n.DemoteToRouting(o)
			case 8:
				op = "ForgetBunch"
				n.ForgetBunch(b)
			case 9:
				op = "RemoveEnteringUpTo"
				keep := map[addr.OID]bool{o: true}
				want := bruteRemovable(n, b, from, gen, keep)
				if got := n.RemoveEnteringUpTo(b, from, gen, keep); got != want {
					t.Fatalf("seed %d step %d: RemoveEnteringUpTo(%v, %v, %d) removed %d, records say %d",
						seed, step, b, from, gen, got, want)
				}
			case 10:
				op = "SetCanonical"
				n.SetCanonical(o, b, addr.Addr(0x1000+8*uint64(o)))
			case 11:
				op = "DropCanonical"
				n.DropCanonical(o)
			case 12:
				op = "AddRoot"
				n.AddRoot(o)
			case 13:
				op = "RemoveRoot"
				n.RemoveRoot(o)
			}
			ctx := fmt.Sprintf("seed %d step %d after %s(%v)", seed, step, op, o)
			if bad := n.AuditIndexes(); len(bad) > 0 {
				t.Fatalf("%s: %v", ctx, bad)
			}
			for b := addr.BunchID(1); b <= bunches; b++ {
				var got []addr.OID
				for _, r := range n.Members(b) {
					got = append(got, r.OID())
				}
				if want := bruteMembers(n, b); !slices.Equal(got, want) {
					t.Fatalf("%s: Members(%v) = %v, records say %v", ctx, b, got, want)
				}
				if got, want := n.EnteringRoots(b), bruteEnteringRoots(n, b); !slices.Equal(got, want) {
					t.Fatalf("%s: EnteringRoots(%v) = %v, records say %v", ctx, b, got, want)
				}
				if got, want := n.NonOwnedLive(b), bruteNonOwnedLive(n, b); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: NonOwnedLive(%v) = %v, records say %v", ctx, b, got, want)
				}
			}
		}
	}
}

// TestCanonicalDropFreesRecord pins a record's lifetime: it outlives its
// canonical address while it holds state or a root, is freed with the
// last of them, and its location epoch survives the freeing.
func TestCanonicalDropFreesRecord(t *testing.T) {
	env := newFakeEnv(t, 1)
	env.bunch[1], env.bunch[2] = 1, 1
	n := env.nodes[0]
	n.SetCanonical(1, 1, 0x1000)
	n.SetCanonical(2, 1, 0x2000)
	n.Record(1).BumpEpoch()
	n.AddRoot(1)
	var seen []addr.OID
	n.ForEachCanonical(func(o addr.OID, _ addr.Addr) { seen = append(seen, o) })
	if slices.Sort(seen); !slices.Equal(seen, []addr.OID{1, 2}) {
		t.Fatalf("ForEachCanonical saw %v", seen)
	}
	n.DropCanonical(1)
	if _, ok := n.Canonical(1); ok || n.Record(1) == nil {
		t.Fatal("a rooted record must outlive its canonical address")
	}
	n.RemoveRoot(1)
	if n.Record(1) != nil || n.Epoch(1) != 1 {
		t.Fatalf("record %v, epoch %d: want freed with epoch 1 retired", n.Record(1), n.Epoch(1))
	}
	n.Learn(1, 1, 0)
	if got := n.Record(1).Epoch(); got != 1 {
		t.Fatalf("a new record starts at epoch %d, want the retired 1", got)
	}
	if bad := n.AuditIndexes(); len(bad) > 0 {
		t.Fatal(bad)
	}
}

// TestForgottenStateStaysDetached pins what a protocol step that released
// the node lock sees when a re-entrant handler forgot the object meanwhile:
// the state it holds is detached, so its writes reach neither the record
// nor the entering index, even after the object is known again.
func TestForgottenStateStaysDetached(t *testing.T) {
	env := newFakeEnv(t, 2)
	env.bunch[1] = 1
	n := env.nodes[0]
	n.SetCanonical(1, 1, 0x1000)
	st := n.state(1)
	n.Forget(1)
	n.Learn(1, 1, 1)
	st.Owner = true
	n.setEntering(st, 1, 3)
	if n.IsOwner(1) || len(n.EnteringOf(1)) != 0 {
		t.Fatal("a forgotten state's writes reached the fresh one")
	}
	if a, ok := n.Canonical(1); !ok || a != 0x1000 {
		t.Fatalf("the canonical address did not survive the forget: %v %v", a, ok)
	}
	if bad := n.AuditIndexes(); len(bad) > 0 {
		t.Fatal(bad)
	}
}

// TestDetachKeepsMark pins the collector's mark across a record's
// replacement: a forget that leaves the object an address hands the mark
// to the record that takes over, and a record created after the object was
// freed starts unmarked.
func TestDetachKeepsMark(t *testing.T) {
	env := newFakeEnv(t, 2)
	env.bunch[1] = 1
	n := env.nodes[0]
	n.SetCanonical(1, 1, 0x1000)
	n.Learn(1, 1, 1)
	old := n.Record(1)
	old.SetMark(7<<2 | 2)
	n.Forget(1)
	r := n.Record(1)
	if r == old || r.Known() {
		t.Fatal("Forget must detach the state into a fresh record")
	}
	if got := r.Mark(); got != 7<<2|2 {
		t.Fatalf("the fresh record's mark = %#x, want the detached one's %#x", got, 7<<2|2)
	}
	n.DropCanonical(1)
	if n.Record(1) != nil {
		t.Fatal("a record holding nothing must be freed")
	}
	if got := n.SetCanonical(1, 1, 0x2000).Mark(); got != 0 {
		t.Fatalf("a record created after the free has mark %#x, want 0", got)
	}
	n.Record(1).SetMark(3)
	n.ClearMarks()
	if got := n.Record(1).Mark(); got != 0 {
		t.Fatalf("ClearMarks left mark %#x", got)
	}
}

// TestRecordSize pins a record's size on a 64-bit platform: the mark sits
// in the padding after freed, and every node keeps a record per object it
// holds.
func TestRecordSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pinned size is a 64-bit platform's")
	}
	if got := unsafe.Sizeof(Record{}); got != 120 {
		t.Fatalf("unsafe.Sizeof(Record{}) = %d, want 120", got)
	}
}
