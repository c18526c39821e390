package cluster

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"bmx/internal/addr"
	"bmx/internal/transport"
)

// lossy is a fault plan that drops background messages with probability p
// and injects nothing else.
func lossy(p float64) transport.FaultPlan {
	return transport.FaultPlan{Default: transport.FaultRates{Drop: p}}
}

// setLoss changes only the installed plan's default drop rate.
func setLoss(cl *Cluster, p float64) {
	fp := cl.Faults()
	fp.Default.Drop = p
	cl.SetFaultPlan(fp)
}

// sspFingerprint renders every node's stub/scion tables and the residency of
// the tracked objects as one canonical string, so two runs can be compared
// for protocol-state equality.
func sspFingerprint(cl *Cluster, oids []addr.OID) string {
	var sb strings.Builder
	for i := 0; i < cl.Nodes(); i++ {
		col := cl.Node(i).Collector()
		fmt.Fprintf(&sb, "node %d\n", i)
		for _, b := range col.MappedBunches() {
			t := col.Replica(b).Table
			var lines []string
			for k := range t.InterStubs {
				lines = append(lines, fmt.Sprintf("  interStub %v", k))
			}
			for k := range t.IntraStubs {
				lines = append(lines, fmt.Sprintf("  intraStub %v", k))
			}
			for k := range t.InterScions {
				lines = append(lines, fmt.Sprintf("  interScion %v", k))
			}
			for k := range t.IntraScions {
				lines = append(lines, fmt.Sprintf("  intraScion %v", k))
			}
			slices.Sort(lines)
			fmt.Fprintf(&sb, " bunch %v\n%s\n", b, strings.Join(lines, "\n"))
		}
		for _, o := range oids {
			_, ok := cl.Node(i).DSM().Canonical(o)
			fmt.Fprintf(&sb, " resident %v=%v\n", o, ok)
		}
	}
	return sb.String()
}

// dupWorkload drives a deterministic cross-node life cycle — share, cut a
// branch, collect, clean scions, reclaim from-space — and returns the OIDs
// whose fate fingerprints the run.
func dupWorkload(cl *Cluster) []addr.OID {
	n1, n2 := cl.Node(0), cl.Node(1)
	b1, b2 := n1.NewBunch(), n2.NewBunch()
	live := n2.MustAlloc(b2, 1)
	dead := n2.MustAlloc(b2, 1)
	src := n1.MustAlloc(b1, 2)
	n1.AddRoot(src)
	n1.AcquireRead(live)
	n1.AcquireRead(dead)
	n1.WriteRef(src, 0, live)
	n1.WriteRef(src, 1, dead)
	settle(cl, 2)

	n1.AcquireWrite(src)
	n1.WriteRef(src, 1, Nil)
	settle(cl, 3)

	// Exercise §4.5 reuse so address-change traffic runs too.
	n2.CollectBunch(b2)
	n2.ReclaimFromSpace(b2)
	cl.Run(0)
	settle(cl, 2)
	return []addr.OID{src.OID, live.OID, dead.OID}
}

// TestDupDeliveryIdempotent is the §6.1 idempotency property: delivering
// every background GC message twice — the transport re-enqueues the same
// Seq, a true wire-level redelivery — must leave the scion tables, stubs and
// reclamation outcome identical to single delivery.
func TestDupDeliveryIdempotent(t *testing.T) {
	dupAll := transport.FaultPlan{ByKind: map[string]transport.FaultRates{
		"gc.table":      {Dup: 1},
		"gc.scion":      {Dup: 1},
		"gc.deadNotice": {Dup: 1},
		"gc.locFlush":   {Dup: 1},
	}}

	clean := New(Config{Nodes: 2, SegWords: 64, Seed: 5})
	cleanOIDs := dupWorkload(clean)

	duped := New(Config{Nodes: 2, SegWords: 64, Seed: 5, Faults: dupAll})
	dupOIDs := dupWorkload(duped)

	// The storm really duplicated traffic, and the cleaner's generation
	// watermark observed redeliveries.
	if d := duped.Stats().Get("msg.dup"); d == 0 {
		t.Fatal("no GC message was duplicated")
	}
	if d := duped.Stats().Get("core.cleaner.dup"); d == 0 {
		t.Fatal("cleaner never saw a duplicate table")
	}

	a, b := sspFingerprint(clean, cleanOIDs), sspFingerprint(duped, dupOIDs)
	if a != b {
		t.Errorf("duplicated delivery diverged from single delivery:\n--- single ---\n%s--- duplicated ---\n%s", a, b)
	}
	// Reclamation reached the same point in both runs.
	for _, key := range []string{
		"core.gc.dead", "core.reclaim.segments",
		"core.cleaner.interScionsDeleted", "core.cleaner.intraScionsDeleted",
	} {
		if x, y := clean.Stats().Get(key), duped.Stats().Get(key); x != y {
			t.Errorf("%s: single %d, duplicated %d", key, x, y)
		}
	}
	// In both runs the dead branch is gone and the live one intact.
	n2 := duped.Node(1)
	if _, ok := n2.DSM().Canonical(dupOIDs[2]); ok {
		t.Error("dead object survived under duplication")
	}
	if _, ok := n2.DSM().Canonical(dupOIDs[1]); !ok {
		t.Error("live object lost under duplication")
	}
}

// TestCleanerLossGapSafety is the mid-stream-gap regression: dropped table
// messages leave holes in a sender's table stream, and the cleaner must
// neither delete a scion a live reference still needs (over-reclaim) nor
// re-create one for a dead reference (resurrection), at any loss rate.
func TestCleanerLossGapSafety(t *testing.T) {
	for _, loss := range []float64{0.1, 0.5, 0.9} {
		loss := loss
		t.Run(fmt.Sprintf("loss=%g", loss), func(t *testing.T) {
			cl := New(Config{Nodes: 2, SegWords: 64, Seed: 23, Faults: lossy(loss)})
			n1, n2 := cl.Node(0), cl.Node(1)
			b1, b2 := n1.NewBunch(), n2.NewBunch()
			live := n2.MustAlloc(b2, 1)
			dead := n2.MustAlloc(b2, 1)
			src := n1.MustAlloc(b1, 2)
			n1.AddRoot(src)
			n1.AcquireRead(live)
			n1.AcquireRead(dead)
			n1.WriteRef(src, 0, live)
			n1.WriteRef(src, 1, dead)
			settle(cl, 3)

			n1.AcquireWrite(src)
			n1.WriteRef(src, 1, Nil)
			// Stream tables through the lossy channel. Whatever subset gets
			// through, safety holds: the live target's scion and replica
			// survive every gap.
			settle(cl, 10)
			if _, ok := n2.DSM().Canonical(live.OID); !ok {
				t.Fatal("live object over-reclaimed under loss — mid-stream gap unsafe")
			}

			// Once the channel heals, liveness completes: the dead branch is
			// reclaimed and its scion never resurrects.
			setLoss(cl, 0)
			settle(cl, 4)
			if _, ok := n2.DSM().Canonical(dead.OID); ok {
				t.Fatal("dead object survived after the channel healed")
			}
			for k := range n2.Collector().Replica(b2).Table.InterScions {
				if k.TargetOID == dead.OID {
					t.Fatalf("scion for dead reference resurrected: %v", k)
				}
			}
			if _, ok := n2.DSM().Canonical(live.OID); !ok {
				t.Fatal("live object lost after heal")
			}
			if vs := cl.CheckInvariants(); len(vs) != 0 {
				t.Fatalf("invariants violated: %v", vs)
			}
		})
	}
}

// TestRandomizedLossGapRates runs the full randomized safety/liveness model
// at the same loss tiers, so the gap regression is checked against arbitrary
// object graphs, ownership transfers and collection schedules too.
func TestRandomizedLossGapRates(t *testing.T) {
	steps := 150
	if testing.Short() {
		steps = 60
	}
	for i, loss := range []float64{0.1, 0.5, 0.9} {
		i, loss := i, loss
		t.Run(fmt.Sprintf("loss=%g", loss), func(t *testing.T) {
			runModelCfg(t, modelCfg{seed: 31 + int64(i), nodes: 3, steps: steps, loss: loss})
		})
	}
}

// TestPartitionHealConvergence partitions a bunch's owner from the node
// managing the referencing objects in the middle of collection and §4.5
// reclamation, then heals and drains: the cluster must converge — clean
// invariants, dead branch reclaimed, reuse protocol completed, every live
// object acquirable from every side.
func TestPartitionHealConvergence(t *testing.T) {
	cl := New(Config{Nodes: 3, SegWords: 64, Seed: 9})
	n0, n1, n2 := cl.Node(0), cl.Node(1), cl.Node(2)
	b0, b1 := n0.NewBunch(), n1.NewBunch()
	x := n0.MustAlloc(b0, 2)
	n0.AddRoot(x)
	y := n1.MustAlloc(b1, 2)
	z := n1.MustAlloc(b1, 1)
	n0.AcquireRead(y)
	n0.AcquireRead(z)
	n0.WriteRef(x, 0, y)
	n0.WriteRef(x, 1, z)
	n1.AcquireWrite(y)
	n1.WriteWord(y, 1, 77)
	settle(cl, 2)

	// Cut the wire between the stub holder (n0) and the bunch owner (n1).
	cl.Partition(0, 1)

	// A synchronous token operation across the cut fails with the
	// distinguishable sentinel — and changes nothing.
	if err := n1.AcquireWrite(x); !errors.Is(err, transport.ErrPartitioned) {
		t.Fatalf("acquire across partition: err = %v, want ErrPartitioned", err)
	}

	// Mutate and collect on both sides of the cut while it is up: n0 cuts
	// the dead branch, n1 collects and starts §4.5 reuse, whose synchronous
	// address-change round must abort cleanly and requeue.
	n0.AcquireWrite(x)
	n0.WriteRef(x, 1, Nil)
	n0.CollectBunch(b0)
	n1.CollectBunch(b1)
	n1.ReclaimFromSpace(b1)
	cl.Run(0)
	if got := cl.Stats().Get("core.reclaim.aborted"); got == 0 {
		t.Fatal("reclaim round across the partition should have aborted")
	}
	if segs := n1.Collector().FromSpaceSegments(b1); len(segs) == 0 {
		t.Fatal("aborted reclaim must requeue its from-space segments")
	}
	// The third node is unaffected by the cut.
	if err := n2.AcquireRead(y); err != nil {
		t.Fatalf("unpartitioned node blocked: %v", err)
	}
	if v, _ := n2.ReadWord(y, 1); v != 77 {
		t.Fatalf("n2 read %d, want 77", v)
	}
	n2.Release(y)

	// Heal and drain: collection, cleaning and the retried reuse round all
	// complete.
	cl.HealAll()
	settle(cl, 6)
	n1.CollectBunch(b1)
	aborts := cl.Stats().Get("core.reclaim.aborted")
	n1.ReclaimFromSpace(b1)
	if got := cl.Stats().Get("core.reclaim.aborted"); got != aborts {
		t.Fatalf("reuse round aborted again after heal (%d -> %d)", aborts, got)
	}
	if segs := n1.Collector().FromSpaceSegments(b1); len(segs) != 0 {
		t.Fatalf("reuse protocol never completed: %d from-space segments left", len(segs))
	}
	cl.Run(0)
	settle(cl, 3)
	if _, ok := n1.DSM().Canonical(z.OID); ok {
		t.Fatal("dead branch not reclaimed after heal")
	}
	if vs := cl.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("invariants violated after heal+drain: %v", vs)
	}
	// Every side can still reach the live object.
	for _, nd := range []*Node{n0, n1, n2} {
		if err := nd.AcquireRead(y); err != nil {
			t.Fatalf("node %v cannot acquire live object: %v", nd.ID(), err)
		}
		if v, _ := nd.ReadWord(y, 1); v != 77 {
			t.Fatalf("node %v read %d, want 77", nd.ID(), v)
		}
		nd.Release(y)
	}
}
