package bmx_test

// Wall-clock benchmarks of the experiment workloads in EXPERIMENTS.md and of
// a few primitives. The wall-clock benchmark under bench/ (`go run -C bench
// ./wall`) times the mutator primitives, the write barrier, the token
// ping-pong, the steady-state collector, checkpoint and recovery, and
// parallel mutators; a benchmark stays here only for what none of its
// workloads or probes runs, and each says what that is. The structural
// claims themselves (zero tokens, zero extra messages, ...) are asserted by
// internal/exp's tests.

import (
	"fmt"
	"testing"

	"bmx"
	"bmx/internal/baseline"
	"bmx/internal/cluster"
	"bmx/internal/core"
	"bmx/internal/trace"
)

func benchCluster(nodes int) *bmx.Cluster {
	return bmx.New(bmx.Config{Nodes: nodes, SegWords: 512, Seed: 1})
}

// sharedList builds an n-object list at node 0 shared read-only on every
// other node.
func sharedList(b *testing.B, cl *bmx.Cluster, objs int) (bmx.BunchID, trace.Graph) {
	b.Helper()
	n0 := cl.Node(0)
	bu := n0.NewBunch()
	g, err := trace.BuildList(n0, bu, objs)
	if err != nil {
		b.Fatal(err)
	}
	var others []*cluster.Node
	for i := 1; i < cl.Nodes(); i++ {
		others = append(others, cl.Node(i))
	}
	if err := trace.Share(g.Objects, others...); err != nil {
		b.Fatal(err)
	}
	return bu, g
}

// ---- E1: collection with and without token acquisition ---------------------

// BenchmarkE1_BGC is E1_TokenGC's BMX arm on the same fixture: bench/
// collects a replicated bunch only inside gc_persist, beside a flatfs store
// and mutator traffic.
func BenchmarkE1_BGC(b *testing.B) {
	cl := benchCluster(3)
	bu, _ := sharedList(b, cl, 40)
	n0 := cl.Node(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n0.CollectBunch(bu)
		cl.Run(0)
	}
}

// BenchmarkE1_TokenGC: nothing in bench/ runs the §4.2 token-acquiring
// strawman.
func BenchmarkE1_TokenGC(b *testing.B) {
	cl := benchCluster(3)
	bu, g := sharedList(b, cl, 40)
	n0 := cl.Node(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.TokenCollectBunch(n0, bu); err != nil {
			b.Fatal(err)
		}
		cl.Run(0)
		b.StopTimer()
		// Restore the replicas the token GC just invalidated, so every
		// iteration measures the same disruption.
		for j := 1; j < cl.Nodes(); j++ {
			if err := trace.Share(g.Objects, cl.Node(j)); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
	}
}

// ---- E2: BGC at the owner under varying replication ------------------------

// BenchmarkE2_ReplicationDegree: nothing in bench/ varies the replication
// degree of the bunch it collects.
func BenchmarkE2_ReplicationDegree(b *testing.B) {
	for _, r := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("replicas=%d", r), func(b *testing.B) {
			cl := benchCluster(r)
			bu, _ := sharedList(b, cl, 60)
			n0 := cl.Node(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n0.CollectBunch(bu)
				cl.Run(0)
			}
		})
	}
}

// ---- E3: mutate+collect round, lazy vs eager updates ------------------------

// BenchmarkE3_Round: mutate+collect rounds, lazy and eager; nothing in
// bench/ calls FlushLocations.
func BenchmarkE3_Round(b *testing.B) {
	for _, eager := range []bool{false, true} {
		name := "lazy"
		if eager {
			name = "eager"
		}
		b.Run(name, func(b *testing.B) {
			cl := benchCluster(2)
			bu, g := sharedList(b, cl, 30)
			n0, n1 := cl.Node(0), cl.Node(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := trace.MutateValues(n1, g, 10, int64(i)); err != nil {
					b.Fatal(err)
				}
				n0.CollectBunch(bu)
				if eager {
					n0.FlushLocations()
				}
				cl.Run(0)
			}
		})
	}
}

// ---- E4: pause accounting, concurrent vs stop-the-world ---------------------

// BenchmarkE4_Collect: nothing in bench/ mutates during a trace
// (CollectOpts.DuringTrace), so no probe replays a mutation log at the flip.
func BenchmarkE4_Collect(b *testing.B) {
	for _, objs := range []int{64, 256, 512} {
		b.Run(fmt.Sprintf("objects=%d", objs), func(b *testing.B) {
			cl := benchCluster(1)
			n0 := cl.Node(0)
			bu := n0.NewBunch()
			g, err := trace.BuildList(n0, bu, objs)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n0.CollectBunchOpts(bu, core.CollectOpts{DuringTrace: func() {
					if err := trace.MutateValues(n0, g, 8, int64(i)); err != nil {
						b.Fatal(err)
					}
				}})
			}
		})
	}
}

// ---- E5: reclamation under message loss -------------------------------------

// BenchmarkE5_LossyReclamation: nothing in bench/ drops messages.
func BenchmarkE5_LossyReclamation(b *testing.B) {
	for _, loss := range []float64{0, 0.3} {
		b.Run(fmt.Sprintf("loss=%.0f%%", loss*100), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cl := bmx.New(bmx.Config{Nodes: 2, SegWords: 512, Seed: int64(i + 1),
					Faults: bmx.FaultPlan{Default: bmx.FaultRates{Drop: loss}}})
				n1, n2 := cl.Node(0), cl.Node(1)
				b1, b2 := n1.NewBunch(), n2.NewBunch()
				tgt := n2.MustAlloc(b2, 1)
				src := n1.MustAlloc(b1, 1)
				n1.AddRoot(src)
				if err := n1.AcquireRead(tgt); err != nil {
					b.Fatal(err)
				}
				if err := n1.WriteRef(src, 0, tgt); err != nil {
					b.Fatal(err)
				}
				n1.CollectBunch(b1)
				cl.Run(0)
				if err := n1.AcquireWrite(src); err != nil {
					b.Fatal(err)
				}
				if err := n1.WriteRef(src, 0, bmx.Nil); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for r := 0; r < 12; r++ {
					n1.CollectBunch(b1)
					n2.CollectBunch(b2)
					cl.Run(0)
					if _, present := n2.DSM().Canonical(tgt.OID); !present {
						break
					}
				}
			}
		})
	}
}

// ---- E6: distributed chain reclamation --------------------------------------

// BenchmarkE6_ChainReclaim: nothing in bench/ creates inter-bunch
// references across nodes, so no scion cleaner there unwinds a chain.
func BenchmarkE6_ChainReclaim(b *testing.B) {
	for _, L := range []int{2, 8} {
		b.Run(fmt.Sprintf("len=%d", L), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				nodes := 4
				if L < nodes {
					nodes = L
				}
				cl := benchCluster(nodes)
				var objs []bmx.Ref
				var owners []*cluster.Node
				for j := 0; j <= L; j++ {
					nd := cl.Node(j % nodes)
					bu := nd.NewBunch()
					objs = append(objs, nd.MustAlloc(bu, 1))
					owners = append(owners, nd)
				}
				cl.Node(0).AddRoot(objs[0])
				for j := 0; j < L; j++ {
					nd := owners[j]
					if err := nd.AcquireWrite(objs[j]); err != nil {
						b.Fatal(err)
					}
					if err := nd.AcquireRead(objs[j+1]); err != nil {
						b.Fatal(err)
					}
					if err := nd.WriteRef(objs[j], 0, objs[j+1]); err != nil {
						b.Fatal(err)
					}
				}
				cl.Node(0).RemoveRoot(objs[0])
				b.StartTimer()
				for r := 0; r < 4*L+8; r++ {
					for j := 0; j < nodes; j++ {
						nd := cl.Node(j)
						for _, bu := range nd.Collector().MappedBunches() {
							nd.CollectBunch(bu)
						}
						cl.Run(0)
					}
					if _, present := owners[L].DSM().Canonical(objs[L].OID); !present {
						break
					}
				}
			}
		})
	}
}

// ---- E7: whole-cluster collection, weak vs strong ----------------------------

// BenchmarkE7_WeakAllNodes is E7_StrongAllNodes' BMX arm: gc_persist
// collects its shared bunch at one node per round, never at all of them
// before the tables are delivered.
func BenchmarkE7_WeakAllNodes(b *testing.B) {
	cl := benchCluster(4)
	bu, _ := sharedList(b, cl, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < cl.Nodes(); j++ {
			cl.Node(j).CollectBunch(bu)
		}
		cl.Run(0)
	}
}

// BenchmarkE7_StrongAllNodes: nothing in bench/ runs the Le Sergent-style
// strongly consistent collector.
func BenchmarkE7_StrongAllNodes(b *testing.B) {
	cl := benchCluster(4)
	sharedList(b, cl, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.StrongCollectAll(cl); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- A1/A2: ablations -----------------------------------------------------------

// BenchmarkA1_OwnershipTransfer: dsm.ping_pong_us moves an object with no
// inter-bunch reference; here every transfer carries a stub, intra-bunch or
// replicated.
func BenchmarkA1_OwnershipTransfer(b *testing.B) {
	for _, replicate := range []bool{false, true} {
		name := "intraSSP"
		if replicate {
			name = "replicatedSSP"
		}
		b.Run(name, func(b *testing.B) {
			cl := benchCluster(3)
			for i := 0; i < cl.Nodes(); i++ {
				cl.Node(i).Collector().SetReplicateInterSSPs(replicate)
			}
			n0, n1, n2 := cl.Node(0), cl.Node(1), cl.Node(2)
			bu := n0.NewBunch()
			bT := n2.NewBunch()
			o := n0.MustAlloc(bu, 1)
			n0.AddRoot(o)
			tgt := n2.MustAlloc(bT, 1)
			if err := n0.AcquireRead(tgt); err != nil {
				b.Fatal(err)
			}
			if err := n0.WriteRef(o, 0, tgt); err != nil {
				b.Fatal(err)
			}
			if err := n1.MapBunch(bu); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nd := n1
				if i%2 == 1 {
					nd = n0
				}
				if err := nd.AcquireWrite(o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkA2_LocationPropagation: collect-only rounds, lazy and eager;
// nothing in bench/ calls FlushLocations.
func BenchmarkA2_LocationPropagation(b *testing.B) {
	for _, eager := range []bool{false, true} {
		name := "lazy"
		if eager {
			name = "eager"
		}
		b.Run(name, func(b *testing.B) {
			cl := benchCluster(2)
			bu, _ := sharedList(b, cl, 20)
			n0 := cl.Node(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n0.CollectBunch(bu)
				if eager {
					n0.FlushLocations()
				}
				cl.Run(0)
			}
		})
	}
}

// ---- Micro-benchmarks of the primitives ---------------------------------------

// BenchmarkReadRef: cluster.read_word_ns reads a scalar; nothing in bench/
// reads a reference, which resolves the target's address.
func BenchmarkReadRef(b *testing.B) {
	cl := benchCluster(1)
	n0 := cl.Node(0)
	bu := n0.NewBunch()
	o := n0.MustAlloc(bu, 2)
	t := n0.MustAlloc(bu, 1)
	if err := n0.WriteRef(o, 0, t); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n0.ReadRef(o, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSixteenNodeCollection: bench/ never builds more than four nodes.
func BenchmarkSixteenNodeCollection(b *testing.B) {
	cl := benchCluster(16)
	bu, _ := sharedList(b, cl, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < cl.Nodes(); j++ {
			cl.Node(j).CollectBunch(bu)
		}
		cl.Run(0)
	}
}

// ---- A3/A4/A5 and transactions ----------------------------------------------

// BenchmarkA3_ProtocolVariants: nothing in bench/ runs the strict protocol.
func BenchmarkA3_ProtocolVariants(b *testing.B) {
	for _, p := range []bmx.Protocol{bmx.ProtocolEntry, bmx.ProtocolStrict} {
		b.Run(p.String(), func(b *testing.B) {
			cl := bmx.New(bmx.Config{Nodes: 2, SegWords: 512, Seed: 1, Consistency: p})
			n0, n1 := cl.Node(0), cl.Node(1)
			bu := n0.NewBunch()
			o := n0.MustAlloc(bu, 2)
			n0.AddRoot(o)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := n1.AcquireRead(o); err != nil {
					b.Fatal(err)
				}
				if _, err := n1.ReadWord(o, 0); err != nil {
					b.Fatal(err)
				}
				n1.Release(o)
			}
		})
	}
}

// BenchmarkA4_GranularityAcquire: nothing in bench/ turns on segment-grain
// tokens.
func BenchmarkA4_GranularityAcquire(b *testing.B) {
	for _, coarse := range []bool{false, true} {
		name := "object"
		if coarse {
			name = "segment"
		}
		b.Run(name, func(b *testing.B) {
			cl := bmx.New(bmx.Config{Nodes: 2, SegWords: 128, Seed: 1, SegmentGrainTokens: coarse})
			n0, n1 := cl.Node(0), cl.Node(1)
			bu := n0.NewBunch()
			g, err := trace.BuildList(n0, bu, 8)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nd := n1
				if i%2 == 1 {
					nd = n0
				}
				if err := nd.AcquireWrite(g.Objects[i%8]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkA5_Grouping: gc_persist runs CollectGroup(nil) on a bunch with no
// inter-bunch cycles; nothing in bench/ calls CollectConnectedGroups.
func BenchmarkA5_Grouping(b *testing.B) {
	build := func() *bmx.Node {
		cl := bmx.New(bmx.Config{Nodes: 1, SegWords: 512})
		n := cl.Node(0)
		for c := 0; c < 2; c++ {
			b1, b2 := n.NewBunch(), n.NewBunch()
			x := n.MustAlloc(b1, 1)
			y := n.MustAlloc(b2, 1)
			n.WriteRef(x, 0, y)
			n.WriteRef(y, 0, x)
		}
		iso := n.NewBunch()
		if _, err := trace.BuildList(n, iso, 40); err != nil {
			b.Fatal(err)
		}
		return n
	}
	b.Run("whole-site", func(b *testing.B) {
		n := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n.CollectGroup(nil)
		}
	})
	b.Run("connected-components", func(b *testing.B) {
		n := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n.CollectConnectedGroups()
		}
	})
}

// BenchmarkTxCommit: nothing in bench/ runs a transaction.
func BenchmarkTxCommit(b *testing.B) {
	cl := bmx.New(bmx.Config{Nodes: 1, SegWords: 512})
	n := cl.Node(0)
	bu := n.NewBunch()
	o := n.MustAlloc(bu, 2)
	n.AddRoot(o)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := n.Begin()
		if err := tx.WriteWord(o, 0, uint64(i)); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelRunConcurrent compares draining one backlog of
// background messages with the deterministic single-driver Run against the
// goroutine-per-node RunConcurrent, which nothing in bench/ calls.
func BenchmarkParallelRunConcurrent(b *testing.B) {
	build := func() *bmx.Cluster {
		cl := bmx.New(bmx.Config{Nodes: 4, SegWords: 512, Seed: 1})
		sharedList(b, cl, 64)
		for i := 0; i < cl.Nodes(); i++ {
			cl.Node(i).CollectConnectedGroups()
			cl.Node(i).FlushLocations()
		}
		return cl
	}
	b.Run("Run", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cl := build()
			b.StartTimer()
			cl.Run(0)
		}
	})
	b.Run("RunConcurrent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cl := build()
			b.StartTimer()
			cl.RunConcurrent(0)
		}
	})
}

// BenchmarkCollectChurn is the collector alone in gc_persist's shape: four
// nodes holding 2 500 rooted four-word objects each in one shared bunch.
// An iteration is one collection round at the next node in rotation: it
// unroots 50 of its objects, allocates 50 fresh rooted ones, collects the
// bunch, reuses its from-space every 8th round, and the cluster delivers the
// background traffic. There is no mutator traffic and no store, so the
// number is the collector's own (`make profile-gc` profiles it).
func BenchmarkCollectChurn(b *testing.B) {
	round := collectChurn(b)
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		round(k)
	}
}

// collectChurnAllocsPerRound bounds the Go heap allocations of one
// BenchmarkCollectChurn round in steady state: the measured 215, plus 10 %.
const collectChurnAllocsPerRound = 236

// TestCollectChurnAllocs pins BenchmarkCollectChurn's allocations per
// round, so a collection that starts rebuilding its scratch from nil again
// shows here.
func TestCollectChurnAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 10 000-object cluster")
	}
	round := collectChurn(t)
	k := 0
	for ; k < 64; k++ { // past the first collection at every node
		round(k)
	}
	// 64 rounds: 16 at each node, 8 of them reusing from-space.
	got := testing.AllocsPerRun(64, func() {
		round(k)
		k++
	})
	if got > collectChurnAllocsPerRound {
		t.Fatalf("a collection round allocates %.0f times, bound %d", got, collectChurnAllocsPerRound)
	}
}

// collectChurn builds BenchmarkCollectChurn's cluster and returns its
// round k.
func collectChurn(tb testing.TB) func(k int) {
	const nodes, perNode, churn, words = 4, 2500, 50, 4
	cl := bmx.New(bmx.Config{Nodes: nodes, Seed: 12})
	bu := cl.Node(0).NewBunch()
	slots := make([][]bmx.Ref, nodes)
	for i := range slots {
		n := cl.Node(i)
		if i > 0 {
			if err := n.MapBunch(bu); err != nil {
				tb.Fatal(err)
			}
		}
		for range perNode {
			r := n.MustAlloc(bu, words)
			n.AddRoot(r)
			slots[i] = append(slots[i], r)
		}
	}
	cl.Run(0)
	return func(k int) {
		i := k % nodes
		n := cl.Node(i)
		first := k / nodes * churn % perNode
		for j := range churn {
			s := (first + j) % perNode
			n.RemoveRoot(slots[i][s])
			slots[i][s] = n.MustAlloc(bu, words)
			n.AddRoot(slots[i][s])
		}
		n.CollectBunch(bu)
		if k%8 == 7 {
			n.ReclaimFromSpace(bu)
		}
		cl.Run(0)
	}
}
