package bmx_test

// Benchmarks, one family per experiment in EXPERIMENTS.md (E1-E9, A1-A2)
// plus micro-benchmarks of the primitive operations. The experiment
// families measure the real wall-clock cost of regenerating each table's
// workload; the structural claims themselves (zero tokens, zero extra
// messages, ...) are asserted by the exp package's tests.

import (
	"fmt"
	"sync"
	"testing"

	"bmx"
	"bmx/internal/baseline"
	"bmx/internal/cluster"
	"bmx/internal/core"
	"bmx/internal/exp"
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
					if _, present := n2.Collector().Heap().Canonical(tgt.OID); !present {
						break
					}
				}
			}
		})
	}
}

// ---- E6: distributed chain reclamation --------------------------------------

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
					if _, present := owners[L].Collector().Heap().Canonical(objs[L].OID); !present {
						break
					}
				}
			}
		})
	}
}

// ---- E7: whole-cluster collection, weak vs strong ----------------------------

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

// ---- E8: the write barrier ----------------------------------------------------

func BenchmarkE8_WriteBarrier(b *testing.B) {
	b.Run("intra-bunch", func(b *testing.B) {
		cl := benchCluster(1)
		n0 := cl.Node(0)
		bu := n0.NewBunch()
		src := n0.MustAlloc(bu, 1)
		tgt := n0.MustAlloc(bu, 1)
		n0.AddRoot(src)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := n0.WriteRef(src, 0, tgt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("inter-bunch-local", func(b *testing.B) {
		cl := benchCluster(1)
		n0 := cl.Node(0)
		b1, b2 := n0.NewBunch(), n0.NewBunch()
		src := n0.MustAlloc(b1, 1)
		tgt := n0.MustAlloc(b2, 1)
		n0.AddRoot(src)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := n0.WriteRef(src, 0, tgt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scalar", func(b *testing.B) {
		cl := benchCluster(1)
		n0 := cl.Node(0)
		bu := n0.NewBunch()
		src := n0.MustAlloc(bu, 1)
		n0.AddRoot(src)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := n0.WriteWord(src, 0, uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- E9: checkpoint and recovery ----------------------------------------------

func BenchmarkE9_CheckpointRecover(b *testing.B) {
	for _, objs := range []int{32, 128} {
		b.Run(fmt.Sprintf("objects=%d", objs), func(b *testing.B) {
			cl := bmx.New(bmx.Config{Nodes: 1, SegWords: 512, Seed: 1, WithDisk: true})
			n0 := cl.Node(0)
			bu := n0.NewBunch()
			g, err := trace.BuildList(n0, bu, objs)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := n0.Checkpoint(bu); err != nil {
					b.Fatal(err)
				}
				if err := n0.WriteWord(g.Objects[0], 1, uint64(i)); err != nil {
					b.Fatal(err)
				}
				n0.Sync()
				if err := n0.Crash(bu); err != nil {
					b.Fatal(err)
				}
				if err := n0.RecoverBunch(bu); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- A1/A2: ablations -----------------------------------------------------------

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

func BenchmarkAlloc(b *testing.B) {
	cl := bmx.New(bmx.Config{Nodes: 1, SegWords: 4096})
	n0 := cl.Node(0)
	bu := n0.NewBunch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n0.Alloc(bu, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAcquireReadCached(b *testing.B) {
	cl := benchCluster(2)
	n0, n1 := cl.Node(0), cl.Node(1)
	bu := n0.NewBunch()
	o := n0.MustAlloc(bu, 2)
	if err := n1.AcquireRead(o); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n1.AcquireRead(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAcquireWritePingPong(b *testing.B) {
	cl := benchCluster(2)
	n0, n1 := cl.Node(0), cl.Node(1)
	bu := n0.NewBunch()
	o := n0.MustAlloc(bu, 2)
	n0.AddRoot(o)
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
}

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

func BenchmarkBGCSteadyState(b *testing.B) {
	for _, objs := range []int{100, 400, 2000} {
		b.Run(fmt.Sprintf("objects=%d", objs), func(b *testing.B) {
			cl := bmx.New(bmx.Config{Nodes: 1, SegWords: 4096})
			n0 := cl.Node(0)
			bu := n0.NewBunch()
			if _, err := trace.BuildList(n0, bu, objs); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n0.CollectBunch(bu)
			}
		})
	}
}

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

func BenchmarkExperimentHarness(b *testing.B) {
	// The cost of regenerating a representative full table.
	b.Run("E1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if t := exp.RunE1(); !t.Pass {
				b.Fatal("E1 shape violated")
			}
		}
	})
	b.Run("E8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if t := exp.RunE8(); !t.Pass {
				b.Fatal("E8 shape violated")
			}
		}
	})
}

// ---- A3/A4/A5 and transactions ----------------------------------------------

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

// BenchmarkParallelDisjointMutators measures the payoff of per-node
// locking: W worker goroutines, each the sole mutator of its own node and
// bunch, doing acquire/write/read/release rounds with a collection every
// 64 operations. Workers share only the internally locked directory,
// allocator and network, so on multicore hardware throughput scales with W
// where the old global cluster lock serialized everything. Reported time
// is per operation across all workers.
func BenchmarkParallelDisjointMutators(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cl := bmx.New(bmx.Config{Nodes: workers, SegWords: 512, Seed: 1})
			type lane struct {
				n    *cluster.Node
				bu   bmx.BunchID
				objs []bmx.Ref
			}
			lanes := make([]lane, workers)
			for w := 0; w < workers; w++ {
				n := cl.Node(w)
				bu := n.NewBunch()
				var objs []bmx.Ref
				for j := 0; j < 8; j++ {
					r := n.MustAlloc(bu, 4)
					n.AddRoot(r)
					objs = append(objs, r)
				}
				lanes[w] = lane{n: n, bu: bu, objs: objs}
			}
			perWorker := b.N/workers + 1
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(l lane) {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						r := l.objs[i%len(l.objs)]
						if err := l.n.AcquireWrite(r); err != nil {
							b.Error(err)
							return
						}
						if err := l.n.WriteWord(r, 1, uint64(i)); err != nil {
							b.Error(err)
							return
						}
						if _, err := l.n.ReadWord(r, 1); err != nil {
							b.Error(err)
							return
						}
						l.n.Release(r)
						if i%64 == 63 {
							l.n.CollectBunch(l.bu)
						}
					}
				}(lanes[w])
			}
			wg.Wait()
			b.StopTimer()
			cl.RunConcurrent(0)
		})
	}
}

// BenchmarkParallelRunConcurrent compares draining one backlog of
// background messages with the deterministic single-driver Run against the
// goroutine-per-node RunConcurrent.
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
