package probe

import (
	"runtime"
	"sync"
	"time"

	"bmx"
	"bmx/bench/internal/harness"
)

// mutatorIters is the loop length of the local mutator probes.
const mutatorIters = 10000

// oneNode is the minimal mutator fixture: a 1-node cluster, one bunch, a
// rooted object src and a second object tgt in the same bunch. The shapes
// follow the repository's own micro-benchmarks (BenchmarkReadRef,
// E8_WriteBarrier, AcquireReadCached), so the numbers line up with
// EXPERIMENTS.md's.
type oneNode struct {
	n        *bmx.Node
	b        bmx.BunchID
	src, tgt bmx.Ref
}

func newOneNode() (*oneNode, error) {
	f := &oneNode{n: bmx.New(bmx.Config{Nodes: 1, Seed: 1}).Node(0)}
	f.b = f.n.NewBunch()
	var err error
	if f.src, err = f.n.Alloc(f.b, harness.ObjWords); err != nil {
		return nil, err
	}
	if f.tgt, err = f.n.Alloc(f.b, harness.ObjWords); err != nil {
		return nil, err
	}
	f.n.AddRoot(f.src)
	return f, nil
}

// clusterProbes time the cluster module's lock bracket around each local
// mutator call, count its allocations, and check whether two mutators on
// disjoint nodes and bunches run in parallel at all. ssp.write_ref_inter_ns
// rides along: the same fixture with the target in a second local bunch, so
// the write barrier has a stub and scion to look after.
func clusterProbes(v harness.Values, _ string) error {
	f, err := newOneNode()
	if err != nil {
		return wrap("cluster fixture", err)
	}
	other, err := f.n.Alloc(f.n.NewBunch(), harness.ObjWords)
	if err != nil {
		return wrap("cluster fixture", err)
	}

	readWord := func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := f.n.ReadWord(f.src, 1); err != nil {
				return err
			}
		}
		return nil
	}
	writeWord := func(n int) error {
		for i := 0; i < n; i++ {
			if err := f.n.WriteWord(f.src, 1, uint64(i)); err != nil {
				return err
			}
		}
		return nil
	}
	writeRef := func(target bmx.Ref) func(int) error {
		return func(n int) error {
			for i := 0; i < n; i++ {
				if err := f.n.WriteRef(f.src, 0, target); err != nil {
					return err
				}
			}
			return nil
		}
	}
	probes := []struct {
		name string
		loop func(int) error
	}{
		{"cluster.read_word_ns", readWord},
		{"cluster.write_word_ns", writeWord},
		{"cluster.write_ref_intra_ns", writeRef(f.tgt)},
		{"ssp.write_ref_inter_ns", writeRef(other)},
		{"cluster.acquire_cached_ns", func(n int) error {
			for i := 0; i < n; i++ {
				if err := f.n.AcquireRead(f.src); err != nil {
					return err
				}
			}
			return nil
		}},
		{"cluster.release_ns", func(n int) error {
			for i := 0; i < n; i++ {
				f.n.Release(f.src)
			}
			return nil
		}},
		{"cluster.alloc_ns", func(n int) error {
			b := f.n.NewBunch()
			for i := 0; i < n; i++ {
				if _, err := f.n.Alloc(b, harness.ObjWords); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	for _, p := range probes {
		ns, err := perIter(mutatorIters, nil, p.loop)
		if err != nil {
			return wrap(p.name, err)
		}
		v.Set(p.name, ns, Reps)
	}
	for name, loop := range map[string]func(int) error{
		"cluster.read_word_allocs": readWord, "cluster.write_word_allocs": writeWord,
	} {
		allocs, err := allocsPerIter(mutatorIters, loop)
		if err != nil {
			return wrap(name, err)
		}
		v.Set(name, allocs, Reps)
	}

	speedup, err := parallelSpeedup()
	if err != nil {
		return wrap("cluster.parallel_speedup_2", err)
	}
	v.Set("cluster.parallel_speedup_2", speedup, Reps)
	return nil
}

// parallelSpeedup is the throughput of two goroutines, each driving its own
// node and bunch, over the throughput of one (BenchmarkParallelDisjoint-
// Mutators' shape). Nothing is shared but the cluster's services, so 2 is
// the ideal on two cores and 1 means the mutators serialize.
func parallelSpeedup() (float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // the benchmark runs on one P
	cl := bmx.New(bmx.Config{Nodes: 2, Seed: 1})
	lanes := make([]func(int) error, 2)
	for i := range lanes {
		n := cl.Node(i)
		r, err := n.Alloc(n.NewBunch(), harness.ObjWords)
		if err != nil {
			return 0, err
		}
		n.AddRoot(r)
		lanes[i] = func(iters int) error {
			for j := 0; j < iters; j++ {
				if err := n.AcquireWrite(r); err != nil {
					return err
				}
				if err := n.WriteWord(r, 1, uint64(j)); err != nil {
					return err
				}
				n.Release(r)
			}
			return nil
		}
	}
	run := func(workers int) (float64, error) {
		ns, err := perIter(mutatorIters, nil, func(iters int) error {
			var wg sync.WaitGroup
			errs := make([]error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[w] = lanes[w](iters)
				}()
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
			return nil
		})
		return float64(workers) / ns, err // ops per ns
	}
	one, err := run(1)
	if err != nil {
		return 0, err
	}
	two, err := run(2)
	return two / one, err
}

// dsmProbes time the protocol's worst case: two nodes taking the write token
// from each other, every acquire remote (BenchmarkAcquireWritePingPong).
func dsmProbes(v harness.Values, _ string) error {
	cl := bmx.New(bmx.Config{Nodes: 2, Seed: 1})
	n0, n1 := cl.Node(0), cl.Node(1)
	o, err := n0.Alloc(n0.NewBunch(), harness.ObjWords)
	if err != nil {
		return wrap("dsm.ping_pong_us", err)
	}
	n0.AddRoot(o)
	ns, err := perIter(mutatorIters/2, nil, func(n int) error {
		for i := 0; i < n; i++ {
			nd := n1
			if i%2 == 1 {
				nd = n0
			}
			if err := nd.AcquireWrite(o); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return wrap("dsm.ping_pong_us", err)
	}
	v.Set("dsm.ping_pong_us", ns/float64(time.Microsecond), Reps)
	return nil
}
