package cluster

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"bmx/internal/addr"
	"bmx/internal/core"
)

// locationEpochs reads the relocation epoch of every object at n under the
// node lock, which is what guards the collector's epoch table.
func locationEpochs(n *Node, objs []Ref) []uint64 {
	defer n.lock()()
	out := make([]uint64, len(objs))
	for i, r := range objs {
		out[i] = n.col.LocationEpoch(r.OID)
	}
	return out
}

// TestCollectBunchesHammerEpochMonotonic is the stress test for the one
// lock that guards a node: node 0 collects all of its bunches in a loop
// while two local mutator goroutines keep acquiring, writing and reading the
// very objects being collected, a drainer delivers background traffic with
// RunConcurrent, and a monitor samples location epochs — all contending for
// node 0's lock. Node 1 maps every bunch and passively applies the location
// manifests the collections produce. Run under -race in CI.
//
// The correctness oracle, beyond the race detector and CheckInvariants, is
// location-epoch monotonicity on both nodes: an epoch going backwards would
// mean a stale manifest overtook a fresher one, exactly the §4.4 hazard the
// epoch protocol exists to prevent.
func TestCollectBunchesHammerEpochMonotonic(t *testing.T) {
	cl := New(Config{Nodes: 2})
	n0, n1 := cl.Node(0), cl.Node(1)

	const nBunches = 6
	const objsPerBunch = 6
	rounds := 6
	if testing.Short() {
		rounds = 3
	}

	var bunches []addr.BunchID
	var objs []Ref
	for i := 0; i < nBunches; i++ {
		b := n0.NewBunch()
		bunches = append(bunches, b)
		for j := 0; j < objsPerBunch; j++ {
			r := n0.MustAlloc(b, 4)
			n0.AddRoot(r)
			objs = append(objs, r)
		}
	}
	for _, b := range bunches {
		if err := n1.MapBunch(b); err != nil {
			t.Fatalf("mapping %v at node 1: %v", b, err)
		}
	}
	cl.Run(0)

	last := [2][]uint64{make([]uint64, len(objs)), make([]uint64, len(objs))}
	checkEpochs := func() bool {
		for ni, n := range []*Node{n0, n1} {
			for i, ep := range locationEpochs(n, objs) {
				if ep < last[ni][i] {
					t.Errorf("node %d: epoch of %v went backwards: %d -> %d", ni, objs[i], last[ni][i], ep)
					return false
				}
				last[ni][i] = ep
			}
		}
		return true
	}

	tokenRaces, collections := 0, 0
	for round := 0; round < rounds; round++ {
		stop := make(chan struct{})
		var helpers sync.WaitGroup

		helpers.Add(1)
		go func() { // background delivery, concurrent with everything else
			defer helpers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if cl.RunConcurrent(0) == 0 {
					runtime.Gosched()
				}
			}
		}()

		helpers.Add(1)
		go func() { // epoch monitor; the only goroutine touching last
			defer helpers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !checkEpochs() {
					return
				}
				runtime.Gosched()
			}
		}()

		var muts sync.WaitGroup
		races := make([]int, 2)
		for g := range races {
			muts.Add(1)
			go func(g int) {
				defer muts.Done()
				rng := rand.New(rand.NewSource(int64(round*10 + g)))
				for it := 0; it < 150; it++ {
					r := objs[rng.Intn(len(objs))]
					if err := n0.AcquireWrite(r); err != nil {
						t.Errorf("mutator %d acquire %v: %v", g, r, err)
						return
					}
					if err := n0.WriteWord(r, 1, uint64(it)); err != nil {
						races[g]++ // token stolen before the write
					} else if _, err := n0.ReadWord(r, 1); err != nil {
						races[g]++
					}
					n0.Release(r)
				}
			}(g)
		}
		mutsDone := make(chan struct{})
		go func() { muts.Wait(); close(mutsDone) }()

		// The collections under test: every mapped bunch, over and over,
		// for as long as the mutators run (and at least once).
		for running := true; running; {
			select {
			case <-mutsDone:
				running = false
			default:
			}
			if st := n0.CollectBunches(nil); st.Bunches != nBunches {
				t.Errorf("round %d: collected %d bunches, want %d", round, st.Bunches, nBunches)
			}
			collections++
		}
		n0.FlushLocations()

		close(stop)
		helpers.Wait()
		cl.Run(0)
		checkEpochs()
		tokenRaces += races[0] + races[1]
	}

	if bad := cl.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("invariants violated after the hammer (token races tolerated: %d):\n%v", tokenRaces, bad)
	}
	t.Logf("%d collections of %d bunches under live mutators, %d tolerated token races",
		collections, nBunches, tokenRaces)
}

// TestCollectBunchesNoDSMInterference re-states the paper's central claim
// (§5) for the multi-bunch driver: collecting every mapped bunch on each of
// three nodes acquires no DSM token and invalidates no replica. The same
// probes gate bmxd runs; here they gate the library path directly.
func TestCollectBunchesNoDSMInterference(t *testing.T) {
	cl := New(Config{Nodes: 3})
	n0 := cl.Node(0)

	var bunches []addr.BunchID
	var objs []Ref
	for i := 0; i < 4; i++ {
		b := n0.NewBunch()
		bunches = append(bunches, b)
		for j := 0; j < 8; j++ {
			r := n0.MustAlloc(b, 4)
			n0.AddRoot(r)
			objs = append(objs, r)
		}
	}
	// Link across bunches so tracing crosses SSPs.
	for i := range objs[:len(objs)-1] {
		if err := n0.AcquireWrite(objs[i]); err != nil {
			t.Fatalf("acquire: %v", err)
		}
		if err := n0.WriteRef(objs[i], 0, objs[i+1]); err != nil {
			t.Fatalf("link: %v", err)
		}
		n0.Release(objs[i])
	}
	for i := 1; i < cl.Nodes(); i++ {
		n := cl.Node(i)
		for _, b := range bunches {
			if err := n.MapBunch(b); err != nil {
				t.Fatalf("map at node %d: %v", i, err)
			}
		}
		// Remote mutators touch a few objects so replicas and tokens exist.
		for j := 0; j < 4; j++ {
			r := objs[(i*7+j*5)%len(objs)]
			if err := n.AcquireWrite(r); err != nil {
				t.Fatalf("node %d acquire: %v", i, err)
			}
			if err := n.WriteWord(r, 2, uint64(i*100+j)); err != nil {
				t.Fatalf("node %d write: %v", i, err)
			}
			n.Release(r)
		}
	}
	cl.Run(0)

	for i := 0; i < cl.Nodes(); i++ {
		n := cl.Node(i)
		st := n.CollectBunches(nil)
		if st.Bunches != len(bunches) {
			t.Fatalf("node %d collected %d bunches, want %d", i, st.Bunches, len(bunches))
		}
		// Only node 0 holds roots, so only its collection is guaranteed to
		// do priced work.
		if i == 0 && st.CPUTicks == 0 {
			t.Errorf("node 0: CollectStats.CPUTicks = 0, want > 0")
		}
		n.FlushLocations()
		cl.Run(0)
	}

	st := cl.Stats()
	if got := st.SumPrefix("dsm.acquire.r.gc") + st.SumPrefix("dsm.acquire.w.gc"); got != 0 {
		t.Errorf("collections acquired %d DSM tokens; the paper's claim requires 0", got)
	}
	if got := st.Get("dsm.invalidation.gc"); got != 0 {
		t.Errorf("collections caused %d invalidations; the paper's claim requires 0", got)
	}
	if bad := cl.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("invariants violated:\n%v", bad)
	}
}

// TestCollectBunchesNilEqualsPerBunchMerge pins what CollectBunches is: the
// CollectBunch loop over MappedBunches(), merged. Two identically built
// clusters — the simulation is deterministic — must report identical
// statistics, simulated ticks included, whichever way they are collected.
func TestCollectBunchesNilEqualsPerBunchMerge(t *testing.T) {
	build := func() *Node {
		n := New(Config{Nodes: 1}).Node(0)
		for i := 0; i < 3; i++ {
			b := n.NewBunch()
			keep, drop := n.MustAlloc(b, 4), n.MustAlloc(b, 4)
			n.AddRoot(keep)
			_ = drop // unreachable: the collection must find it dead
		}
		return n
	}

	got := build().CollectBunches(nil)

	ref := build()
	var want core.CollectStats
	for _, b := range ref.Collector().MappedBunches() {
		want.Merge(ref.CollectBunch(b))
	}

	if got != want {
		t.Fatalf("CollectBunches(nil) = %+v\nmerged CollectBunch loop = %+v", got, want)
	}
	if got.Bunches != 3 || got.LiveStrong != 3 || got.Dead != 3 {
		t.Fatalf("collected %d bunches, %d live, %d dead; want 3, 3, 3", got.Bunches, got.LiveStrong, got.Dead)
	}
}

// TestCollectBunchesNilRacesMapBunch collects "every mapped bunch" on a
// node while another goroutine keeps mapping new bunches there. The bunch
// list is resolved inside the node-lock bracket, so the race detector must
// stay quiet and every collection must see a consistent list.
func TestCollectBunchesNilRacesMapBunch(t *testing.T) {
	cl := New(Config{Nodes: 2})
	n0, n1 := cl.Node(0), cl.Node(1)
	var bunches []addr.BunchID
	for i := 0; i < 8; i++ {
		b := n0.NewBunch()
		n0.AddRoot(n0.MustAlloc(b, 4))
		bunches = append(bunches, b)
	}

	mapped := make(chan struct{})
	go func() {
		defer close(mapped)
		for _, b := range bunches {
			if err := n1.MapBunch(b); err != nil {
				t.Errorf("mapping %v at node 1: %v", b, err)
				return
			}
		}
	}()
	for running, seen := true, 0; running; {
		select {
		case <-mapped:
			running = false
		default:
		}
		st := n1.CollectBunches(nil)
		if st.Bunches < seen || st.Bunches > len(bunches) {
			t.Fatalf("collected %d bunches after %d; at most %d exist", st.Bunches, seen, len(bunches))
		}
		seen = st.Bunches
	}
	if st := n1.CollectBunches(nil); st.Bunches != len(bunches) {
		t.Fatalf("collected %d bunches once all are mapped, want %d", st.Bunches, len(bunches))
	}
	cl.Run(0)
	if bad := cl.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("invariants violated:\n%v", bad)
	}
}
