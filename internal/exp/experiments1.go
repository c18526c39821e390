package exp

import (
	"fmt"

	"bmx/internal/addr"
	"bmx/internal/baseline"
	"bmx/internal/cluster"
	"bmx/internal/core"
	"bmx/internal/trace"
	"bmx/internal/transport"
)

func newCluster(nodes int, loss float64) *cluster.Cluster {
	return cluster.New(cluster.Config{
		Nodes: nodes, SegWords: 512, Seed: 1,
		Faults:      transport.FaultPlan{Default: transport.FaultRates{Drop: loss}},
		SendLatency: 1, CallLatency: 1,
	})
}

// settle runs one BGC per mapped bunch at every node and drains background
// traffic.
func settle(cl *cluster.Cluster, rounds int) {
	for r := 0; r < rounds; r++ {
		for i := 0; i < cl.Nodes(); i++ {
			nd := cl.Node(i)
			for _, b := range nd.Collector().MappedBunches() {
				nd.CollectBunch(b)
			}
			cl.Run(0)
		}
	}
}

// consistentReplicas counts (object, node) pairs still holding a read or
// write token — the applications' working set the collector must not
// disrupt.
func consistentReplicas(cl *cluster.Cluster, g trace.Graph) int {
	n := 0
	for i := 0; i < cl.Nodes(); i++ {
		for _, o := range g.Objects {
			if cl.Node(i).Mode(o) >= 1 { // ModeRead
				n++
			}
		}
	}
	return n
}

// RunE1 measures the collector's interference with the consistency
// protocol: token acquisitions and invalidations attributed to GC, and the
// read tokens surviving at replica nodes.
func RunE1() Table {
	t := Table{
		ID:    "E1",
		Title: "Consistency actions caused by one collection (3 nodes, 40 shared objects)",
		Claim: "§4.2/§8: the BGC never acquires a token for any object and " +
			"consequently does not interfere with the DSM consistency protocol",
		Header: []string{"collector", "GC write acquires", "GC invalidations", "consistent replicas after GC"},
		Shape:  "BMX row is exactly 0 / 0 / all; token-acquiring strawman is >=live / >0 / 0 at remotes",
	}
	run := func(token bool) (acq, inv int64, cons int) {
		cl := newCluster(3, 0)
		n1 := cl.Node(0)
		b := n1.NewBunch()
		g, err := trace.BuildList(n1, b, 40)
		if err != nil {
			panic(err)
		}
		if err := trace.Share(g.Objects, cl.Node(1), cl.Node(2)); err != nil {
			panic(err)
		}
		if token {
			if _, err := baseline.TokenCollectBunch(n1, b); err != nil {
				panic(err)
			}
		} else {
			n1.CollectBunch(b)
		}
		cl.Run(0)
		return cl.Stats().Get("dsm.acquire.w.gc"),
			cl.Stats().Get("dsm.invalidation.gc"),
			consistentReplicas(cl, g)
	}
	bAcq, bInv, bCons := run(false)
	tAcq, tInv, tCons := run(true)
	t.AddRow("BMX BGC", bAcq, bInv, bCons)
	t.AddRow("token-acquiring GC (§4.2 strawman)", tAcq, tInv, tCons)
	t.Note("consistent replicas counts (object, node) pairs holding r or w out of %d", 40*3)
	t.Pass = bAcq == 0 && bInv == 0 && bCons >= 40*3-1 &&
		tAcq >= 40 && tInv > 0 && tCons < bCons
	return t
}

// RunE2 measures BGC cost against the replication degree of the bunch.
func RunE2() Table {
	t := Table{
		ID:    "E2",
		Title: "BGC cost at the owner vs replication degree (60-object list, fully live)",
		Claim: "§8: from the point of view of the application, the cost of the BGC " +
			"should be the same whether the bunch is replicated or not",
		Header: []string{"replicas", "BGC ticks", "pause ticks", "copied", "GC invalidations", "strawman invalidations"},
		Shape:  "BMX ticks and pauses flat in the replica count; strawman invalidations grow with it",
	}
	var ticks []uint64
	var strawGrowth []int64
	for _, r := range []int{1, 2, 4, 8} {
		measure := func(token bool) (core.CollectStats, int64) {
			cl := newCluster(r, 0)
			n0 := cl.Node(0)
			b := n0.NewBunch()
			g, err := trace.BuildList(n0, b, 60)
			if err != nil {
				panic(err)
			}
			var others []*cluster.Node
			for i := 1; i < r; i++ {
				others = append(others, cl.Node(i))
			}
			if err := trace.Share(g.Objects, others...); err != nil {
				panic(err)
			}
			inv0 := cl.Stats().Get("dsm.invalidation.gc")
			var cs core.CollectStats
			if token {
				cs, err = baseline.TokenCollectBunch(n0, b)
				if err != nil {
					panic(err)
				}
			} else {
				cs = n0.CollectBunch(b)
			}
			cl.Run(0)
			return cs, cl.Stats().Get("dsm.invalidation.gc") - inv0
		}
		cs, inv := measure(false)
		_, strawInv := measure(true)
		t.AddRow(r, cs.TotalTicks, cs.PauseRootTicks+cs.PauseFlipTicks, cs.Copied, inv, strawInv)
		ticks = append(ticks, cs.TotalTicks)
		strawGrowth = append(strawGrowth, strawInv)
		if inv != 0 {
			t.Note("UNEXPECTED: BMX BGC caused %d invalidations at r=%d", inv, r)
		}
	}
	minT, maxT := ticks[0], ticks[0]
	for _, v := range ticks {
		if v < minT {
			minT = v
		}
		if v > maxT {
			maxT = v
		}
	}
	t.Pass = float64(maxT) <= 1.3*float64(minT) &&
		strawGrowth[len(strawGrowth)-1] > strawGrowth[0]
	return t
}

// RunE3 accounts for every message the collector causes during a shared
// mutate/collect workload, lazy (piggyback) versus eager (background flush).
func RunE3() Table {
	t := Table{
		ID:    "E3",
		Title: "GC messages during 5 mutate+collect rounds (2 nodes, 30 shared objects)",
		Claim: "§4.4: an object's new address is piggy-backed onto messages due to the " +
			"consistency protocol ... no extra message is used",
		Header: []string{"update policy", "table msgs", "loc-flush msgs", "scion msgs",
			"locations piggybacked", "piggyback bytes", "app msgs"},
		Shape: "lazy policy uses zero location messages (all updates ride consistency traffic)",
	}
	run := func(eager bool) []int64 {
		cl := newCluster(2, 0)
		n1, n2 := cl.Node(0), cl.Node(1)
		b := n1.NewBunch()
		g, err := trace.BuildList(n1, b, 30)
		if err != nil {
			panic(err)
		}
		if err := trace.Share(g.Objects, n2); err != nil {
			panic(err)
		}
		st := cl.Stats()
		st.Reset()
		for round := 0; round < 5; round++ {
			if err := trace.MutateValues(n2, g, 10, int64(round)); err != nil {
				panic(err)
			}
			n1.CollectBunch(b)
			if eager {
				n1.FlushLocations()
			}
			cl.Run(0)
		}
		return []int64{
			st.Get("msg.sent.kind.gc.table"),
			st.Get("msg.sent.kind.gc.locFlush"),
			st.Get("core.scionMsgs"),
			st.Get("core.loc.piggybacked"),
			st.Get("bytes.piggyback"),
			st.Get("msg.sent.app"),
		}
	}
	lazy := run(false)
	eager := run(true)
	t.AddRow(append([]any{"lazy (piggyback, the paper's design)"}, toAny(lazy)...)...)
	t.AddRow(append([]any{"eager (explicit background flush)"}, toAny(eager)...)...)
	t.Note("table msgs are the amortized reachability snapshots of §6; they are not on any application path")
	t.Pass = lazy[1] == 0 && lazy[3] > 0 && eager[1] > 0
	return t
}

func toAny(xs []int64) []any {
	out := make([]any, len(xs))
	for i, x := range xs {
		out[i] = x
	}
	return out
}

// RunE4 measures the flip pauses of the concurrent collector against heap
// size, versus a stop-the-world collection of the same heaps.
func RunE4() Table {
	t := Table{
		ID:    "E4",
		Title: "Collection pause vs heap size (single node, 8 mutator writes during GC)",
		Claim: "§4.1: the time to flip is very small and therefore not disruptive to applications",
		Header: []string{"objects", "concurrent pause (roots+flip)", "STW pause (whole collection)",
			"concurrent/STW"},
		Shape: "concurrent pause stays flat while the STW pause grows with the heap",
	}
	var cpauses, stws []uint64
	for _, n := range []int{64, 128, 256, 512} {
		// Concurrent: mutator runs between snapshot and trace.
		cl := newCluster(1, 0)
		nd := cl.Node(0)
		b := nd.NewBunch()
		g, err := trace.BuildList(nd, b, n)
		if err != nil {
			panic(err)
		}
		cs := nd.CollectBunchOpts(b, core.CollectOpts{DuringTrace: func() {
			if err := trace.MutateValues(nd, g, 8, 1); err != nil {
				panic(err)
			}
		}})
		cpause := cs.PauseRootTicks + cs.PauseFlipTicks

		// Stop-the-world: the whole collection is the pause.
		cl2 := newCluster(1, 0)
		nd2 := cl2.Node(0)
		b2 := nd2.NewBunch()
		if _, err := trace.BuildList(nd2, b2, n); err != nil {
			panic(err)
		}
		stw := nd2.CollectBunch(b2).TotalTicks

		t.AddRow(n, cpause, stw, float64(cpause)/float64(stw))
		cpauses = append(cpauses, cpause)
		stws = append(stws, stw)
	}
	growC := float64(cpauses[len(cpauses)-1]) / float64(cpauses[0])
	growS := float64(stws[len(stws)-1]) / float64(stws[0])
	t.Note("pause growth over 8x heap: concurrent %.2fx, STW %.2fx", growC, growS)
	t.Pass = growC < 2 && growS > 4
	return t
}

// RunE5 sweeps background-message loss: the idempotent table messages of §6
// versus Bevan-style increment/decrement reference counting.
func RunE5() Table {
	t := Table{
		ID:    "E5",
		Title: "Correctness under background-message loss (tables vs inc/dec refcount)",
		Claim: "§6.1: in case of message loss [reachability tables] can be resent without " +
			"the need for a reliable communication protocol",
		Header: []string{"loss", "BMX rounds to reclaim", "BMX live objects lost", "BMX dead objects leaked",
			"refcount early frees", "refcount leaks"},
		Shape: "BMX: zero violations and eventual reclamation at every loss rate; refcount: violations once loss > 0",
	}
	ok := true
	for _, loss := range []float64{0, 0.1, 0.3, 0.5} {
		// BMX: cross-node, cross-bunch references; half die, half stay.
		cl := newCluster(2, loss)
		n1, n2 := cl.Node(0), cl.Node(1)
		b1 := n1.NewBunch()
		b2 := n2.NewBunch()
		const k = 10
		var dead, live []cluster.Ref
		src, err := n1.Alloc(b1, 2*k)
		if err != nil {
			panic(err)
		}
		n1.AddRoot(src)
		for i := 0; i < k; i++ {
			d := n2.MustAlloc(b2, 1)
			l := n2.MustAlloc(b2, 1)
			if err := n1.AcquireRead(d); err != nil {
				panic(err)
			}
			if err := n1.AcquireRead(l); err != nil {
				panic(err)
			}
			if err := n1.WriteRef(src, 2*i, d); err != nil {
				panic(err)
			}
			if err := n1.WriteRef(src, 2*i+1, l); err != nil {
				panic(err)
			}
			dead, live = append(dead, d), append(live, l)
		}
		settle(cl, 1)
		// Cut the dead half.
		if err := n1.AcquireWrite(src); err != nil {
			panic(err)
		}
		for i := 0; i < k; i++ {
			if err := n1.WriteRef(src, 2*i, cluster.Nil); err != nil {
				panic(err)
			}
		}
		rounds := 0
		for ; rounds < 14; rounds++ {
			settle(cl, 1)
			if countPresent(n2, dead) == 0 {
				break
			}
		}
		leaked := countPresent(n2, dead)
		lost := len(live) - countPresent(n2, live)

		// Reference counting on the same logical pattern, scaled up to
		// make loss effects visible.
		sys := baseline.NewRefCountSystem(2, 7, loss)
		const rk = 300
		for o := 1; o <= rk; o++ {
			sys.Create(0, addr.OID(o))
			sys.AddRef(1, 0, addr.OID(o))
		}
		sys.Deliver()
		for o := 1; o <= rk; o++ {
			sys.DropRef(0, 0, addr.OID(o))
		}
		sys.Deliver()
		for o := 1; o <= rk/2; o++ {
			sys.DropRef(1, 0, addr.OID(o))
		}
		sys.Deliver()
		early, leaks := sys.Audit()

		t.AddRow(fmt.Sprintf("%.0f%%", loss*100), rounds+1, lost, leaked, early, leaks)
		ok = ok && lost == 0 && leaked == 0
		if loss > 0 {
			ok = ok && (early > 0 || leaks > 0)
		} else {
			ok = ok && early == 0 && leaks == 0
		}
	}
	t.Pass = ok
	return t
}

func countPresent(nd *cluster.Node, objs []cluster.Ref) int {
	n := 0
	for _, o := range objs {
		if _, ok := nd.DSM().Canonical(o.OID); ok {
			n++
		}
	}
	return n
}
