package exp

import (
	"bmx/internal/addr"
	"bmx/internal/cluster"
	"bmx/internal/dsm"
	"bmx/internal/trace"
)

// RunA3 exercises the paper's generality claim: the collector is orthogonal
// to the consistency protocol (§1) and should generalize to other protocols
// (§10 future work). The same shared mutate/collect workload runs under
// entry consistency and under a strict (no read caching) variant; the
// collector's independence properties must hold identically, while the
// application-level traffic differs exactly as the protocols predict.
func RunA3() Table {
	t := Table{
		ID:    "A3",
		Title: "Protocol generality: the same workload under entry vs strict consistency",
		Claim: "§1: our GC algorithm is orthogonal to DSM consistency ... generally " +
			"applicable to other consistency protocols (§10 future work)",
		Header: []string{"protocol", "app msgs", "app invalidations", "GC token acquires",
			"GC invalidations", "dead reclaimed"},
		Shape: "GC columns are zero under both protocols; strict consistency pays more application messages",
	}
	run := func(p dsm.Protocol) []int64 {
		cl := cluster.New(cluster.Config{
			Nodes: 3, SegWords: 512, Seed: 1, Consistency: p,
		})
		n1 := cl.Node(0)
		b := n1.NewBunch()
		g, err := trace.BuildList(n1, b, 24)
		if err != nil {
			panic(err)
		}
		if err := trace.Share(g.Objects, cl.Node(1), cl.Node(2)); err != nil {
			panic(err)
		}
		st := cl.Stats()
		st.Reset()
		for round := 0; round < 4; round++ {
			// Read phase at every node: strict consistency re-fetches,
			// entry consistency hits the cached token.
			for i := 0; i < cl.Nodes(); i++ {
				nd := cl.Node(i)
				for _, o := range g.Objects {
					if err := nd.AcquireRead(o); err != nil {
						panic(err)
					}
					if _, err := nd.ReadWord(o, 1); err != nil {
						panic(err)
					}
					nd.Release(o)
				}
			}
			// A little churn, then collections everywhere.
			if _, err := trace.Churn(n1, g, 0.05, int64(round)); err != nil {
				panic(err)
			}
			for i := 0; i < cl.Nodes(); i++ {
				cl.Node(i).CollectBunch(b)
			}
			cl.Run(0)
		}
		return []int64{
			st.Get("msg.sent.app"),
			st.Get("dsm.invalidation.app"),
			st.Get("dsm.acquire.r.gc") + st.Get("dsm.acquire.w.gc"),
			st.Get("dsm.invalidation.gc"),
			st.Get("core.gc.dead"),
		}
	}
	entry := run(dsm.ProtocolEntry)
	strict := run(dsm.ProtocolStrict)
	t.AddRow(append([]any{"entry consistency (paper)"}, toAny(entry)...)...)
	t.AddRow(append([]any{"strict (no read caching)"}, toAny(strict)...)...)
	t.Pass = entry[2] == 0 && entry[3] == 0 && strict[2] == 0 && strict[3] == 0 &&
		strict[0] > entry[0] && entry[4] > 0 && strict[4] > 0
	return t
}

// RunA4 measures the impact of the consistency granularity (§10 future
// work): one token per object (the paper's unit) versus one token per
// allocation segment (page-grain false sharing).
func RunA4() Table {
	t := Table{
		ID:    "A4",
		Title: "Consistency granularity: per-object vs per-segment tokens (2 writers)",
		Claim: "§10: we are also evaluating the impact of the consistency granularity on our approach",
		Header: []string{"granularity", "app token acquires", "app invalidations", "app msgs",
			"GC token acquires"},
		Shape: "segment grain multiplies acquisitions and invalidations (false sharing); the collector stays at zero under both",
	}
	run := func(coarse bool) []int64 {
		cl := cluster.New(cluster.Config{
			Nodes: 2, SegWords: 128, Seed: 1, SegmentGrainTokens: coarse,
		})
		n1, n2 := cl.Node(0), cl.Node(1)
		b := n1.NewBunch()
		g, err := trace.BuildList(n1, b, 16)
		if err != nil {
			panic(err)
		}
		if err := trace.Share(g.Objects, n2); err != nil {
			panic(err)
		}
		st := cl.Stats()
		st.Reset()
		// Two nodes ping-pong writes on alternating objects: with
		// per-segment tokens each write drags the whole co-located
		// population along.
		for round := 0; round < 3; round++ {
			for i, o := range g.Objects {
				w := n1
				if i%2 == 1 {
					w = n2
				}
				if err := w.AcquireWrite(o); err != nil {
					panic(err)
				}
				if err := w.WriteWord(o, 1, uint64(round)); err != nil {
					panic(err)
				}
			}
		}
		n1.CollectBunch(b)
		n2.CollectBunch(b)
		cl.Run(0)
		return []int64{
			st.Get("dsm.acquire.w.app") + st.Get("dsm.acquire.r.app"),
			st.Get("dsm.invalidation.app"),
			st.Get("msg.sent.app"),
			st.Get("dsm.acquire.r.gc") + st.Get("dsm.acquire.w.gc"),
		}
	}
	fine := run(false)
	coarse := run(true)
	t.AddRow(append([]any{"per object (paper)"}, toAny(fine)...)...)
	t.AddRow(append([]any{"per segment"}, toAny(coarse)...)...)
	t.Note("coarse/fine acquire ratio: %.1fx", float64(coarse[0])/float64(fine[0]))
	t.Pass = fine[3] == 0 && coarse[3] == 0 &&
		coarse[0] > 2*fine[0] && coarse[2] > fine[2]
	return t
}

// RunA5 ablates the GGC grouping heuristic (§7): the paper's locality-based
// whole-site group versus the improved SSP-connectivity components its
// future work suggests.
func RunA5() Table {
	t := Table{
		ID:    "A5",
		Title: "GGC grouping heuristic: whole site vs SSP-connected components",
		Claim: "§7: bunches are grouped based on a heuristic that maximizes the amount of " +
			"inter-bunch garbage collected and minimizes the cost ... we believe some " +
			"cycles can be collected by improving the grouping heuristic",
		Header: []string{"heuristic", "collections", "objects scanned", "cycles reclaimed",
			"pause ticks"},
		Shape: "connected components reclaim the same cycles while scanning fewer objects per collection",
	}
	build := func() *cluster.Cluster {
		cl := cluster.New(cluster.Config{Nodes: 1, SegWords: 512})
		n := cl.Node(0)
		// Two dead 2-cycles in separate bunch pairs plus a large live
		// isolated bunch.
		for c := 0; c < 2; c++ {
			b1 := n.NewBunch()
			b2 := n.NewBunch()
			x := n.MustAlloc(b1, 1)
			y := n.MustAlloc(b2, 1)
			if err := n.WriteRef(x, 0, y); err != nil {
				panic(err)
			}
			if err := n.WriteRef(y, 0, x); err != nil {
				panic(err)
			}
		}
		iso := n.NewBunch()
		g, err := trace.BuildList(n, iso, 60)
		if err != nil {
			panic(err)
		}
		_ = g
		return cl
	}

	cl1 := build()
	whole := cl1.Node(0).CollectGroup(nil)
	t.AddRow("whole site (paper)", 1, whole.Scanned, whole.Dead/2, whole.PauseRootTicks+whole.PauseFlipTicks)

	cl2 := build()
	n2 := cl2.Node(0)
	groups := n2.ConnectedGroups()
	conn := n2.CollectConnectedGroups()
	t.AddRow("SSP-connected components", len(groups), conn.Scanned, conn.Dead/2,
		conn.PauseRootTicks+conn.PauseFlipTicks)
	t.Note("components found: %d (two cycle pairs + one isolated live bunch)", len(groups))
	t.Pass = whole.Dead == 4 && conn.Dead == 4 && len(groups) == 3
	return t
}

// RunE10 tests the premise of §3: an application's object graph is too
// large to collect at once, so bunches are collected independently. The
// same heap is split into 1, 4 or 16 bunches; the largest single
// collection (the unit of disruption) shrinks with the split while the
// total work stays in the same ballpark.
func RunE10() Table {
	t := Table{
		ID:    "E10",
		Title: "Incrementality: one heap of 240 objects split into k independently collected bunches",
		Claim: "§3: it would not be feasible to collect all objects of an application at the " +
			"same time; our algorithm collects each bunch independently of any other bunch",
		Header: []string{"bunches", "collections", "max ticks per collection", "total ticks",
			"max scanned per collection"},
		Shape: "the largest single collection shrinks as the heap is split; total work stays comparable",
	}
	const totalObjects = 240
	var maxTicks []uint64
	var totals []uint64
	for _, k := range []int{1, 4, 16} {
		cl := cluster.New(cluster.Config{Nodes: 1, SegWords: 512, Seed: 1})
		n := cl.Node(0)
		per := totalObjects / k
		var worst, total uint64
		worstScan := 0
		var bunches []addr.BunchID
		for i := 0; i < k; i++ {
			b := n.NewBunch()
			if _, err := trace.BuildList(n, b, per); err != nil {
				panic(err)
			}
			bunches = append(bunches, b)
		}
		for _, bi := range bunches {
			st := n.CollectBunch(bi)
			if st.TotalTicks > worst {
				worst = st.TotalTicks
			}
			if st.Scanned > worstScan {
				worstScan = st.Scanned
			}
			total += st.TotalTicks
			cl.Run(0)
		}
		t.AddRow(k, k, worst, total, worstScan)
		maxTicks = append(maxTicks, worst)
		totals = append(totals, total)
	}
	t.Pass = maxTicks[2] < maxTicks[0]/4 &&
		float64(totals[2]) < 2*float64(totals[0])
	return t
}
