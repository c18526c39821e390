package exp

import (
	"fmt"

	"bmx/internal/baseline"
	"bmx/internal/cluster"
	"bmx/internal/trace"
)

// RunE6 measures how many BGC+cleaner rounds a distributed acyclic chain of
// garbage needs to unwind, against the chain length.
func RunE6() Table {
	t := Table{
		ID:    "E6",
		Title: "Rounds to reclaim a cut cross-bunch chain vs chain length",
		Claim: "§6: the scion cleaner removes scions no longer reachable from any stub; " +
			"transitively, acyclic distributed garbage is reclaimed bunch by bunch",
		Header: []string{"chain length", "nodes", "rounds to full reclamation", "objects reclaimed"},
		Shape:  "rounds grow roughly linearly with the chain length (one bunch hop per round); everything is reclaimed",
	}
	var rounds []int
	ok := true
	for _, L := range []int{1, 2, 4, 8} {
		nodes := L
		if nodes > 4 {
			nodes = 4
		}
		cl := newCluster(nodes, 0)
		// Bunch i lives at node i%nodes; object i (in bunch i) references
		// object i+1 (in bunch i+1).
		var objs []cluster.Ref
		var bunches []struct {
			b  int
			nd *cluster.Node
		}
		for i := 0; i <= L; i++ {
			nd := cl.Node(i % nodes)
			b := nd.NewBunch()
			o := nd.MustAlloc(b, 1)
			objs = append(objs, o)
			bunches = append(bunches, struct {
				b  int
				nd *cluster.Node
			}{int(b), nd})
		}
		head := cl.Node(0)
		head.AddRoot(objs[0])
		for i := 0; i < L; i++ {
			holder := cl.Node(i % nodes)
			if err := holder.AcquireWrite(objs[i]); err != nil {
				panic(err)
			}
			if err := holder.AcquireRead(objs[i+1]); err != nil {
				panic(err)
			}
			if err := holder.WriteRef(objs[i], 0, objs[i+1]); err != nil {
				panic(err)
			}
		}
		settle(cl, 1)
		// Cut the head.
		head.RemoveRoot(objs[0])
		r := 0
		for ; r < 4*L+8; r++ {
			settle(cl, 1)
			gone := true
			for i, o := range objs {
				if _, present := cl.Node(i % nodes).DSM().Canonical(o.OID); present {
					gone = false
					break
				}
			}
			if gone {
				break
			}
		}
		reclaimed := 0
		for i, o := range objs {
			if _, present := cl.Node(i % nodes).DSM().Canonical(o.OID); !present {
				reclaimed++
			}
		}
		t.AddRow(L, nodes, r+1, fmt.Sprintf("%d/%d", reclaimed, len(objs)))
		rounds = append(rounds, r+1)
		ok = ok && reclaimed == len(objs)
	}
	t.Pass = ok && rounds[len(rounds)-1] > rounds[0]
	return t
}

// RunE7 compares application disruption of BMX collections against the
// strongly consistent whole-space collector as the cluster grows.
func RunE7() Table {
	t := Table{
		ID:    "E7",
		Title: "Collection disruption vs cluster size (40 shared objects, GC at every node)",
		Claim: "§9: applying a strongly-consistent GC to weak DSM makes the overhead " +
			"unacceptable due to communication and synchronization costs",
		Header: []string{"nodes", "BMX GC invalidations", "BMX consistent replicas kept",
			"strong GC invalidations", "strong GC token acquires", "strong GC pause"},
		Shape: "BMX invalidations stay 0 at every size; strong-GC work grows with the cluster",
	}
	ok := true
	var strongInv []int64
	for _, k := range []int{2, 4, 8} {
		build := func() (*cluster.Cluster, trace.Graph, interface{ String() string }) {
			cl := newCluster(k, 0)
			n0 := cl.Node(0)
			b := n0.NewBunch()
			g, err := trace.BuildList(n0, b, 40)
			if err != nil {
				panic(err)
			}
			var others []*cluster.Node
			for i := 1; i < k; i++ {
				others = append(others, cl.Node(i))
			}
			if err := trace.Share(g.Objects, others...); err != nil {
				panic(err)
			}
			return cl, g, b
		}
		// BMX: every node collects its replica.
		cl, g, _ := build()
		inv0 := cl.Stats().Get("dsm.invalidation.gc")
		settle(cl, 1)
		bmxInv := cl.Stats().Get("dsm.invalidation.gc") - inv0
		bmxCons := consistentReplicas(cl, g)

		// Strong: whole-space stop-the-world collection.
		cl2, _, _ := build()
		ss, err := baseline.StrongCollectAll(cl2)
		if err != nil {
			panic(err)
		}
		t.AddRow(k, bmxInv, bmxCons, ss.Invalidations, ss.TokenAcquires, ss.PauseTicks)
		ok = ok && bmxInv == 0 && ss.Invalidations > 0
		strongInv = append(strongInv, ss.Invalidations)
	}
	t.Pass = ok && strongInv[len(strongInv)-1] > strongInv[0]
	return t
}

// RunE8 measures the write barrier: every write is instrumented (§3.2/§8),
// and only the inter-bunch fraction creates SSPs and scion-messages.
func RunE8() Table {
	t := Table{
		ID:    "E8",
		Title: "Write-barrier activity vs inter-bunch write fraction (200 reference writes)",
		Claim: "§3.2: an inter-bunch SSP is constructed immediately after detecting the " +
			"creation of the corresponding inter-bunch reference, detected with a write-barrier",
		Header: []string{"inter-bunch fraction", "barrier events", "SSPs created", "scion msgs"},
		Shape:  "barrier sees every write; SSPs and scion-messages scale only with the inter-bunch fraction",
	}
	ok := true
	for _, frac := range []float64{0, 0.01, 0.1, 0.5} {
		cl := newCluster(2, 0)
		n1, n2 := cl.Node(0), cl.Node(1)
		b1 := n1.NewBunch()
		b2 := n2.NewBunch() // only mapped at n2: its scions need messages
		const writes = 200
		interN := int(frac * writes)
		var sources, locals, remotes []cluster.Ref
		for i := 0; i < writes; i++ {
			sources = append(sources, n1.MustAlloc(b1, 1))
			locals = append(locals, n1.MustAlloc(b1, 1))
		}
		for i := 0; i < interN; i++ {
			r := n2.MustAlloc(b2, 1)
			if err := n1.AcquireRead(r); err != nil {
				panic(err)
			}
			remotes = append(remotes, r)
		}
		st := cl.Stats()
		st.Reset()
		for i := 0; i < writes; i++ {
			var tgt cluster.Ref
			if i < interN {
				tgt = remotes[i]
			} else {
				tgt = locals[i]
			}
			if err := n1.WriteRef(sources[i], 0, tgt); err != nil {
				panic(err)
			}
		}
		barrier := st.Get("core.barrier.writes")
		ssps := st.Get("core.barrier.interBunch")
		scions := st.Get("core.scionMsgs")
		t.AddRow(fmt.Sprintf("%.0f%%", frac*100), barrier, ssps, scions)
		ok = ok && barrier == writes && ssps == int64(interN) && scions == int64(interN)
	}
	t.Pass = ok
	return t
}

// RunE9 exercises the RVM-backed persistence of §8: checkpoint, logged
// mutations, crash, recovery.
func RunE9() Table {
	t := Table{
		ID:    "E9",
		Title: "Crash recovery of a checkpointed bunch with logged mutations",
		Claim: "§2.1/§8: every modification performed on the bunch's range of addresses " +
			"has an associated log entry and can be recovered after a system failure",
		Header: []string{"objects", "synced mutations", "unsynced mutations", "recovered intact",
			"unsynced discarded", "disk bytes synced"},
		Shape: "everything up to the last Sync recovers exactly; everything after it vanishes",
	}
	ok := true
	for _, n := range []int{32, 128} {
		cl := cluster.New(cluster.Config{Nodes: 1, SegWords: 512, Seed: 1, WithDisk: true})
		nd := cl.Node(0)
		b := nd.NewBunch()
		g, err := trace.BuildList(nd, b, n)
		if err != nil {
			panic(err)
		}
		if err := nd.Checkpoint(b); err != nil {
			panic(err)
		}
		const synced, unsynced = 12, 7
		for i := 0; i < synced; i++ {
			if err := nd.WriteWord(g.Objects[i], 1, 1000+uint64(i)); err != nil {
				panic(err)
			}
		}
		nd.Sync()
		for i := 0; i < unsynced; i++ {
			if err := nd.WriteWord(g.Objects[n-1-i], 1, 2000+uint64(i)); err != nil {
				panic(err)
			}
		}
		if err := nd.Crash(b); err != nil {
			panic(err)
		}
		if err := nd.RecoverBunch(b); err != nil {
			panic(err)
		}
		intact := true
		// Synced mutations present.
		for i := 0; i < synced; i++ {
			if v, err := nd.ReadWord(g.Objects[i], 1); err != nil || v != 1000+uint64(i) {
				intact = false
			}
		}
		// Unsynced mutations rolled back to their pre-crash durable value.
		discarded := true
		for i := 0; i < unsynced; i++ {
			idx := n - 1 - i
			if v, err := nd.ReadWord(g.Objects[idx], 1); err != nil || v != uint64(idx) {
				discarded = false
			}
		}
		// The list structure itself survived.
		cur := g.Root
		for i := 0; i < n-1; i++ {
			next, err := nd.ReadRef(cur, 0)
			if err != nil || next.IsNil() {
				intact = false
				break
			}
			cur = next
		}
		_, syncedBytes, _ := nd.Disk().Stats()
		t.AddRow(n, synced, unsynced, intact, discarded, syncedBytes)
		ok = ok && intact && discarded
	}
	t.Pass = ok
	return t
}

// RunA1 ablates the intra-bunch SSP design decision of §3.2 against
// replicating inter-bunch SSPs on every ownership transfer.
func RunA1() Table {
	t := Table{
		ID:    "A1",
		Title: "Ownership migration chain: intra-bunch SSPs vs replicated inter-bunch SSPs",
		Claim: "§3.2: if inter-bunch SSPs were replicated, each time object ownership changes " +
			"a new inter-bunch SSP would have to be created, implying the corresponding scion-message",
		Header: []string{"transfers", "design", "scion msgs", "intra SSPs", "replicated SSPs"},
		Shape:  "intra-bunch design sends a constant number of scion-messages; replication grows with transfers",
	}
	ok := true
	for _, k := range []int{1, 2, 4, 8} {
		run := func(replicate bool) (scions, intra, repl int64) {
			// k hop targets plus a dedicated node hosting the referenced
			// bunch, so every replicated SSP needs a real scion-message.
			nodes := k + 2
			cl := newCluster(nodes, 0)
			if replicate {
				for i := 0; i < nodes; i++ {
					cl.Node(i).Collector().SetReplicateInterSSPs(true)
				}
			}
			n0 := cl.Node(0)
			b := n0.NewBunch()
			bT := cl.Node(nodes - 1).NewBunch() // targets live at the last node
			o := n0.MustAlloc(b, 4)
			n0.AddRoot(o)
			for f := 0; f < 4; f++ {
				tgt := cl.Node(nodes-1).MustAlloc(bT, 1)
				if err := n0.AcquireRead(tgt); err != nil {
					panic(err)
				}
				if err := n0.WriteRef(o, f, tgt); err != nil {
					panic(err)
				}
			}
			st := cl.Stats()
			base := st.Get("core.scionMsgs")
			// Ownership hops along k distinct nodes.
			for i := 1; i <= k; i++ {
				if err := cl.Node(i).MapBunch(b); err != nil {
					panic(err)
				}
				if err := cl.Node(i).AcquireWrite(o); err != nil {
					panic(err)
				}
			}
			return st.Get("core.scionMsgs") - base,
				st.Get("core.intraSSP.created"),
				st.Get("core.ssp.replicated")
		}
		iScions, iIntra, _ := run(false)
		rScions, _, rRepl := run(true)
		t.AddRow(k, "intra-bunch SSP (paper)", iScions, iIntra, 0)
		t.AddRow(k, "replicated inter SSP", rScions, 0, rRepl)
		ok = ok && iScions == 0 && rScions == int64(4*k) && iIntra >= 1
	}
	t.Pass = ok
	return t
}

// RunA2 ablates the lazy reference-update policy of §4.4: the tradeoff
// between address staleness and immediate update traffic.
func RunA2() Table {
	t := Table{
		ID:    "A2",
		Title: "Lazy vs eager propagation of new object locations (4 collect rounds)",
		Claim: "§4.4: there is a tradeoff between how consistent the addresses are going " +
			"to be and the overhead of immediately executing the updates at the remote nodes",
		Header: []string{"policy", "loc-flush msgs", "stale addresses after GC (avg)",
			"stale after next sync"},
		Shape: "lazy: zero messages but transient staleness healed at synchronization; eager: messages buy immediacy",
	}
	run := func(eager bool) (flush int64, staleAvg float64, staleAfterSync int) {
		cl := newCluster(2, 0)
		n1, n2 := cl.Node(0), cl.Node(1)
		b := n1.NewBunch()
		g, err := trace.BuildList(n1, b, 20)
		if err != nil {
			panic(err)
		}
		if err := trace.Share(g.Objects, n2); err != nil {
			panic(err)
		}
		st := cl.Stats()
		st.Reset()
		staleSum := 0
		for round := 0; round < 4; round++ {
			n1.CollectBunch(b)
			if eager {
				n1.FlushLocations()
			}
			cl.Run(0)
			staleSum += staleCount(n1, n2, g)
		}
		// One real synchronization pass: n1 writes (revoking n2's cached
		// read tokens), then n2 re-reads — the grant replies deliver the
		// current locations (invariant 1).
		for i, o := range g.Objects {
			if err := n1.AcquireWrite(o); err != nil {
				panic(err)
			}
			if err := n1.WriteWord(o, 1, uint64(i)); err != nil {
				panic(err)
			}
			if err := n2.AcquireRead(o); err != nil {
				panic(err)
			}
		}
		cl.Run(0)
		return st.Get("msg.sent.kind.gc.locFlush"), float64(staleSum) / 4, staleCount(n1, n2, g)
	}
	lf, ls, lsync := run(false)
	ef, es, esync := run(true)
	t.AddRow("lazy (paper default)", lf, ls, lsync)
	t.AddRow("eager flush", ef, es, esync)
	t.Pass = lf == 0 && ls > 0 && lsync == 0 && ef > 0 && es == 0 && esync == 0
	return t
}

// staleCount counts objects whose canonical address at b differs from the
// owner-side canonical address at a.
func staleCount(a, b *cluster.Node, g trace.Graph) int {
	n := 0
	for _, o := range g.Objects {
		ca, oka := a.DSM().Canonical(o.OID)
		cb, okb := b.DSM().Canonical(o.OID)
		if oka && okb && ca != cb {
			n++
		}
	}
	return n
}
