// Multi-process mode: -listen/-peers turn this bmxd process into one node
// of a real-socket cluster. Every process is started with the same address
// set (its own -listen plus the others as -peers); identity is the rank of
// the process's address in the sorted set, and rank 0 — the seed — owns the
// authoritative directory and drives the workload. The other processes
// follow a minimal control protocol ("ctl.*" synchronous calls): map the
// shared bunch, mutate on command, collect on command, report counters,
// shut down. Collections run in every process; the paper's independence
// probes are re-asserted per process and from the merged trace files.
package main

import (
	"encoding/gob"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"bmx"
	"bmx/internal/addr"
	"bmx/internal/obs"
	"bmx/internal/obs/heat"
	"bmx/internal/trace"
	"bmx/internal/transport"
)

// The driver-protocol payloads. Registered for the TCP transport's gob
// payload codec; every process runs the same binary.
type ctlMapReq struct{ Bunch addr.BunchID }

type ctlMutateReq struct {
	OIDs  []uint64
	Round uint64
}

type ctlAck struct{ N int }

type ctlStatsReply struct{ Counters map[string]int64 }

// ctlHeatReply carries one process's heat-table snapshot to the seed
// (ctl.heat); the seed merges the snapshots by Lamport order into the
// cluster-wide table (see PROTOCOL.md).
type ctlHeatReply struct{ Rows []heat.Row }

func init() {
	gob.Register(ctlMapReq{})
	gob.Register(ctlMutateReq{})
	gob.Register(ctlAck{})
	gob.Register(ctlStatsReply{})
	gob.Register(ctlHeatReply{})
}

// mutatedValue is the word every commanded write stores: recomputable by
// the seed for the convergence audit.
func mutatedValue(round uint64, idx int) uint64 { return round*1_000_000 + uint64(idx) }

type peerOpts struct {
	listen   string
	peers    []string
	workload string
	objects  int
	rounds   int
	gcEvery  int
	churn    float64
	seed     int64
	traceOut string
	verbose  bool
	// seriesOut/benchOut reuse the simulated driver's -series-json and
	// -bench-json artifacts; the seed cuts one sample per round, so a TCP
	// run diffs against a simnet run with bmxstat -bench A -diff B.
	seriesOut string
	benchOut  string
}

// runPeerCluster is the -listen entry point; it never returns.
func runPeerCluster(o peerOpts) {
	if len(o.peers) == 0 {
		fatalf("bmxd: -listen needs -peers (the other processes' addresses)")
	}
	p, err := bmx.NewPeer(bmx.PeerConfig{Listen: o.listen, Peers: o.peers, Seed: o.seed})
	if err != nil {
		fatalf("bmxd: %v", err)
	}
	defer p.Close()
	cl := p.Cluster()
	// Every process accounts access locality: the seed harvests the tables
	// over ctl.heat at the end and merges them by Lamport order, so the
	// cluster-wide heatmap exists whether or not tracing is on.
	cl.EnableHeat()
	if o.traceOut != "" {
		cl.Observer().SetRingSize(1 << 16)
		cl.EnableTracing()
	}
	if err := p.WaitReady(30 * time.Second); err != nil {
		fatalf("bmxd: node %v: %v", p.ID(), err)
	}
	fmt.Fprintf(os.Stderr, "bmxd: node %v of %d up at %s\n", p.ID(), p.Size(), p.Transport().Addr())
	if p.IsSeed() {
		drivePeerCluster(p, o)
	} else {
		followPeerCluster(p, o)
	}
}

// followPeerCluster serves ctl calls until the seed says shutdown, then
// audits its own counters, writes its trace and exits.
func followPeerCluster(p *bmx.Peer, o peerOpts) {
	n := p.Node()
	done := make(chan struct{})
	tick := make(chan struct{}, 1)
	p.SetControl(func(m transport.Msg) (any, int, error) {
		select {
		case tick <- struct{}{}:
		default:
		}
		switch m.Kind {
		case "ctl.map":
			req := m.Payload.(ctlMapReq)
			if err := n.MapBunch(req.Bunch); err != nil {
				return nil, 0, err
			}
			return ctlAck{}, 8, nil
		case "ctl.mutate":
			req := m.Payload.(ctlMutateReq)
			for i, raw := range req.OIDs {
				r := bmx.Ref{OID: addr.OID(raw)}
				if err := n.AcquireWrite(r); err != nil {
					return nil, 0, fmt.Errorf("acquire %v: %w", r, err)
				}
				// The last word is the payload slot in every workload layout;
				// the earlier words are pointer fields and must stay intact or
				// the subtree genuinely dies and the collector reclaims it.
				sz, err := n.Size(r)
				if err != nil {
					return nil, 0, err
				}
				if err := n.WriteWord(r, sz-1, mutatedValue(req.Round, i)); err != nil {
					return nil, 0, err
				}
				n.Release(r)
			}
			return ctlAck{N: len(req.OIDs)}, 8, nil
		case "ctl.collect":
			st := n.CollectBunches(nil)
			n.FlushLocations()
			return ctlAck{N: st.Dead}, 8, nil
		case "ctl.stats":
			return ctlStatsReply{Counters: p.Cluster().Stats().Snapshot()}, 64, nil
		case "ctl.heat":
			rows := p.Cluster().Heat().Snapshot()
			return ctlHeatReply{Rows: rows}, 16 + 64*len(rows), nil
		case "ctl.shutdown":
			// Reply first, then exit: the reply leaves on the conn's write
			// queue after this handler returns.
			go func() {
				time.Sleep(250 * time.Millisecond)
				close(done)
			}()
			return ctlAck{}, 8, nil
		}
		return nil, 0, fmt.Errorf("bmxd: unknown ctl kind %q", m.Kind)
	})
	// The seed drives every step and fatals on its own errors without
	// saying goodbye; prolonged silence means it is gone, and wedging here
	// forever would hang any harness waiting on this process.
	for waiting := true; waiting; {
		select {
		case <-done:
			waiting = false
		case <-tick:
		case <-time.After(60 * time.Second):
			fatalf("bmxd: node %v: no driver traffic for 60s, giving up", p.ID())
		}
	}
	writePeerTrace(p, o.traceOut)
	if msg, ok := auditIndependence(p.Cluster().Stats().Snapshot()); !ok {
		fatalf("bmxd: node %v FAILED: %s", p.ID(), msg)
	}
	fmt.Printf("bmxd: node %v SUCCESS\n", p.ID())
}

// drivePeerCluster is the seed: build the workload, command the rounds,
// audit convergence and the independence probes, shut everyone down.
func drivePeerCluster(p *bmx.Peer, o peerOpts) {
	n := p.Node()
	var others []addr.NodeID
	for i := 1; i < p.Size(); i++ {
		others = append(others, addr.NodeID(i))
	}

	intr := introspection{seriesPath: o.seriesOut, benchPath: o.benchOut}
	intr.start(p.Cluster())

	b := n.NewBunch()
	g, err := buildGraph(o.workload, n, b, o.objects, o.seed)
	if err != nil {
		fatalf("bmxd: %v", err)
	}
	for _, id := range others {
		if _, err := p.Control(id, "ctl.map", ctlMapReq{Bunch: b}, 16); err != nil {
			fatalf("bmxd: map at node %v: %v", id, err)
		}
	}

	// Edge model: every workload layout keeps its ref fields in words
	// 0..size-2 and the payload in the last word. The seed walks the graph
	// once while everything is still local, then mirrors each link cut in
	// the model, so it always knows which objects must survive — and which
	// ones the per-process collections must prove dead across real sockets.
	edges := make(map[addr.OID][]bmx.Ref, len(g.Objects))
	for _, r := range g.Objects {
		if err := n.AcquireRead(r); err != nil {
			fatalf("bmxd: edge walk %v: %v", r, err)
		}
		sz, err := n.Size(r)
		if err != nil {
			fatalf("bmxd: edge walk %v: %v", r, err)
		}
		refs := make([]bmx.Ref, 0, sz-1)
		for w := 0; w < sz-1; w++ {
			t, err := n.ReadRef(r, w)
			if err != nil {
				fatalf("bmxd: edge walk %v: %v", r, err)
			}
			refs = append(refs, t)
		}
		edges[r.OID] = refs
		n.Release(r)
	}

	// Rounds: the seed mutates through the normal workload mutator and cuts
	// links (the simulated driver's churn discipline) to create garbage; one
	// follower per round rewrites every live object (tokens migrate to it);
	// every process collects its replica on the GC cadence.
	rng := rand.New(rand.NewSource(o.seed))
	cuts := 0
	lastRound := uint64(0)
	lastLive := g.Objects
	for r := 1; r <= o.rounds; r++ {
		if err := trace.MutateValues(n, g, 10, o.seed+int64(r)); err != nil {
			fatalf("bmxd: %v", err)
		}
		for _, obj := range g.Objects {
			if len(edges[obj.OID]) == 0 || edges[obj.OID][0].IsNil() ||
				rng.Float64() >= o.churn/float64(o.rounds) {
				continue
			}
			if err := n.AcquireWrite(obj); err != nil {
				fatalf("bmxd: cut %v: %v", obj, err)
			}
			if err := n.WriteRef(obj, 0, bmx.Nil); err != nil {
				fatalf("bmxd: cut %v: %v", obj, err)
			}
			n.Release(obj)
			edges[obj.OID][0] = bmx.Nil
			cuts++
		}
		lastLive = reachable(g, edges)
		oids := make([]uint64, len(lastLive))
		for i, obj := range lastLive {
			oids[i] = uint64(obj.OID)
		}
		writer := others[(r-1)%len(others)]
		lastRound = uint64(r)
		if _, err := p.Control(writer, "ctl.mutate",
			ctlMutateReq{OIDs: oids, Round: lastRound}, 16+8*len(oids)); err != nil {
			fatalf("bmxd: mutate at node %v: %v", writer, err)
		}
		if o.gcEvery > 0 && r%o.gcEvery == 0 {
			st := n.CollectBunches(nil)
			n.FlushLocations()
			if o.verbose {
				fmt.Printf("round %d: BGC at seed: live %d, dead %d\n",
					r, st.LiveStrong+st.LiveWeak, st.Dead)
			}
			for _, id := range others {
				raw, err := p.Control(id, "ctl.collect", ctlAck{}, 8)
				if err != nil {
					fatalf("bmxd: collect at node %v: %v", id, err)
				}
				if o.verbose {
					fmt.Printf("round %d: BGC at node %v: dead %d\n", r, id, raw.(ctlAck).N)
				}
			}
		}
		p.Cluster().Sample()
	}

	// Convergence: the seed re-acquires every still-reachable object and
	// must read the last commanded writer's values through whatever copies,
	// forwards and relocations the rounds produced. Objects severed by the
	// cuts are the collectors' business, not the audit's.
	mismatches := 0
	for i, r := range lastLive {
		if err := n.AcquireRead(r); err != nil {
			fatalf("bmxd: final acquire %v: %v", r, err)
		}
		sz, err := n.Size(r)
		if err != nil {
			fatalf("bmxd: final size %v: %v", r, err)
		}
		v, err := n.ReadWord(r, sz-1)
		if err != nil {
			fatalf("bmxd: final read %v: %v", r, err)
		}
		n.Release(r)
		if v != mutatedValue(lastRound, i) {
			mismatches++
			fmt.Fprintf(os.Stderr, "bmxd: object %v: read %d, want %d\n", r, v, mutatedValue(lastRound, i))
		}
	}

	// Independence probes, every process; while here, sum the reclaim
	// counters — with links cut the cluster must actually have collected
	// something, or the death-protocol exercise was vacuous.
	failures := 0
	seedCounters := p.Cluster().Stats().Snapshot()
	deadTotal := seedCounters["core.gc.dead"]
	if msg, ok := auditIndependence(seedCounters); !ok {
		failures++
		fmt.Fprintf(os.Stderr, "bmxd: seed FAILED: %s\n", msg)
	}
	for _, id := range others {
		raw, err := p.Control(id, "ctl.stats", ctlAck{}, 8)
		if err != nil {
			fatalf("bmxd: stats at node %v: %v", id, err)
		}
		c := raw.(ctlStatsReply).Counters
		deadTotal += c["core.gc.dead"]
		if msg, ok := auditIndependence(c); !ok {
			failures++
			fmt.Fprintf(os.Stderr, "bmxd: node %v FAILED: %s\n", id, msg)
		}
	}
	if cuts > 0 && o.gcEvery > 0 && deadTotal == 0 {
		failures++
		fmt.Fprintf(os.Stderr, "bmxd: FAILED: %d links cut but no process reclaimed anything\n", cuts)
	}

	// Harvest every process's heat table before shutting them down; the
	// merge resolves each object's owner by the highest Lamport tick, the
	// same rule bmxstat -heat applies to trace files.
	heatParts := [][]heat.Row{p.Cluster().Heat().Snapshot()}
	for _, id := range others {
		raw, err := p.Control(id, "ctl.heat", ctlAck{}, 8)
		if err != nil {
			fatalf("bmxd: heat at node %v: %v", id, err)
		}
		heatParts = append(heatParts, raw.(ctlHeatReply).Rows)
	}
	mergedHeat := heat.Merge(heatParts...)

	for _, id := range others {
		if _, err := p.Control(id, "ctl.shutdown", ctlAck{}, 8); err != nil {
			fmt.Fprintf(os.Stderr, "bmxd: shutdown at node %v: %v\n", id, err)
		}
	}
	writePeerTrace(p, o.traceOut)

	st := p.Cluster().Stats()
	fmt.Printf("multi-process cluster: %d processes, %d objects (%d cut, %d live), %d rounds, workload %s, %d reclaimed\n",
		p.Size(), len(g.Objects), cuts, len(lastLive), o.rounds, o.workload, deadTotal)
	fmt.Printf("seed app messages %d, gc messages %d, piggyback bytes %d\n",
		st.Get("msg.sent.app"), st.Get("msg.sent.gc"), st.Get("bytes.piggyback"))
	if mismatches != 0 || failures != 0 {
		fatalf("bmxd: FAILED: %d stale reads, %d probe violations", mismatches, failures)
	}
	fmt.Println("SUCCESS: converged across processes; collector acquired zero tokens everywhere")
	intr.finish(p.Cluster(), mergedHeat)
}

// reachable walks the seed's edge model from the root and returns the
// still-live objects in allocation order.
func reachable(g trace.Graph, edges map[addr.OID][]bmx.Ref) []bmx.Ref {
	seen := map[addr.OID]bool{g.Root.OID: true}
	stack := []bmx.Ref{g.Root}
	for len(stack) > 0 {
		o := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range edges[o.OID] {
			if !t.IsNil() && !seen[t.OID] {
				seen[t.OID] = true
				stack = append(stack, t)
			}
		}
	}
	live := make([]bmx.Ref, 0, len(seen))
	for _, o := range g.Objects {
		if seen[o.OID] {
			live = append(live, o)
		}
	}
	return live
}

// auditIndependence applies the §5 counter probe to one process's counters.
func auditIndependence(c map[string]int64) (string, bool) {
	if n := c["dsm.acquire.r.gc"] + c["dsm.acquire.w.gc"]; n != 0 {
		return fmt.Sprintf("collector acquired %d tokens", n), false
	}
	if n := c["dsm.invalidation.gc"]; n != 0 {
		return fmt.Sprintf("collector caused %d invalidations", n), false
	}
	return "", true
}

// writePeerTrace dumps this process's flight-recorder window as NDJSON,
// followed by its heat-table rows in the same stream. Events are stamped
// with the transport's Lamport clock, so the per-process files merge into
// one causally ordered stream (bmxstat -trace a,b,c), and the heat rows'
// ownership marks merge by the same ticks (bmxstat -heat -trace a,b,c).
func writePeerTrace(p *bmx.Peer, path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatalf("bmxd: %v", err)
	}
	defer f.Close()
	if err := obs.DumpJSON(f, p.Cluster().Observer().Events()); err != nil {
		fatalf("bmxd: %v", err)
	}
	if err := heat.WriteRowsNDJSON(f, p.Cluster().Heat().Snapshot()); err != nil {
		fatalf("bmxd: %v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// splitPeers parses the -peers list.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}
