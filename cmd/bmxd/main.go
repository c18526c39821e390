// Command bmxd drives a simulated BMX cluster through a configurable
// workload — allocation, sharing, mutation, churn — with periodic bunch
// collections, scion cleaning and group collections, then reports the
// system's accounting: message counts by class and kind, piggyback volume,
// token activity attributed to the application versus the collector, pause
// times and reclamation totals.
//
// Example:
//
//	bmxd -nodes 4 -objects 200 -rounds 20 -workload web -loss 0.1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"bmx"
	"bmx/internal/introspect"
	"bmx/internal/obs"
	"bmx/internal/obs/heat"
	"bmx/internal/store"
	"bmx/internal/trace"
)

// Settings every bmxd run uses: the simulated and the multi-process
// workload drivers collect on this cadence and cut links at this rate, and
// the chaos soak holds a delayed message this long.
const (
	gcEvery    = 2   // rounds between bunch collections (then a §4.5 reuse round per bunch)
	ggcEvery   = 5   // rounds between group collections at N1
	churn      = 0.2 // fraction of links cut over a run, spread evenly across its rounds
	zipfS      = 1.2 // zipf workload's skew exponent (larger = hotter head)
	delayTicks = 3   // chaos: ticks a delayed message is held
)

func main() {
	var (
		nodes    = flag.Int("nodes", 3, "cluster size")
		objects  = flag.Int("objects", 100, "objects in the workload graph")
		rounds   = flag.Int("rounds", 10, "mutate/collect rounds")
		workload = flag.String("workload", "list", "graph shape: list, tree, web, oo7, zipf (hot-object skew) or churn-heavy (high allocation/death)")
		bunchN   = flag.Int("bunches", 1, "shard the workload graph across this many bunches, each collected by its own BGC")
		protocol = flag.String("protocol", "entry", "consistency protocol: entry or strict")
		grain    = flag.String("grain", "object", "token granularity: object or segment")
		loss     = flag.Float64("loss", 0, "background message loss rate")
		seed     = flag.Int64("seed", 1, "workload and loss seed")

		traceOn   = flag.Bool("trace", false, "enable the flight recorder; dump its retained event window and histograms at exit")
		traceJSON = flag.Bool("trace-json", false, "like -trace, but dump events as newline-delimited JSON")
		statsJSON = flag.Bool("stats-json", false, "dump the final counters and histogram snapshots as JSON instead of text")

		httpAddr  = flag.String("http", "", "serve live introspection (/metrics, /events, /objects/<oid>, /series, /debug/pprof) on this address, e.g. :8080 or 127.0.0.1:0")
		httpHold  = flag.Bool("http-hold", false, "after the run, keep the introspection server alive until killed (scrape mode)")
		benchJSON = flag.String("bench-json", "", "write the run's benchmark summary (quantile trajectories + derived figures) as JSON to this file")

		storeKind = flag.String("store", "", "persistent store backend: mem, flatfs or lsm (empty = no persistence)")
		storeDir  = flag.String("store-dir", "", "flatfs only, and required by it: directory for the durable files, one subdirectory per node")

		listen   = flag.String("listen", "", "multi-process mode: serve this node on ADDR (host:port) and cluster with -peers; rank in the sorted address set is the node identity, rank 0 drives")
		peersArg = flag.String("peers", "", "multi-process mode: comma-separated listen addresses of the other bmxd processes")
		traceOut = flag.String("trace-out", "", "multi-process mode: write this process's flight-recorder events as NDJSON to FILE (mergeable across processes with bmxstat -trace a,b,c)")

		chaos      = flag.Bool("chaos", false, "run the seeded chaos soak instead of the workload driver")
		chaosSteps = flag.Int("chaos-steps", 400, "chaos: workload steps in the fault storm")
		dup        = flag.Float64("dup", 0, "chaos: message duplication probability")
		delay      = flag.Float64("delay", 0, "chaos: message delay probability")
		partEvery  = flag.Int("partition-every", 40, "chaos: cut a random node pair every N steps (0 = never)")
		partFor    = flag.Int("partition-for", 12, "chaos: heal each cut after N steps")

		crashChaos = flag.Bool("chaos-crash", false, "run the seeded crash-recovery chaos schedule instead of the workload driver: kill nodes on both sides of a flip's log force, recover, audit persistence by reachability (implies -store mem unless set)")
	)
	flag.Parse()

	if *listen != "" {
		if ignored := peerIgnoredFlags(); len(ignored) > 0 {
			fmt.Fprintf(os.Stderr, "bmxd: -listen (multi-process mode) does not support %s\n",
				strings.Join(ignored, ", "))
			os.Exit(2)
		}
		runPeerCluster(peerOpts{
			listen: *listen, peers: splitPeers(*peersArg),
			workload: *workload, objects: *objects, rounds: *rounds,
			seed: *seed, traceOut: *traceOut, benchOut: *benchJSON,
		})
		return
	}

	proto := bmx.ProtocolEntry
	switch *protocol {
	case "entry":
	case "strict":
		proto = bmx.ProtocolStrict
	default:
		fmt.Fprintf(os.Stderr, "bmxd: unknown protocol %q\n", *protocol)
		os.Exit(2)
	}
	coarse := false
	switch *grain {
	case "object":
	case "segment":
		coarse = true
	default:
		fmt.Fprintf(os.Stderr, "bmxd: unknown grain %q\n", *grain)
		os.Exit(2)
	}
	if *traceJSON {
		*traceOn = true
	}
	withDisk, factory, err := storeConfig(*storeKind, *storeDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bmxd:", err)
		os.Exit(2)
	}
	if *crashChaos {
		runCrashChaosCmd(bmx.CrashChaosConfig{
			Nodes: *nodes, Steps: *chaosSteps, Seed: *seed, Store: factory,
		}, *statsJSON)
		return
	}
	if *chaos {
		runChaos(chaosOpts{
			nodes: *nodes, steps: *chaosSteps, seed: *seed, proto: proto,
			drop: *loss, dup: *dup, delay: *delay,
			partEvery: *partEvery, partFor: *partFor,
			trace: *traceOn, traceJSON: *traceJSON, statsJSON: *statsJSON,
		})
		return
	}
	cl := bmx.New(bmx.Config{
		Nodes: *nodes, SegWords: 512, Seed: *seed,
		Faults:      bmx.FaultPlan{Default: bmx.FaultRates{Drop: *loss}},
		SendLatency: 1, CallLatency: 1,
		Consistency: proto, SegmentGrainTokens: coarse,
		WithDisk: withDisk, Store: factory,
	})
	if *traceOn {
		cl.EnableTracing()
		// A trace run is an observability run: account access locality too,
		// so the JSON dump carries heat rows for bmxstat -heat.
		cl.EnableHeat()
	}
	intr := introspection{httpAddr: *httpAddr, hold: *httpHold, benchPath: *benchJSON}
	intr.start(cl)
	n0 := cl.Node(0)
	switch *workload {
	case "list", "tree", "web", "oo7", "zipf", "churn-heavy":
	default:
		fmt.Fprintf(os.Stderr, "bmxd: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *bunchN < 1 {
		*bunchN = 1
	}
	// Shard the graph across -bunches independent bunches: each shard is a
	// self-contained instance of the workload shape, so the per-bunch
	// collections have no cross-shard SSPs.
	perShard := *objects / *bunchN
	if perShard < 1 {
		perShard = 1
	}
	var bunches []bmx.BunchID
	var g trace.Graph
	for s := 0; s < *bunchN; s++ {
		b := n0.NewBunch()
		bunches = append(bunches, b)
		sg, err := buildGraph(*workload, n0, b, perShard, *seed+int64(s))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bmxd:", err)
			os.Exit(1)
		}
		if s == 0 {
			g.Root = sg.Root
		}
		g.Objects = append(g.Objects, sg.Objects...)
	}

	var others []*bmx.Node
	for i := 1; i < *nodes; i++ {
		others = append(others, cl.Node(i))
	}
	if err := trace.Share(g.Objects, others...); err != nil {
		fmt.Fprintln(os.Stderr, "bmxd:", err)
		os.Exit(1)
	}

	totalDead := 0
	var gcTotal bmx.CollectStats
	// churn-heavy's rolling live set: objects allocated by ChurnHeavyRound,
	// oldest first; every round unroots a prefix so the cleaner always has
	// fresh garbage.
	var live []bmx.Ref
	for r := 1; r <= *rounds; r++ {
		// Mutations from a rotating node.
		mutator := cl.Node(r % *nodes)
		switch *workload {
		case "zipf":
			// Skewed writes, zero churn: every object stays reachable, so
			// the hot head keeps bouncing between the rotating mutators and
			// the heat table shows steady-state skew.
			if err := trace.MutateZipf(mutator, g, 10, zipfS, *seed+int64(r)); err != nil {
				fmt.Fprintln(os.Stderr, "bmxd:", err)
				os.Exit(1)
			}
		case "churn-heavy":
			var err error
			live, err = trace.ChurnHeavyRound(n0, bunches[0], live, 12, 8, *seed+int64(r))
			if err != nil {
				fmt.Fprintln(os.Stderr, "bmxd:", err)
				os.Exit(1)
			}
			if err := trace.MutateValues(mutator, trace.Graph{Objects: live}, 10, *seed+int64(r)); err != nil {
				fmt.Fprintln(os.Stderr, "bmxd:", err)
				os.Exit(1)
			}
		default:
			if err := trace.MutateValues(mutator, g, 10, *seed+int64(r)); err != nil {
				fmt.Fprintln(os.Stderr, "bmxd:", err)
				os.Exit(1)
			}
			if _, err := trace.Churn(n0, g, churn/float64(*rounds), *seed+int64(r)); err != nil {
				fmt.Fprintln(os.Stderr, "bmxd:", err)
				os.Exit(1)
			}
		}
		// With a store, each round is one committed transaction, and the
		// commit forces the log here and now.
		if withDisk {
			mutator.Sync()
			if mutator != n0 {
				n0.Sync()
			}
		}
		if r%gcEvery == 0 {
			for i := 0; i < *nodes; i++ {
				node := cl.Node(i)
				var st bmx.CollectStats
				if len(bunches) > 1 {
					st = node.CollectBunches(nil)
				} else {
					st = node.CollectBunch(bunches[0])
				}
				totalDead += st.Dead
				gcTotal.Merge(st)
			}
			for _, rb := range bunches {
				cl.Node(0).ReclaimFromSpace(rb)
			}
		}
		if r%ggcEvery == 0 {
			st := cl.Node(0).CollectGroup(nil)
			totalDead += st.Dead
			gcTotal.Merge(st)
		}
		cl.Run(0)
	}

	st := cl.Stats()
	fmt.Printf("workload: %s, %d objects, %d nodes, %d rounds, loss %.0f%%, protocol %s, grain %s\n",
		*workload, len(g.Objects), *nodes, *rounds, *loss*100, *protocol, *grain)
	fmt.Printf("objects reclaimed locally (sum over replicas): %d\n", totalDead)
	fmt.Printf("present at N1 at end: %d / %d\n", trace.CountPresent(n0, g), len(g.Objects))
	fmt.Println()
	fmt.Println("-- the paper's independence claims, measured --")
	fmt.Printf("token acquires by the application : %d\n",
		st.Get("dsm.acquire.r.app")+st.Get("dsm.acquire.w.app"))
	fmt.Printf("token acquires by the collector   : %d   (must be 0)\n",
		st.Get("dsm.acquire.r.gc")+st.Get("dsm.acquire.w.gc"))
	fmt.Printf("invalidations caused by collector : %d   (must be 0)\n",
		st.Get("dsm.invalidation.gc"))
	fmt.Printf("app messages                      : %d\n", st.Get("msg.sent.app"))
	fmt.Printf("GC messages (tables etc.)         : %d\n", st.Get("msg.sent.gc"))
	fmt.Printf("GC bytes piggybacked on app msgs  : %d\n", st.Get("bytes.piggyback"))
	fmt.Printf("background messages lost          : %d\n", st.Get("msg.lost"))
	fmt.Printf("GC work: %d cpu ticks\n", gcTotal.CPUTicks)
	fmt.Println()
	dumpStats(cl, *statsJSON)
	rows := cl.Heat()
	dumpTrace(cl.Observer(), *traceOn, *traceJSON, rows)

	if st.Get("dsm.acquire.r.gc")+st.Get("dsm.acquire.w.gc") != 0 ||
		st.Get("dsm.invalidation.gc") != 0 {
		fmt.Fprintln(os.Stderr, "bmxd: COLLECTOR INTERFERED WITH THE CONSISTENCY PROTOCOL")
		os.Exit(1)
	}
	intr.finish(cl, rows)
}

// buildGraph builds one workload shard of roughly `objects` objects in
// bunch b at node nd.
func buildGraph(workload string, nd *bmx.Node, b bmx.BunchID, objects int, seed int64) (trace.Graph, error) {
	switch workload {
	case "list":
		return trace.BuildList(nd, b, objects)
	case "tree":
		depth := 1
		for (1<<(depth+1))-1 < objects {
			depth++
		}
		return trace.BuildTree(nd, b, depth)
	case "web":
		return trace.BuildWeb(nd, b, trace.WebConfig{
			Objects: objects, OutDegree: 3, Seed: seed, DeadFrac: 0,
		})
	case "zipf":
		// Fully reachable web graph: the skew comes from the access pattern
		// (MutateZipf), not the shape, and nothing may die under the
		// mutator's feet.
		return trace.BuildWeb(nd, b, trace.WebConfig{
			Objects: objects, OutDegree: 3, Seed: seed, DeadFrac: 0,
		})
	case "churn-heavy":
		// A stable shared base list; the per-round allocation/death storm
		// rides on top (ChurnHeavyRound in the driver loop).
		return trace.BuildList(nd, b, objects)
	case "oo7":
		cfg := trace.DefaultOO7()
		cfg.Seed = seed
		for cfg.TotalObjects() < objects {
			cfg.Modules++
		}
		db, err := trace.BuildOO7(nd, b, cfg)
		if err != nil {
			return trace.Graph{}, err
		}
		return trace.Graph{Root: db.Root, Objects: db.Objects}, nil
	}
	return trace.Graph{}, fmt.Errorf("unknown workload %q", workload)
}

// storeConfig maps the -store/-store-dir flags onto the cluster's
// persistence knobs: whether nodes get disks at all, and which backend
// factory builds them. A nil factory with disks on selects the cluster's
// default deterministic mem backend.
func storeConfig(kind, dir string) (bool, func() store.Store, error) {
	switch kind {
	case "":
		return false, nil, nil
	case "mem":
		return true, nil, nil
	case "flatfs":
		if dir == "" {
			return false, nil, fmt.Errorf("-store flatfs needs -store-dir (the in-memory store is -store mem)")
		}
		// One subdirectory per node so two nodes never share a namespace.
		node := 0
		return true, func() store.Store {
			node++
			return store.NewFlatFS(filepath.Join(dir, fmt.Sprintf("node%d", node)))
		}, nil
	case "lsm":
		return true, func() store.Store { return store.NewLSM() }, nil
	}
	return false, nil, fmt.Errorf("unknown store backend %q (want mem, flatfs or lsm)", kind)
}

// runCrashChaosCmd runs the crash-recovery chaos schedule and reports it.
// Exit status 1 if any kill/restart broke the durable state machine.
func runCrashChaosCmd(cfg bmx.CrashChaosConfig, statsJSON bool) {
	rep := bmx.RunCrashChaos(cfg)
	fmt.Printf("crash chaos: %d nodes, %d steps, seed %d\n", cfg.Nodes, rep.Steps, cfg.Seed)
	fmt.Printf("ops %d, crashes %d (%d before flip sync, %d after), collections %d, checkpoints %d\n",
		rep.Ops, rep.Crashes, rep.BeforeSync, rep.AfterSync, rep.Collections, rep.Checkpoints)
	// Every commit forces the log, so the commit counter is the force count.
	fmt.Printf("driver syncs %d, log forces %d, objects lost before first durability point %d\n",
		rep.Syncs, rep.Stats["rvm.log.commits"], rep.LostAllocs)
	fmt.Printf("simulated ticks: %d\n", rep.ClockTicks)
	if statsJSON {
		statsToJSON(os.Stdout, rep.Stats, nil)
	}
	if len(rep.Violations) == 0 {
		fmt.Println("recovered: every kill/restart preserved persistence-by-reachability")
		return
	}
	fmt.Printf("FAILED: %d violations\n", len(rep.Violations))
	for _, v := range rep.Violations {
		fmt.Println("  " + v)
	}
	os.Exit(1)
}

// introspection bundles the live-readout flags: the HTTP server and the
// benchmark summary.
type introspection struct {
	httpAddr  string
	hold      bool
	benchPath string
}

func (in introspection) enabled() bool {
	return in.httpAddr != "" || in.benchPath != ""
}

// start attaches the sampler (one sample per Run drain) and, with -http,
// brings up the introspection server before the workload runs so a scraper
// can watch the run live.
func (in introspection) start(cl *bmx.Cluster) {
	if !in.enabled() {
		return
	}
	cl.EnableSampling(0)
	// Heat accounting rides every introspection run: the bench summary's
	// locality figures and the /heat endpoint both read it.
	cl.EnableHeat()
	if in.httpAddr == "" {
		return
	}
	// The /events and /objects endpoints read the flight recorder; serving
	// them without tracing would 404 every biography.
	cl.EnableTracing()
	srv := &introspect.Server{
		Counters: cl.Stats().Snapshot,
		Observer: cl.Observer(),
		Sampler:  cl.Sampler(),
		Heat:     cl.Heat,
	}
	bound, err := srv.Serve(in.httpAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bmxd:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bmxd: introspection on http://%s/\n", bound)
}

// finish writes the bench artifact and, with -http-hold, parks
// the process so the server stays scrapable. rows is the run's merged heat
// table: the bench summary's owner-mismatch figure comes
// from analyzing it.
func (in introspection) finish(cl *bmx.Cluster, rows []heat.Row) {
	if !in.enabled() {
		return
	}
	// The final state deserves a sample even if the last round predates it.
	cl.Sample()
	if in.benchPath != "" {
		f, err := os.Create(in.benchPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bmxd:", err)
			os.Exit(1)
		}
		b := cl.Sampler().Bench()
		b.OwnerMismatchCount = int64(len(heat.Analyze(rows).Mismatches))
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(b); err != nil {
			fmt.Fprintln(os.Stderr, "bmxd:", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "bmxd: benchmark summary written to %s\n", in.benchPath)
	}
	if in.hold && in.httpAddr != "" {
		fmt.Fprintln(os.Stderr, "bmxd: run complete; holding for scrapes (-http-hold). Kill to exit.")
		select {}
	}
}

type chaosOpts struct {
	nodes, steps       int
	seed               int64
	proto              bmx.Protocol
	drop, dup, delay   float64
	partEvery, partFor int

	trace, traceJSON, statsJSON bool
}

// runChaos runs the seeded chaos soak: the mixed mutator+GC storm under
// drop/duplication/delay and a rolling partition schedule, then heal, drain
// and the convergence audit. Exit status 1 if the cluster failed to converge.
func runChaos(o chaosOpts) {
	rep := bmx.RunChaos(bmx.ChaosConfig{
		Nodes: o.nodes, Steps: o.steps, Seed: o.seed, Consistency: o.proto,
		Faults: bmx.FaultPlan{Default: bmx.FaultRates{
			Drop: o.drop, Dup: o.dup, Delay: o.delay, DelayTicks: delayTicks,
		}},
		PartitionEvery: o.partEvery, PartitionFor: o.partFor,
		Trace: o.trace,
	})
	fmt.Printf("chaos soak: %d nodes, %d steps, seed %d, drop %.0f%%, dup %.0f%%, delay %.0f%% (%d ticks)\n",
		o.nodes, rep.Steps, o.seed, o.drop*100, o.dup*100, o.delay*100, delayTicks)
	fmt.Printf("ops %d (failed %d, of which partitioned %d), partitions cut %d, collections %d, reclaims %d\n",
		rep.Ops, rep.OpErrors, rep.PartitionedOps, rep.Partitions, rep.Collections, rep.Reclaims)
	fmt.Printf("faults injected: duplicated %d, delayed %d, partitioned %d, lost %d\n",
		rep.Stats["msg.dup"], rep.Stats["msg.delayed"], rep.Stats["msg.partitioned"], rep.Stats["msg.lost"])
	fmt.Printf("simulated ticks: %d\n", rep.ClockTicks)
	if o.statsJSON {
		statsToJSON(os.Stdout, rep.Stats, nil)
	}
	if o.trace {
		dumpEvents(rep.Events, o.traceJSON)
	}
	if len(rep.Violations) == 0 {
		fmt.Println("converged: all invariants hold after heal and drain")
		return
	}
	fmt.Printf("FAILED to converge: %d violations\n", len(rep.Violations))
	for _, v := range rep.Violations {
		fmt.Println("  " + v)
	}
	os.Exit(1)
}

// dumpStats prints the final counters, as the flat text table or — with
// -stats-json — as one JSON object holding the sorted counters plus a
// snapshot of every histogram (buckets and quantiles), so one file captures
// the whole run.
func dumpStats(cl *bmx.Cluster, asJSON bool) {
	st := cl.Stats()
	if asJSON {
		var hists []obs.HistSummary
		for _, h := range cl.Observer().Histograms() {
			if s := h.Summary(); s.Count > 0 {
				hists = append(hists, s)
			}
		}
		statsToJSON(os.Stdout, st.Snapshot(), hists)
		return
	}
	fmt.Println("-- full counters --")
	fmt.Print(st.String())
}

// statsJSONDoc is the -stats-json document shape.
type statsJSONDoc struct {
	Counters   map[string]int64  `json:"counters"`
	Histograms []obs.HistSummary `json:"histograms,omitempty"`
}

func statsToJSON(w *os.File, snap map[string]int64, hists []obs.HistSummary) {
	doc := statsJSONDoc{Counters: snap, Histograms: hists}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "bmxd:", err)
		os.Exit(1)
	}
}

// dumpTrace prints the flight recorder's histograms and retained window; in
// JSON mode the heat rows ride along in the same NDJSON stream (each loose
// reader skips the other's lines, so `bmxstat -heat -trace` and
// `bmxstat -trace` both consume the one capture).
func dumpTrace(o *obs.Observer, on, asJSON bool, rows []heat.Row) {
	if !on {
		return
	}
	fmt.Println()
	fmt.Println("-- histograms --")
	if asJSON {
		if err := obs.DumpHistogramsJSON(os.Stdout, o.Histograms()); err != nil {
			fmt.Fprintln(os.Stderr, "bmxd:", err)
			os.Exit(1)
		}
	} else {
		obs.DumpHistograms(os.Stdout, o.Histograms())
	}
	dumpEvents(o.Events(), asJSON)
	if asJSON && len(rows) > 0 {
		fmt.Println()
		fmt.Printf("-- heat table (%d rows) --\n", len(rows))
		if err := heat.WriteRowsNDJSON(os.Stdout, rows); err != nil {
			fmt.Fprintln(os.Stderr, "bmxd:", err)
			os.Exit(1)
		}
	}
}

func dumpEvents(evs []obs.Event, asJSON bool) {
	fmt.Println()
	fmt.Printf("-- flight recorder window (%d events) --\n", len(evs))
	if asJSON {
		if err := obs.DumpJSON(os.Stdout, evs); err != nil {
			fmt.Fprintln(os.Stderr, "bmxd:", err)
			os.Exit(1)
		}
		return
	}
	obs.Dump(os.Stdout, evs)
}
