package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"bmx/internal/addr"
	"bmx/internal/dsm"
	"bmx/internal/obs"
	"bmx/internal/transport"
)

// ChaosConfig parametrizes a seeded chaos soak: a mixed mutator+GC workload
// driven under a randomized fault schedule (message drop, duplication,
// delay, node-pair partitions), after which every fault is healed, the
// cluster is drained to a fixpoint, and full convergence is audited.
type ChaosConfig struct {
	Nodes int   // cluster size (default 3); one bunch per node is created up front
	Steps int   // workload steps in the fault storm (default 400)
	Seed  int64 // seeds both the workload and the fault schedule

	// Faults is the storm-phase fault plan. Its partition list is managed
	// by the driver (see PartitionEvery); its rates apply throughout the
	// storm and are removed before the convergence audit.
	Faults transport.FaultPlan
	// PartitionEvery cuts a random node pair every N workload steps
	// (0 = never); PartitionFor heals each cut after that many steps
	// (default 10). Cuts still open at the end of the storm are healed
	// before the drain.
	PartitionEvery int
	PartitionFor   int

	// Consistency selects the DSM protocol variant (entry consistency by
	// default).
	Consistency dsm.Protocol

	// Trace enables the flight recorder for the whole soak; the report then
	// carries the retained event window, so a failed run's last moments can
	// be dumped (bmxd -chaos -trace, and the CI failure artifact).
	Trace bool
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Nodes <= 0 {
		c.Nodes = 3
	}
	if c.Steps <= 0 {
		c.Steps = 400
	}
	if c.PartitionFor <= 0 {
		c.PartitionFor = 10
	}
	return c
}

// chaosSegWords is the segment size, in words, of both chaos drivers'
// clusters (RunChaos and RunCrashChaos).
const chaosSegWords = 128

// chaosDrainRounds bounds RunChaos's post-heal drain-to-fixpoint loop.
const chaosDrainRounds = 12

// ChaosReport summarizes a chaos soak. The run converged iff Violations is
// empty: every invariant audited by Cluster.CheckInvariants holds, every
// still-rooted object is acquirable where it is rooted, no background
// message is left undelivered, and no from-space segment is left awaiting
// the reuse protocol.
type ChaosReport struct {
	Steps          int
	Ops            int // mutator/GC operations attempted during the storm
	OpErrors       int // operations that failed during the storm (tolerated)
	PartitionedOps int // subset that failed because of a declared partition
	Partitions     int // node-pair cuts performed by the schedule
	Collections    int
	Reclaims       int

	Violations []string // convergence-audit findings; empty = converged

	Stats      map[string]int64 // final counter snapshot
	ClockTicks uint64           // final simulated time

	// Events is the flight recorder's retained window at the end of the run
	// (nil unless ChaosConfig.Trace was set).
	Events []obs.Event
}

// chaosObj is one object the chaos driver tracks: where it is rooted is the
// only ground truth the driver keeps — under faults the rest of the graph
// is whatever the cluster says it is, and the convergence audit relies on
// CheckInvariants plus acquirability of the rooted survivors.
type chaosObj struct {
	ref    Ref
	size   int
	rooted map[int]bool // node index -> rooted there
}

// chaosCut is one scheduled partition and the storm step that heals it.
type chaosCut struct {
	a, b   int
	healAt int
}

// RunChaos builds a cluster, installs cfg.Faults, and runs the seeded chaos
// soak: a storm of randomized mutator and GC operations interleaved with
// partial message deliveries while the fault schedule cuts and heals
// partitions, followed by a full heal, a drain to fixpoint, and the
// convergence audit. The same config always produces the same run.
func RunChaos(cfg ChaosConfig) ChaosReport {
	cfg = cfg.withDefaults()
	cl := New(Config{
		Nodes:       cfg.Nodes,
		SegWords:    chaosSegWords,
		Seed:        cfg.Seed,
		Consistency: cfg.Consistency,
	})
	cl.SetFaultPlan(cfg.Faults)
	return runChaos(cl, cfg)
}

// runChaos drives the soak on an existing cluster. Split from RunChaos so
// tests can compare a zero-fault soak against a cluster that never had a
// fault plan installed (they must be byte-for-byte identical).
func runChaos(cl *Cluster, cfg ChaosConfig) ChaosReport {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	rep := ChaosReport{Steps: cfg.Steps}
	if cfg.Trace {
		cl.EnableTracing()
	}

	// Fixed topology: one bunch per node, created and mapped by that node;
	// other nodes adopt replicas as the workload maps/acquires.
	bunches := make([]addr.BunchID, cfg.Nodes)
	mapped := make([][]int, cfg.Nodes) // bunch index -> node indexes mapping it
	for i := range bunches {
		bunches[i] = cl.Node(i).NewBunch()
		mapped[i] = []int{i}
	}

	var objs []*chaosObj
	tolerate := func(err error) bool {
		if err == nil {
			return false
		}
		rep.OpErrors++
		if errors.Is(err, transport.ErrPartitioned) {
			rep.PartitionedOps++
		}
		return true
	}

	// Storm phase: randomized ops under the fault plan and the partition
	// schedule. Operations may fail — under partitions acquires, write
	// barriers and grants are refused — and every failure is tolerated and
	// counted; the protocol state they leave behind is what the
	// convergence audit later vets.
	var cuts []chaosCut
	plan := cl.Faults()
	for step := 0; step < cfg.Steps; step++ {
		// Heal expired cuts, then maybe open a new one.
		changed := false
		live := cuts[:0]
		for _, c := range cuts {
			if step >= c.healAt {
				plan.Heal(addr.NodeID(c.a), addr.NodeID(c.b))
				changed = true
				continue
			}
			live = append(live, c)
		}
		cuts = live
		if cfg.PartitionEvery > 0 && cfg.Nodes >= 2 && step%cfg.PartitionEvery == 0 {
			a := rng.Intn(cfg.Nodes)
			b := (a + 1 + rng.Intn(cfg.Nodes-1)) % cfg.Nodes
			plan.Partition(addr.NodeID(a), addr.NodeID(b))
			cuts = append(cuts, chaosCut{a: a, b: b, healAt: step + cfg.PartitionFor})
			rep.Partitions++
			changed = true
		}
		if changed {
			cl.SetFaultPlan(plan)
		}

		rep.Ops++
		bi := rng.Intn(len(bunches))
		nd := cl.Node(mapped[bi][rng.Intn(len(mapped[bi]))])
		switch rng.Intn(12) {
		case 0, 1: // allocate and root at the allocator
			size := 2 + rng.Intn(3)
			r, err := nd.Alloc(bunches[bi], size)
			if tolerate(err) {
				break
			}
			nd.AddRoot(r)
			objs = append(objs, &chaosObj{
				ref: r, size: size,
				rooted: map[int]bool{int(nd.ID()): true},
			})
		case 2, 3, 4: // link: src.field = target
			if len(objs) < 2 {
				break
			}
			src, tgt := objs[rng.Intn(len(objs))], objs[rng.Intn(len(objs))]
			if tolerate(nd.AcquireWrite(src.ref)) {
				break
			}
			// A mutator can only store a pointer it holds: acquiring the
			// target both fetches its address and guarantees it is still
			// live (a reclaimed object's acquire fails).
			if tolerate(nd.AcquireRead(tgt.ref)) {
				break
			}
			tolerate(nd.WriteRef(src.ref, rng.Intn(src.size), tgt.ref))
		case 5: // unlink
			if len(objs) == 0 {
				break
			}
			src := objs[rng.Intn(len(objs))]
			if tolerate(nd.AcquireWrite(src.ref)) {
				break
			}
			tolerate(nd.WriteRef(src.ref, rng.Intn(src.size), Nil))
		case 6: // scalar write
			if len(objs) == 0 {
				break
			}
			o := objs[rng.Intn(len(objs))]
			if tolerate(nd.AcquireWrite(o.ref)) {
				break
			}
			tolerate(nd.WriteWord(o.ref, rng.Intn(o.size), uint64(step)))
		case 7: // root here / unroot here
			if len(objs) == 0 {
				break
			}
			o := objs[rng.Intn(len(objs))]
			if o.rooted[int(nd.ID())] {
				nd.RemoveRoot(o.ref)
				delete(o.rooted, int(nd.ID()))
				break
			}
			if tolerate(nd.AcquireRead(o.ref)) {
				break
			}
			nd.AddRoot(o.ref)
			o.rooted[int(nd.ID())] = true
		case 8: // read share: pull a replica somewhere new
			if len(objs) == 0 {
				break
			}
			o := objs[rng.Intn(len(objs))]
			other := cl.Node(rng.Intn(cfg.Nodes))
			tolerate(other.AcquireRead(o.ref))
		case 9: // bunch collection at a mapping node
			nd.CollectBunch(bunches[bi])
			rep.Collections++
		case 10: // group collection + from-space reuse
			nd.CollectGroup(nil)
			nd.ReclaimFromSpace(bunches[bi])
			rep.Collections++
			rep.Reclaims++
		case 11: // map the bunch at a new node
			ni := rng.Intn(cfg.Nodes)
			already := false
			for _, m := range mapped[bi] {
				if m == ni {
					already = true
					break
				}
			}
			if already {
				break
			}
			if tolerate(cl.Node(ni).MapBunch(bunches[bi])) {
				break
			}
			mapped[bi] = append(mapped[bi], ni)
		}
		// Let background traffic (tables, dead notices, location updates,
		// delayed duplicates) interleave with the mutator.
		if burst := rng.Intn(4); burst > 0 {
			cl.Run(burst)
		}
	}

	// Heal phase: every fault gone. From here the run must converge.
	cl.SetFaultPlan(transport.FaultPlan{})
	cl.Run(0)

	// Drain to fixpoint: collections and reclaim rounds everywhere until a
	// full round reclaims nothing more and no message is pending. A
	// retraction delivered at the end of one round enables a reclamation
	// in the next, so single passes are not enough.
	progress := func() int64 {
		return cl.Stats().Get("core.gc.dead") +
			cl.Stats().Get("core.cleaner.enteringRemoved") +
			cl.Stats().Get("core.cleaner.interScionsDeleted") +
			cl.Stats().Get("core.cleaner.intraScionsDeleted") +
			cl.Stats().Get("core.reclaim.segments")
	}
	for d := 0; d < chaosDrainRounds; d++ {
		before := progress()
		for i := 0; i < cl.Nodes(); i++ {
			nd := cl.Node(i)
			for _, b := range nd.Collector().MappedBunches() {
				nd.CollectBunch(b)
			}
			nd.CollectGroup(nil)
			for _, b := range nd.Collector().MappedBunches() {
				nd.ReclaimFromSpace(b)
			}
			cl.Run(0)
		}
		if before == progress() && cl.Pending() == 0 {
			break
		}
	}

	// Convergence audit.
	rep.Violations = append(rep.Violations, cl.CheckInvariants()...)
	if p := cl.Pending(); p != 0 {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("chaos: %d background messages still pending after drain", p))
	}
	for i := 0; i < cl.Nodes(); i++ {
		nd := cl.Node(i)
		for _, b := range nd.Collector().MappedBunches() {
			if segs := nd.Collector().FromSpaceSegments(b); len(segs) > 0 {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("chaos: node %d bunch %v: %d from-space segments not reclaimed", i, b, len(segs)))
			}
		}
	}
	// Every object still rooted somewhere must be acquirable there: a
	// failure means the collector reclaimed a live object or a fault left
	// its routing chain dangling. The audit's acquires themselves reroute
	// ownerPtr chains, so they run in sorted node order — iterating the
	// rooted set directly would make same-seed runs diverge.
	for _, o := range objs {
		for _, ni := range sortedRootNodes(o.rooted) {
			if err := cl.Node(ni).AcquireRead(o.ref); err != nil {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("chaos: rooted object %v not acquirable at node %d: %v [%s]",
						o.ref, ni, err, routeState(cl, o.ref.OID)))
			}
		}
	}

	rep.Stats = cl.Stats().Snapshot()
	rep.ClockTicks = cl.Clock().Now()
	if cfg.Trace {
		rep.Events = cl.Observer().Events()
	}
	return rep
}

// sortedRootNodes returns the node indexes of a rooted set in ascending
// order, so iteration is deterministic.
func sortedRootNodes(rooted map[int]bool) []int {
	out := make([]int, 0, len(rooted))
	for ni := range rooted {
		out = append(out, ni)
	}
	slices.Sort(out)
	return out
}

// routeState renders an object's per-node routing state for violation
// messages: who thinks they own it, where each ownerPtr points, and what
// the manager's probable-owner hint says.
func routeState(cl *Cluster, oid addr.OID) string {
	_, hint := cl.dir.Locate(oid)
	s := fmt.Sprintf("hint=%v", hint)
	for i := 0; i < cl.Nodes(); i++ {
		nd := cl.Node(i)
		_, has := nd.DSM().Canonical(oid)
		s += fmt.Sprintf("; n%d{owner=%v ptr=%v mode=%v replica=%v}",
			i, nd.DSM().IsOwner(oid), nd.DSM().OwnerPtrOf(oid), nd.Mode(Ref{OID: oid}), has)
	}
	return s
}
