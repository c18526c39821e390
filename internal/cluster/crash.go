package cluster

import (
	"fmt"
	"math/rand"
	"slices"

	"bmx/internal/addr"
	"bmx/internal/store"
)

// Crash-recovery chaos: a seeded schedule of mutations, syncs, checkpoints
// and collections during which nodes are killed mid-collection — on either
// side of the flip's durability sync — and restarted from their persistent
// store. The audit is the paper's persistence-by-reachability contract
// (§7, §8): every object that reached the durable store and is reachable
// from the stable roots recovers with its last durably-committed contents,
// and no object whose reclamation reached the log is ever resurrected.

// flipCrashArm arms a crash at a node's next collection durability
// barrier.
type flipCrashArm int

const (
	crashNone flipCrashArm = iota
	// CrashBeforeFlipSync kills the node just before the flip's log force:
	// the flip completed in memory, but nothing about it — copied objects,
	// deaths, the open mutation transaction — reaches the durable log.
	CrashBeforeFlipSync
	// CrashAfterFlipSync kills the node just after the flip's log force:
	// the whole collection, including every death record, is durable.
	CrashAfterFlipSync
	crashFired
)

func (a flipCrashArm) String() string {
	switch a {
	case CrashBeforeFlipSync:
		return "before-sync"
	case CrashAfterFlipSync:
		return "after-sync"
	default:
		return fmt.Sprintf("flipCrashArm(%d)", int(a))
	}
}

// ArmFlipCrash schedules a kill at this node's next collection durability
// barrier. The barrier marks the arm as fired; the caller then executes
// the kill with KillRestart once the collection returns (the collector's
// locked bracket cannot tear its own node down).
func (n *Node) ArmFlipCrash(when flipCrashArm) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.flipCrash = when
}

// FlipCrashFired reports whether an armed crash has reached its barrier.
func (n *Node) FlipCrashFired() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.flipCrash == crashFired
}

// KillRestart simulates a whole-process failure and restart of this node's
// replica of bunch b: the store loses everything after its last sync, the
// in-memory segment replicas and protocol state for b are discarded, and
// the node recovers from the store (checkpoint images + committed log
// suffix), re-owning what it recovers — the dsm reestablishment path then
// serves the recovered objects to the rest of the cluster.
func (n *Node) KillRestart(b addr.BunchID) error {
	if err := n.Crash(b); err != nil {
		return err
	}
	func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		n.flipCrash = crashNone
	}()
	// Failure detection, compressed to an instant: peers drop their
	// volatile replicas and tokens for the dead node's bunch. The crash
	// destroyed the owner's copy-set records, so a surviving read token
	// would be invisible to the recovered owner — the next write there
	// could never invalidate it. Peers re-fault what they need through the
	// ordinary acquire (and reestablish) paths afterwards.
	for _, peer := range n.cl.nodes {
		if peer == n {
			continue
		}
		func() {
			peer.mu.Lock()
			defer peer.mu.Unlock()
			peer.dsm.ForgetBunch(b)
		}()
	}
	return n.RecoverBunch(b)
}

// CrashChaosConfig parametrizes a crash-recovery chaos run.
type CrashChaosConfig struct {
	Nodes int   // cluster size (default 3)
	Steps int   // workload steps (default 600)
	Seed  int64 // seeds the workload and the kill schedule

	// CrashEvery kills a node mid-collection every N steps (default 60),
	// alternating pseudo-randomly between the two sides of the flip sync.
	CrashEvery int

	// Store is the per-node backend factory (nil = the deterministic mem
	// backend).
	Store func() store.Store
}

func (c CrashChaosConfig) withDefaults() CrashChaosConfig {
	if c.Nodes <= 0 {
		c.Nodes = 3
	}
	if c.Steps <= 0 {
		c.Steps = 600
	}
	if c.CrashEvery <= 0 {
		c.CrashEvery = 60
	}
	return c
}

// crashCheckpointEvery is how many steps apart RunCrashChaos checkpoints a
// node's home bunch.
const crashCheckpointEvery = 45

// crashDrainRounds bounds RunCrashChaos's final drain loop.
const crashDrainRounds = 8

// CrashChaosReport summarizes a crash-recovery chaos run. The run passed
// iff Violations is empty.
type CrashChaosReport struct {
	Steps       int
	Ops         int
	Crashes     int // kills executed
	BeforeSync  int // kills on the pre-sync side of the flip
	AfterSync   int // kills on the post-sync side
	Collections int
	Checkpoints int
	Syncs       int
	LostAllocs  int // objects legitimately lost (allocated, never durable)

	Violations []string // audit findings; empty = passed

	Stats      map[string]int64 // final counter snapshot
	ClockTicks uint64           // final simulated time
}

// crashObj is one object the crash-chaos driver tracks. The driver is the
// ground truth for the durable state machine: cur mirrors the volatile
// value of scalar field 0, dur the value the store guarantees to recover,
// and the links/incoming graph drives both the reachability audit and
// garbage detection.
type crashObj struct {
	ref      Ref
	size     int
	home     int // node index; also the bunch index (one home bunch per node)
	rooted   bool
	durable  bool // header has reached the durable store
	shared   bool // a read replica exists elsewhere; excluded from garbage audits
	retired  bool // driver dropped its root; object is (or will become) garbage
	deadDur  bool // reclamation is durably logged: resurrection is a violation
	cur, dur uint64
	links    map[int]*crashObj // field index -> target (fields >= 1)
	durLinks map[int]*crashObj // link graph at the last durability point
	incoming int
}

// RunCrashChaos builds a persistent cluster and runs the seeded
// kill/restart/audit schedule. The same config always produces the same
// run (with a deterministic backend).
func RunCrashChaos(cfg CrashChaosConfig) CrashChaosReport {
	cfg = cfg.withDefaults()
	cl := New(Config{
		Nodes:    cfg.Nodes,
		SegWords: chaosSegWords,
		Seed:     cfg.Seed,
		WithDisk: true,
		Store:    cfg.Store,
	})
	return runCrashChaos(cl, cfg)
}

func runCrashChaos(cl *Cluster, cfg CrashChaosConfig) CrashChaosReport {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5ca1ab1e))
	rep := CrashChaosReport{Steps: cfg.Steps}

	// One home bunch per node. Writes happen only at an object's home, so
	// ownership never migrates and "the recovering node owns what it
	// recovers" (§8) matches where the objects actually live. Other nodes
	// participate through read replicas.
	homes := make([]addr.BunchID, cfg.Nodes)
	for i := range homes {
		homes[i] = cl.Node(i).NewBunch()
	}

	var objs []*crashObj
	byHome := make([][]*crashObj, cfg.Nodes)

	// markDurable records that a durability point covered node ni:
	// everything the driver has done at that node — allocations, scalar
	// writes, links — is now guaranteed recoverable.
	cloneLinks := func(m map[int]*crashObj) map[int]*crashObj {
		c := make(map[int]*crashObj, len(m))
		for f, t := range m {
			c[f] = t
		}
		return c
	}
	markDurable := func(ni int) {
		for _, o := range byHome[ni] {
			o.durable = true
			o.dur = o.cur
			o.durLinks = cloneLinks(o.links)
		}
	}

	// settleDeaths is called after a collection of node ni's home bunch
	// whose durability barrier ran in full: any retired object the flip
	// reclaimed has its death durably logged now.
	settleDeaths := func(ni int) {
		nd := cl.Node(ni)
		for _, o := range byHome[ni] {
			if o.retired && !o.deadDur {
				if _, present := nd.dsm.Canonical(o.ref.OID); !present {
					o.deadDur = true
				}
			}
		}
	}

	// reachable computes the driver-side reachable set: rooted objects
	// plus everything their link graph reaches.
	reachable := func() map[*crashObj]bool {
		seen := make(map[*crashObj]bool)
		var walk func(o *crashObj)
		walk = func(o *crashObj) {
			if seen[o] {
				return
			}
			seen[o] = true
			for _, t := range o.links {
				walk(t)
			}
		}
		for _, o := range objs {
			if o.rooted {
				walk(o)
			}
		}
		return seen
	}

	// auditNode checks the recovered state of node ni against the
	// driver's durable ground truth, appending violations.
	auditNode := func(ni int, when string) {
		nd := cl.Node(ni)
		reach := reachable()
		for _, o := range byHome[ni] {
			if o.deadDur {
				// No resurrected garbage: a durably logged death is
				// final. The check inspects the record directly — an
				// acquire would legitimately fault a live object back in
				// via the reestablishment path, and residual protocol
				// bookkeeping is CheckInvariants' concern.
				if _, present := nd.dsm.Canonical(o.ref.OID); present {
					rep.Violations = append(rep.Violations, fmt.Sprintf(
						"crash-chaos %s: node %d resurrected reclaimed object %v", when, ni, o.ref))
				}
				continue
			}
			if !o.durable || !reach[o] {
				continue
			}
			// No durable object lost: reachable + durable must recover
			// with the last durably-committed scalar.
			if err := nd.AcquireRead(o.ref); err != nil {
				rep.Violations = append(rep.Violations, fmt.Sprintf(
					"crash-chaos %s: durable object %v not acquirable at home %d: %v [%s]",
					when, o.ref, ni, err, routeState(cl, o.ref.OID)))
				continue
			}
			if got, err := nd.ReadWord(o.ref, 0); err != nil {
				rep.Violations = append(rep.Violations, fmt.Sprintf(
					"crash-chaos %s: durable object %v unreadable at home %d: %v", when, o.ref, ni, err))
			} else if got != o.dur {
				rep.Violations = append(rep.Violations, fmt.Sprintf(
					"crash-chaos %s: object %v field 0 = %d after recovery, want durable %d (volatile was %d)",
					when, o.ref, got, o.dur, o.cur))
			}
		}
	}

	// crashNode kills node ni mid-collection on the chosen side of the
	// flip sync, restarts it from its store, rolls the driver's model back
	// to the durable state, and audits the recovery.
	crashNode := func(ni int, when flipCrashArm) {
		nd := cl.Node(ni)
		nd.ArmFlipCrash(when)
		nd.CollectBunch(homes[ni])
		rep.Collections++
		if !nd.FlipCrashFired() {
			// No barrier ran (nothing persistent at this node?) — treat
			// as a plain collection.
			return
		}
		if when == CrashAfterFlipSync {
			// The flip's log force completed before the kill, so the
			// whole history up to and including the flip is durable —
			// including any deaths this flip logged.
			markDurable(ni)
			settleDeaths(ni)
			rep.AfterSync++
		} else {
			rep.BeforeSync++
		}
		rep.Crashes++
		if err := nd.KillRestart(homes[ni]); err != nil {
			rep.Violations = append(rep.Violations, fmt.Sprintf(
				"crash-chaos: node %d kill/restart: %v", ni, err))
			return
		}
		// Roll the model back to the durable state: volatile values
		// revert, never-durable allocations are gone for good. The link
		// graph reverts with them — recovery rewinds pointer fields like
		// any other word, so an unlink that never reached a durability
		// point is undone and its target is reachable garbage no more.
		for _, o := range byHome[ni] {
			o.cur = o.dur
			o.links = cloneLinks(o.durLinks)
		}
		var kept []*crashObj
		for _, o := range byHome[ni] {
			if o.durable {
				kept = append(kept, o)
				continue
			}
			// Legitimately lost: allocated after the last durability
			// point. Drop it from the model — and from the node's root
			// set, where the driver's AddRoot entry would otherwise
			// dangle (the process that rooted it died).
			rep.LostAllocs++
			if o.rooted {
				nd.RemoveRoot(o.ref)
				o.rooted = false
			}
			for f, t := range o.links {
				delete(o.links, f)
				t.incoming--
			}
			for _, other := range objs {
				for f, t := range other.links {
					if t == o {
						delete(other.links, f)
					}
				}
			}
			objs = slices.DeleteFunc(objs, func(x *crashObj) bool { return x == o })
		}
		byHome[ni] = kept
		// The restored link graph invalidates the incremental incoming
		// counts; rebuild them from scratch.
		for _, o := range objs {
			o.incoming = 0
		}
		for _, o := range objs {
			for _, t := range o.links {
				t.incoming++
			}
		}
		cl.Run(0)
		auditNode(ni, fmt.Sprintf("restart(%v)", when))
	}

	alloc := func(ni int) {
		nd := cl.Node(ni)
		size := 2 + rng.Intn(3)
		r, err := nd.Alloc(homes[ni], size)
		if err != nil {
			return
		}
		nd.AddRoot(r)
		o := &crashObj{ref: r, size: size, home: ni, rooted: true,
			links: make(map[int]*crashObj)}
		objs = append(objs, o)
		byHome[ni] = append(byHome[ni], o)
	}
	// Seed every node with a few rooted objects so early crashes have
	// something durable to audit.
	for ni := 0; ni < cfg.Nodes; ni++ {
		for k := 0; k < 3; k++ {
			alloc(ni)
		}
		cl.Node(ni).Sync()
		rep.Syncs++
		markDurable(ni)
	}

	for step := 0; step < cfg.Steps; step++ {
		rep.Ops++
		ni := rng.Intn(cfg.Nodes)
		nd := cl.Node(ni)
		pool := byHome[ni]
		livePool := make([]*crashObj, 0, len(pool))
		for _, o := range pool {
			if !o.retired {
				livePool = append(livePool, o)
			}
		}
		switch op := rng.Intn(12); op {
		case 0, 1: // allocate and root at home
			alloc(ni)
		case 2, 3, 4: // scalar write to field 0 at home
			if len(livePool) == 0 {
				break
			}
			o := livePool[rng.Intn(len(livePool))]
			if nd.AcquireWrite(o.ref) != nil {
				break
			}
			v := uint64(step)<<8 | uint64(ni)
			if nd.WriteWord(o.ref, 0, v) == nil {
				o.cur = v
			}
		case 5: // link: src.field = tgt, both at this home, fields >= 1
			if len(livePool) < 2 {
				break
			}
			src := livePool[rng.Intn(len(livePool))]
			tgt := livePool[rng.Intn(len(livePool))]
			if src == tgt || src.size < 2 {
				break
			}
			f := 1 + rng.Intn(src.size-1)
			if nd.AcquireWrite(src.ref) != nil || nd.AcquireRead(tgt.ref) != nil {
				break
			}
			if nd.WriteRef(src.ref, f, tgt.ref) == nil {
				if old := src.links[f]; old != nil {
					old.incoming--
				}
				src.links[f] = tgt
				tgt.incoming++
			}
		case 6: // unlink a field
			if len(livePool) == 0 {
				break
			}
			src := livePool[rng.Intn(len(livePool))]
			// The lowest linked field: a choice of map order would make
			// the run depend on more than its seed.
			f := -1
			for ff := range src.links {
				if f < 0 || ff < f {
					f = ff
				}
			}
			if f < 0 {
				break
			}
			if nd.AcquireWrite(src.ref) != nil {
				break
			}
			if nd.WriteRef(src.ref, f, Nil) == nil {
				src.links[f].incoming--
				delete(src.links, f)
			}
		case 7: // retire: drop the root of an unreferenced, unshared object
			for _, o := range livePool {
				if o.rooted && o.incoming == 0 && !o.shared && len(o.links) == 0 {
					nd.RemoveRoot(o.ref)
					o.rooted = false
					o.retired = true
					break
				}
			}
		case 8: // sync: commit and force the open mutation transaction
			nd.Sync()
			rep.Syncs++
			markDurable(ni)
		case 9: // read share: a replica somewhere else
			if len(livePool) == 0 {
				break
			}
			o := livePool[rng.Intn(len(livePool))]
			other := rng.Intn(cfg.Nodes)
			if other == ni {
				break
			}
			// The attempt alone can leave routing state at the peer (a
			// stub created while the request traveled), and any remote
			// state makes the object an entering root at home — so the
			// model marks it shared whether or not the acquire succeeded.
			o.shared = true
			cl.Node(other).AcquireRead(o.ref)
		case 10: // plain collection at home: a durability point (the barrier
			// commits and forces the open transaction)
			nd.CollectBunch(homes[ni])
			rep.Collections++
			markDurable(ni)
			settleDeaths(ni)
		case 11: // from-space reuse, closing the address-recycling loop
			nd.CollectBunch(homes[ni])
			nd.ReclaimFromSpace(homes[ni])
			rep.Collections++
			markDurable(ni)
			settleDeaths(ni)
		}
		if step > 0 && step%crashCheckpointEvery == 0 {
			ci := rng.Intn(cfg.Nodes)
			if cl.Node(ci).Checkpoint(homes[ci]) == nil {
				rep.Checkpoints++
				markDurable(ci)
			}
		}
		if step > 0 && step%cfg.CrashEvery == 0 {
			vi := rng.Intn(cfg.Nodes)
			side := CrashBeforeFlipSync
			if rng.Intn(2) == 1 {
				side = CrashAfterFlipSync
			}
			crashNode(vi, side)
		}
		if burst := rng.Intn(3); burst > 0 {
			cl.Run(burst)
		}
	}

	// Drain: collections everywhere until nothing more is reclaimed, then
	// the final audit over every node.
	cl.Run(0)
	progress := func() int64 {
		return cl.Stats().Get("core.gc.dead") + cl.Stats().Get("core.reclaim.segments")
	}
	for d := 0; d < crashDrainRounds; d++ {
		before := progress()
		for ni := 0; ni < cfg.Nodes; ni++ {
			// Every node collects every bunch it may hold content of, not
			// just its own: peers that received location manifests carry
			// learned stubs whose exiting lists pin objects as entering
			// roots at the home node, and only the peer's own collection
			// of that bunch retires them (§4.3).
			for bi := 0; bi < cfg.Nodes; bi++ {
				cl.Node(ni).CollectBunch(homes[bi])
				cl.Run(0)
			}
			cl.Node(ni).ReclaimFromSpace(homes[ni])
			markDurable(ni)
			settleDeaths(ni)
			cl.Run(0)
		}
		if before == progress() && cl.Pending() == 0 {
			break
		}
	}
	rep.Violations = append(rep.Violations, cl.CheckInvariants()...)
	for ni := 0; ni < cfg.Nodes; ni++ {
		auditNode(ni, "final")
	}
	// Retired, unshared garbage must be gone after the drain: persistence
	// by reachability means the store holds no unreachable objects. A
	// crash rollback can resurrect a durable link to a retired object —
	// that object is reachable again and rightly kept, so only the
	// actually-unreachable retirees are asserted absent.
	finalReach := reachable()
	for _, o := range objs {
		if o.retired && !o.shared && !o.deadDur && !finalReach[o] {
			if _, present := cl.Node(o.home).DSM().Canonical(o.ref.OID); present {
				rep.Violations = append(rep.Violations, fmt.Sprintf(
					"crash-chaos final: retired object %v still present at node %d after drain",
					o.ref, o.home))
			}
		}
	}

	rep.Stats = cl.Stats().Snapshot()
	rep.ClockTicks = cl.Clock().Now()
	return rep
}
