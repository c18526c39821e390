package core

import (
	"cmp"
	"fmt"
	"slices"

	"bmx/internal/addr"
	"bmx/internal/dsm"
	"bmx/internal/mem"
	"bmx/internal/obs"
	"bmx/internal/ssp"
	"bmx/internal/transport"
)

// Liveness strengths. Objects reachable from mutator roots, inter-bunch
// scions or entering ownerPtrs are strongly live. Objects reachable only
// from intra-bunch scions are weakly live: they are preserved (a remote
// replica still depends on the stubs held here) but contribute no exiting
// ownerPtr to the new table — the §6.2 rule that breaks the replica cycle of
// Figure 4.
const (
	notLive    = 0
	weakLive   = 1
	strongLive = 2
)

// CollectStats summarizes one collection.
type CollectStats struct {
	Bunches    int
	RootCount  int
	LiveStrong int
	LiveWeak   int
	Dead       int
	Copied     int
	Scanned    int
	// ScannedWords and CopiedWords are the word-granularity volumes behind
	// Scanned and Copied (copied words include headers).
	ScannedWords int
	CopiedWords  int
	// PauseRootTicks is the first flip pause (root snapshot); it scales
	// with the number of roots, never the heap (§4.1: "the time to flip is
	// very small and therefore not disruptive to applications").
	PauseRootTicks uint64
	// PauseFlipTicks is the second pause (mutation-log replay), scaling
	// with the writes performed while the collector ran.
	PauseFlipTicks uint64
	// TotalTicks is the whole collection in simulated time, including the
	// concurrent phases.
	TotalTicks uint64
	// CPUTicks is the aggregate collector work under the cost model —
	// the sum over bunches of root, scan, copy and replay charges. Unlike
	// TotalTicks (which reads the global simulated clock and therefore
	// absorbs whatever other nodes advance it by meanwhile), CPUTicks is
	// computed from this collection's own volumes.
	CPUTicks uint64
}

// Merge folds another collection's statistics into st. It is the single
// accumulation point used by the group and per-bunch drivers.
func (st *CollectStats) Merge(o CollectStats) {
	st.Bunches += o.Bunches
	st.RootCount += o.RootCount
	st.LiveStrong += o.LiveStrong
	st.LiveWeak += o.LiveWeak
	st.Dead += o.Dead
	st.Copied += o.Copied
	st.Scanned += o.Scanned
	st.ScannedWords += o.ScannedWords
	st.CopiedWords += o.CopiedWords
	st.PauseRootTicks += o.PauseRootTicks
	st.PauseFlipTicks += o.PauseFlipTicks
	st.TotalTicks += o.TotalTicks
	st.CPUTicks += o.CPUTicks
}

// CollectOpts tunes one collection run.
type CollectOpts struct {
	// DuringTrace, if set, runs after the root snapshot and before the
	// trace — the simulation's stand-in for mutator work concurrent with
	// the collector (O'Toole-style). Writes it performs are logged and
	// replayed at the flip.
	DuringTrace func()
}

// CollectBunch runs the bunch garbage collector (§4) on this node's replica
// of bunch b, independently of every other bunch and of every other replica
// of b. It never acquires a token.
func (c *Collector) CollectBunch(b addr.BunchID) CollectStats {
	return c.collect([]addr.BunchID{b}, CollectOpts{}, false)
}

// CollectBunchOpts is CollectBunch with options.
func (c *Collector) CollectBunchOpts(b addr.BunchID, opts CollectOpts) CollectStats {
	return c.collect([]addr.BunchID{b}, opts, false)
}

// CollectGroup runs the group garbage collector (§7) on a group of
// co-mapped bunches at this site, reclaiming inter-bunch cycles internal to
// the group. A nil group means the locality-based heuristic: every bunch
// currently mapped at this node.
func (c *Collector) CollectGroup(group []addr.BunchID) CollectStats {
	if group == nil {
		group = c.MappedBunches()
	}
	return c.collect(group, CollectOpts{}, true)
}

// CollectBunches runs one bunch collection per bunch, in order — bunches
// are independent collection units (§2.2) — and merges their statistics. A
// nil list means every bunch currently mapped at this node.
func (c *Collector) CollectBunches(bunches []addr.BunchID) CollectStats {
	if bunches == nil {
		bunches = c.MappedBunches()
	}
	var total CollectStats
	for _, b := range bunches {
		total.Merge(c.CollectBunch(b))
	}
	return total
}

// reuseFactor sets the §4.5 trigger: a node reuses a bunch's from-space
// once it holds reuseFactor times what the bunch's last collection copied
// there, and never less than reuseFactor segments.
const reuseFactor = 2

// denseLivePercent is the share of its capacity a segment's live words
// must reach for a collection to leave it in place (keepDense): at most a
// fifth of a kept segment is dead, and it is recovered once the segment
// drops below the threshold and is evacuated.
const denseLivePercent = 80

func (c *Collector) collect(bunches []addr.BunchID, opts CollectOpts, group bool) CollectStats {
	// ---- From-space reuse (§4.5), before this collection starts ---------
	// The paper reuses a from-space segment once the to-space fills. Only
	// segments emptied by an earlier collection are candidates, and that
	// collection's flip has passed its durability barrier, so no crash
	// recovery can need them. Reusing at the end of a collection instead
	// would free them before that collection's own barrier.
	for _, b := range bunches {
		if rep := c.Replica(b); c.fromSpaceFull(rep) {
			c.ReclaimFromSpace(b)
		}
	}

	total := transport.StartWatch(c.net.Clock())
	var st CollectStats
	st.Bunches = len(bunches)
	var gfl uint8
	if group {
		gfl = obs.FlagGroup
	}

	scr := &c.scratch
	scr.reset()
	clear(c.segLive)
	c.nextMarkEpoch()
	set := scr.set
	for _, b := range bunches {
		set[b] = true
	}
	// plainStrong keeps the non-scion strong roots (mutator handles and
	// entering ownerPtrs) and scionRootsBySrc the inter-scion roots per
	// source node, for the derivative-exiting analysis after the trace.
	strongRoots, weakRoots, plainStrong := scr.strongRoots, scr.weakRoots, scr.plainStrong
	scionRootsBySrc := scr.scionRootsBySrc

	// ---- Setup and flip pause 1 (root snapshot, §4.1) --------------------
	c.rec.Emit(obs.Event{Kind: obs.KGCStart, Class: obs.ClassGC, Flags: gfl, A: int64(len(bunches))})

	// Snapshot the pre-collection segment lists: the copy phase evacuates
	// these, bar the dense ones keepDense leaves in place, and every
	// segment this node created for the bunch since its last collection —
	// allocation and copy-overflow segments alike — becomes a from-space
	// candidate for the §4.5 reuse protocol. Nothing is mapped here: a
	// segment this node holds no replica of has no object for the trace to
	// find.
	for _, b := range bunches {
		rep := c.Replica(b)
		for _, meta := range c.dir.Segments(b) {
			scr.oldSegs[meta.ID] = true
		}
		rep.copiedWords = 0
		// Fresh to-space: mutator allocations during the collection
		// land there and survive this cycle unconditionally.
		rep.allocSeg = c.newAllocSeg(b)
		rep.gcActive = true
		rep.writeLog = make(map[addr.OID]bool)
	}

	pause1 := transport.StartWatch(c.net.Clock())
	for _, b := range bunches {
		rep := c.Replica(b)
		for _, r := range c.dsm.Members(b) {
			if r.IsRoot() {
				strongRoots = append(strongRoots, r.OID())
				plainStrong = append(plainStrong, r.OID())
			}
		}
		for _, sc := range rep.Table.InterScionList() {
			// §7: scions of SSPs originating *at this site* within the
			// collected group are not roots, so group-internal cycles
			// are not artificially held over. Remotely held stubs keep
			// their scions as roots: this site cannot decide for them.
			if group && set[sc.SrcBunch] && sc.SrcNode == c.node {
				continue
			}
			if !c.dsm.Knows(sc.TargetOID) {
				// A scion protects its target through this node's exiting
				// ownerPtr: route an unknown target at the owner hint.
				if _, hint := c.dir.Locate(sc.TargetOID); hint != addr.NoNode && hint != c.node {
					c.dsm.Learn(sc.TargetOID, b, hint)
				}
			}
			strongRoots = append(strongRoots, sc.TargetOID)
			scionRootsBySrc[sc.SrcNode] = append(scionRootsBySrc[sc.SrcNode], sc.TargetOID)
		}
		for _, o := range c.dsm.EnteringRoots(b) {
			if group && c.dsm.EnteringAllDerivative(o) && c.stubsAllInGroup(o, set) {
				// Every remote replica routing through this node reported
				// itself live only via scions that this site's own
				// group-internal stubs sustain (§6.2 extended to
				// inter-bunch SSPs). The entering entries are an echo of
				// local liveness, not independent roots: if the trace
				// reaches o anyway the stubs survive and nothing changes;
				// if not, the stubs drop, the remote scions are cleaned,
				// and the cross-site cycle unwinds.
				c.stats().Add("core.gc.enteringDiscounted", 1)
				continue
			}
			strongRoots = append(strongRoots, o)
			plainStrong = append(plainStrong, o)
		}
		weakRoots = append(weakRoots, rep.Table.IntraScionRootOIDs()...)
	}
	scr.strongRoots, scr.weakRoots, scr.plainStrong = strongRoots, weakRoots, plainStrong
	st.RootCount = len(strongRoots) + len(weakRoots)
	c.net.Clock().Advance(rootTick * uint64(st.RootCount))
	st.PauseRootTicks = pause1.Elapsed()
	c.phaseHists["roots"].Observe(int64(st.PauseRootTicks))
	c.rec.Emit(obs.Event{Kind: obs.KGCRoots, Class: obs.ClassGC, Flags: gfl,
		A: int64(st.RootCount), B: int64(st.PauseRootTicks)})

	// ---- Concurrent phase: the mutator may run now ----------------------
	if opts.DuringTrace != nil {
		opts.DuringTrace()
	}

	// ---- Trace -----------------------------------------------------------
	traceWatch := transport.StartWatch(c.net.Clock())
	n, w := c.trace(set, strongRoots, strongLive)
	st.Scanned += n
	st.ScannedWords += w
	n, w = c.trace(set, weakRoots, weakLive)
	st.Scanned += n
	st.ScannedWords += w
	c.scanHist.Observe(int64(st.Scanned))
	c.phaseHists["trace"].Observe(int64(traceWatch.Elapsed()))
	c.rec.Emit(obs.Event{Kind: obs.KGCTrace, Class: obs.ClassGC, Flags: gfl, A: int64(st.Scanned)})

	// The derivative analysis, copy and fixup walk this order: no mark
	// changes between them.
	liveOrder := c.liveRecords(bunches)

	// Derivative-exiting analysis (§6.2 extended): for each remote node X
	// whose scions contributed roots, re-trace without them; a strongly
	// live object unreachable without X's scions, whose ownerPtr points at
	// X, is held live here solely on X's own behalf. Its exiting entry is
	// flagged so X's group collector can discount the echo. An object with
	// no record here has no ownerPtr, so only liveOrder can qualify.
	derivative := scr.derivative
	for x, xs := range scionRootsBySrc {
		if x == c.node || len(xs) == 0 {
			// A local ownerPtr target never routes through itself, and an
			// empty list is a source with no scion roots this time.
			continue
		}
		aux := scr.aux
		clear(aux)
		auxRoots := append(scr.auxRoots[:0], plainStrong...)
		for ox, sc := range scionRootsBySrc {
			if ox != x {
				auxRoots = append(auxRoots, sc...)
			}
		}
		scr.auxRoots = auxRoots
		c.traceQuiet(set, auxRoots, strongLive, aux)
		for _, r := range liveOrder {
			if c.markOf(r, r.OID()) == strongLive && aux[r.OID()] == notLive && r.OwnerPtr() == x {
				derivative[r.OID()] = true
			}
		}
	}

	// ---- Keep dense segments in place -----------------------------------
	for _, b := range bunches {
		c.keepDense(c.Replica(b), scr.oldSegs)
	}

	// ---- Copy phase: only locally-owned live objects move (§4.2) --------
	copyWatch := transport.StartWatch(c.net.Clock())
	copied := scr.copied
	for _, r := range liveOrder {
		if !r.IsOwner() {
			continue
		}
		can, ok := r.Canonical()
		if !ok {
			continue
		}
		if id, _ := c.heap.Allocator().SegIndex(can); !scr.oldSegs[id] || c.settled[id] {
			continue // already in to-space (e.g. allocated during this GC), or kept
		}
		o := r.OID()
		if man, moved := c.moveOwnedObject(r); moved {
			copied = append(copied, r)
			st.Copied++
			st.CopiedWords += man.Size + mem.HeaderWords
			c.Replica(man.Bunch).copiedWords += man.Size + mem.HeaderWords
			c.copyHist.Observe(int64(man.Size))
			c.rec.Emit(obs.Event{Kind: obs.KGCCopy, Class: obs.ClassGC,
				Flags: gfl | obs.FlagOwned, OID: o, A: int64(man.Size)})
		}
	}
	scr.copied = copied
	c.phaseHists["copy"].Observe(int64(copyWatch.Elapsed()))

	// ---- Local reference update (§4.4): no token, strictly local --------
	fixupWatch := transport.StartWatch(c.net.Clock())
	for _, r := range liveOrder {
		c.fixupLocalRefs(r.OID())
	}
	c.phaseHists["fixup"].Observe(int64(fixupWatch.Elapsed()))

	replayed := 0
	// ---- Flip pause 2: replay the mutation log ----------------------
	pause2 := transport.StartWatch(c.net.Clock())
	var revive []addr.OID
	for _, b := range bunches {
		rep := c.Replica(b)
		for o := range rep.writeLog {
			if c.markOf(c.dsm.Record(o), o) != notLive {
				c.fixupLocalRefs(o)
			} else {
				// Written while the collector ran but missed by the
				// trace: the mutator reached it through roots acquired
				// after the snapshot. Revive it (and what it references)
				// rather than reclaim a live object.
				revive = append(revive, o)
			}
			replayed++
			c.net.Clock().Advance(logTick)
		}
	}
	if len(revive) > 0 {
		slices.Sort(revive)
		rn, rw := c.trace(set, revive, strongLive)
		st.Scanned += rn
		st.ScannedWords += rw
		c.stats().Add("core.gc.revived", int64(len(revive)))
	}
	st.PauseFlipTicks = pause2.Elapsed()
	c.phaseHists["flip"].Observe(int64(st.PauseFlipTicks))
	c.rec.Emit(obs.Event{Kind: obs.KGCFlip, Class: obs.ClassGC, Flags: gfl,
		A: int64(replayed), B: int64(st.PauseFlipTicks)})

	// ---- Reclaim dead objects locally -------------------------------
	reclaimWatch := transport.StartWatch(c.net.Clock())
	deadByManager := scr.deadByManager
	deadOIDs := scr.dead
	for _, b := range bunches {
		// Every record of the bunch with protocol state or a canonical
		// address; the walk frees records but creates none.
		for _, r := range c.dsm.Members(b) {
			o := r.OID()
			can, hasCanon := r.Canonical()
			if !r.Known() && !hasCanon || c.markOf(r, o) != notLive {
				continue
			}
			if r.IsRoot() {
				// Became a mutator root after the snapshot (a handle
				// taken by the DuringTrace mutator); the next collection
				// decides its fate.
				continue
			}
			if c.dsm.IsRoutingOnly(o) {
				// Already just a forwarding stub at the manager — but a
				// late manifest may have re-attached a canonical address;
				// shed it, or the stub would read as a present replica.
				if hasCanon {
					c.dsm.DropCanonical(o)
				}
				continue
			}
			if hasCanon {
				if meta := c.dir.Allocator().Lookup(can); meta != nil && !scr.oldSegs[meta.ID] {
					continue // allocated during this collection; not traced, not dead
				}
			}
			manager := addr.NoNode
			if info, ok := c.dir.Object(o); ok {
				manager = info.AllocNode
			}
			rfl := gfl
			owned := r.IsOwner()
			if owned {
				rfl |= obs.FlagOwned
			}
			c.rec.Emit(obs.Event{Kind: obs.KGCReclaim, Class: obs.ClassGC, Flags: rfl, OID: o})
			c.dsm.DropCanonical(o)
			switch {
			case owned:
				// The owner reclaims last: no entering ownerPtrs, no
				// roots, no scions — the object is globally dead. Tell
				// the manager to drop its forwarding stub. The directory
				// record stays: a liveness report still in flight may
				// yet re-fault the object from the durable store, and
				// the record anchors that route. Keeping dead objects
				// out of crash recovery is the checkpoint live-set's
				// job, not the directory's.
				c.dsm.Forget(o)
				if manager != addr.NoNode && manager != c.node {
					deadByManager[manager] = append(deadByManager[manager], o)
				}
			case manager == c.node:
				// The allocation site anchors every ownerPtr chain for
				// this object (Li's manager role): keep a routing-only
				// stub so future acquires from any node still resolve.
				if !c.dsm.DemoteToRouting(o) {
					c.dsm.Forget(o)
				} else {
					c.stats().Add("core.gc.routingStubs", 1)
				}
			default:
				c.dsm.Forget(o)
			}
			deadOIDs = append(deadOIDs, o)
			st.Dead++
			c.stats().Add("core.gc.dead", 1)
		}
	}
	scr.dead = deadOIDs
	c.sendDeadNotices(deadByManager)
	c.phaseHists["reclaim"].Observe(int64(reclaimWatch.Elapsed()))

	// ---- Rebuild stub tables and exiting ownerPtrs (§4.3), send (§6) -
	tablesWatch := transport.StartWatch(c.net.Clock())
	fl := FlipLog{Bunches: bunches, Copied: copied, Dead: deadOIDs}
	for _, b := range bunches {
		rep := c.Replica(b)
		oldTable := rep.Table
		exiting := c.rebuildTable(b)
		rep.Gen++
		c.sendTables(b, oldTable, exiting, derivative)
		rep.gcActive = false
		c.relogFor(rep, &fl)
		c.settle(rep)
	}
	c.phaseHists["tables"].Observe(int64(tablesWatch.Elapsed()))

	// ---- Durability barrier (§8): one batched log force per flip ----
	// A crash injected on either side of this call models a kill exactly
	// before or after the flip's sync — the two windows the crash chaos
	// mode probes.
	if c.durBarrier != nil {
		c.durBarrier(fl)
	}

	count := func(s int) {
		if s == strongLive {
			st.LiveStrong++
		} else if s == weakLive {
			st.LiveWeak++
		}
	}
	for _, b := range bunches {
		for _, r := range c.dsm.Members(b) {
			count(c.markOf(r, r.OID()))
		}
	}
	for _, s := range scr.unrecorded {
		count(s)
	}
	st.TotalTicks = total.Elapsed()
	st.CPUTicks = rootTick*uint64(st.RootCount) +
		scanWordTick*uint64(st.ScannedWords) +
		copyWordTick*uint64(st.CopiedWords) +
		logTick*uint64(replayed)
	c.rec.Emit(obs.Event{Kind: obs.KGCDone, Class: obs.ClassGC, Flags: gfl,
		A: int64(st.Dead), B: int64(st.TotalTicks)})
	c.stats().Add("core.gc.runs", 1)
	c.stats().Add("core.gc.pauseRootTicks", int64(st.PauseRootTicks))
	c.stats().Add("core.gc.pauseFlipTicks", int64(st.PauseFlipTicks))
	c.stats().Add("core.gc.totalTicks", int64(st.TotalTicks))
	c.stats().Add("core.gc.cpuTicks", int64(st.CPUTicks))
	return st
}

// LiveOIDs traces bunch b's replica at this node without copying anything
// and returns the live objects (strong and weak), sorted. It is the probe
// the baseline collectors use to decide what they would lock.
func (c *Collector) LiveOIDs(b addr.BunchID) []addr.OID {
	rep := c.Replica(b)
	set := map[addr.BunchID]bool{b: true}
	var strong []addr.OID
	for _, r := range c.dsm.Members(b) {
		if r.IsRoot() {
			strong = append(strong, r.OID())
		}
	}
	for _, sc := range rep.Table.InterScionList() {
		strong = append(strong, sc.TargetOID)
	}
	strong = append(strong, c.dsm.EnteringRoots(b)...)
	live := make(map[addr.OID]int)
	c.traceImpl(set, strong, strongLive, live, false)
	c.traceImpl(set, rep.Table.IntraScionRootOIDs(), weakLive, live, false)
	return sortedLiveOIDs(live)
}

// newAllocSeg creates a fresh local allocation segment for bunch b and
// remembers it as locally created (only its creator ever allocates into a
// segment, so only the creator may later reclaim it).
func (c *Collector) newAllocSeg(b addr.BunchID) *mem.Segment {
	rep := c.Replica(b)
	meta := c.dir.AddSegment(b)
	if old := c.heap.Seg(meta.ID); old != nil && old.UsedWords() > 0 {
		// A recycled segment must have been unmapped everywhere by the
		// §4.5 round before the allocator could reuse it.
		panic(fmt.Sprintf("core: recycled segment %v still mapped with %d used words at %v",
			meta.ID, old.UsedWords(), c.node))
	}
	seg := c.heap.MapSegment(meta)
	rep.ownSegs = append(rep.ownSegs, seg.Meta.ID)
	// Allocating into a bunch makes this node one of its holders: it must
	// receive location updates, reachability tables and §4.5
	// address-change rounds for the bunch.
	c.dir.AddInterested(b, c.node)
	return seg
}

// A collection marks what it finds live in the objects' records
// (dsm.Record.Mark, DESIGN.md §14): the collector's mark epoch, advanced at
// every collection, above the strength in the low markShift bits. A mark
// from an earlier collection reads as notLive, so no pass clears marks.
// An object the node keeps no record of is marked in the scratch's
// unrecorded map. Between the trace and the end of the collection no
// record is created for an object, and none the trace marked is freed: a
// detach hands its mark to the record that takes over.
const (
	markShift    = 2
	strengthMask = 1<<markShift - 1
	maxMarkEpoch = 1<<(32-markShift) - 1
)

// nextMarkEpoch starts a collection's marks. When the epoch would
// overflow, every record's mark is cleared first, so no mark of an old
// epoch can read as current.
func (c *Collector) nextMarkEpoch() {
	if c.markEpoch == maxMarkEpoch {
		c.dsm.ClearMarks()
		c.markEpoch = 0
	}
	c.markEpoch++
}

// markOf returns the strength the running collection marked o with; r is
// o's record, nil when the node has none.
func (c *Collector) markOf(r *dsm.Record, o addr.OID) int {
	if r == nil {
		return c.scratch.unrecorded[o]
	}
	if m := r.Mark(); m>>markShift == c.markEpoch {
		return int(m & strengthMask)
	}
	return notLive
}

// setMark marks o, whose record is r, with strength s.
func (c *Collector) setMark(r *dsm.Record, o addr.OID, s int) {
	if r == nil {
		c.scratch.unrecorded[o] = s
		return
	}
	r.SetMark(c.markEpoch<<markShift | uint32(s))
}

// trace marks everything reachable from roots inside the collected bunch
// set at the given strength, scanning objects in place — including
// non-owned, possibly inconsistent replicas: "an inconsistent copy of the
// object is sufficient, because scanning an old version results in making a
// more conservative decision" (§4.2). Returns the number of objects and
// words scanned.
func (c *Collector) trace(set map[addr.BunchID]bool, roots []addr.OID, strength int) (int, int) {
	return c.traceImpl(set, roots, strength, nil, false)
}

// traceQuiet is trace without clock charges, stats or diagnostics, and
// with its marks in live instead of the records: an analysis pass (e.g.
// the derivative-exiting computation) that must not perturb the
// simulation's accounting or the collection's marks.
func (c *Collector) traceQuiet(set map[addr.BunchID]bool, roots []addr.OID, strength int, live map[addr.OID]int) {
	c.traceImpl(set, roots, strength, live, true)
}

// traceImpl is trace's and traceQuiet's walk, over the scratch work stack.
// It keeps its marks in live, or with a nil live in the records (markOf).
// A counted trace also adds each object it marks to the live words of the
// segment holding its header (segLive), for keepDense.
func (c *Collector) traceImpl(set map[addr.BunchID]bool, roots []addr.OID, strength int, live map[addr.OID]int, quiet bool) (int, int) {
	scanned, words := 0, 0
	work := append(c.scratch.work[:0], roots...)
	for len(work) > 0 {
		o := work[len(work)-1]
		work = work[:len(work)-1]
		if o.IsNil() {
			continue
		}
		r := c.dsm.Record(o)
		var prev int
		if live != nil {
			prev = live[o]
		} else {
			prev = c.markOf(r, o)
		}
		if prev >= strength {
			continue
		}
		if !set[c.bunchOf(r, o)] {
			continue // cross-bunch edges are represented by SSPs, not traced
		}
		if live != nil {
			live[o] = strength
		} else {
			c.setMark(r, o, strength)
		}
		a, ok := r.Canonical()
		if !ok {
			if !quiet {
				c.stats().Add("core.gc.rootUnknown", 1)
			}
			continue
		}
		if !c.heap.Mapped(a) || !c.heap.IsObjectAt(a) {
			if !quiet {
				c.stats().Add("core.gc.notPresent", 1)
			}
			continue
		}
		scanned++
		size := c.heap.ObjSize(a)
		words += size
		if !quiet {
			c.net.Clock().Advance(scanWordTick * uint64(size))
			if prev == notLive && c.heap.ObjOID(a) == o && !c.heap.Forwarded(a) {
				c.countLive(a, size+mem.HeaderWords)
			}
		}
		c.heap.ForEachRef(a, func(_ int, v addr.Addr) {
			if v.IsNil() {
				return
			}
			t := c.heap.OIDAt(v)
			if t.IsNil() {
				if !quiet {
					c.stats().Add("core.gc.danglingScan", 1)
				}
				return
			}
			work = append(work, t)
		})
	}
	c.scratch.work = work
	return scanned, words
}

// countLive adds words to the live words of the segment holding a.
func (c *Collector) countLive(a addr.Addr, words int) {
	id, _ := c.heap.Allocator().SegIndex(a)
	if n := int(id) + 1; n > len(c.segLive) {
		c.segLive = append(c.segLive, make([]int, n-len(c.segLive))...)
	}
	c.segLive[id] += words
}

// keepDense decides which of the segments this node created for rep's
// bunch before this collection (those in old, the collection's snapshot)
// stay in place; the rest join from-space. A segment stays when it is
// settled (Collector.settled) and the live words the trace found in it
// reach denseLivePercent of its capacity. Copying it would recover at most
// a fifth of a segment, for a forwarding pointer, a location update and a
// log record per object; no acquire-time invariant needs an object to move
// (§4.2, §4.4). Capacity, not used words, is the yardstick: only the
// allocation segment receives new objects, so a half-filled segment's free
// tail is lost unless it is evacuated. A node's first collection of a
// bunch keeps nothing, and an object allocated between collections is
// always compacted once (settle).
func (c *Collector) keepDense(rep *Replica, old map[addr.SegID]bool) {
	own := rep.ownSegs[:0]
	var kept, evacuated int64
	for _, id := range rep.ownSegs {
		if !old[id] {
			own = append(own, id) // opened during this collection: to-space
			continue
		}
		if s := c.heap.Seg(id); s != nil {
			live := 0
			if int(id) < len(c.segLive) {
				live = c.segLive[id]
			}
			c.segLiveHist.Observe(int64(100 * live / s.Meta.Words))
			if c.settled[id] && 100*live >= denseLivePercent*s.Meta.Words {
				own = append(own, id)
				kept++
				continue
			}
		}
		delete(c.settled, id)
		rep.fromSegs = append(rep.fromSegs, id)
		evacuated++
	}
	rep.ownSegs = own
	c.stats().Add("core.gc.segsKept", kept)
	c.stats().Add("core.gc.segsEvacuated", evacuated)
}

// relogFor hands the flip log rep's in-place changes (Replica.relog) that
// lie in a segment this flip kept, and forgets the rest: they lay in
// evacuated segments, whose owned objects were copied and are logged whole.
// Until settle runs, the bunch's settled segments are the kept ones.
func (c *Collector) relogFor(rep *Replica, fl *FlipLog) {
	alloc := c.heap.Allocator()
	for e := range rep.relog {
		id, _ := alloc.SegIndex(e.a)
		switch {
		case !c.settled[id]:
		case e.o.IsNil():
			fl.Rewritten = append(fl.Rewritten, e.a)
		default:
			// Only an owned object this node still holds at that header
			// has a durable state here to bring up to date.
			r := c.dsm.Record(e.o)
			if can, ok := r.Canonical(); ok && can == e.a && r.IsOwner() &&
				c.heap.ObjOID(can) == e.o && !c.heap.Forwarded(can) {
				fl.Installed = append(fl.Installed, r)
			}
		}
	}
	clear(rep.relog)
	slices.Sort(fl.Rewritten)
	slices.SortFunc(fl.Installed, func(a, b *dsm.Record) int { return cmp.Compare(a.OID(), b.OID()) })
}

// settle marks rep's own segments settled at the flip, bar the current
// allocation segment while it has room for another object: what lands
// there before the next collection is not logged whole, so that collection
// evacuates it and logs its copies.
func (c *Collector) settle(rep *Replica) {
	for _, id := range rep.ownSegs {
		c.settled[id] = true
	}
	if s := rep.allocSeg; s != nil && s.FreeWords() >= mem.HeaderWords {
		delete(c.settled, s.Meta.ID)
	}
}

// stubsAllInGroup reports whether every inter-bunch stub this node holds
// targeting o originates in a bunch of the collected set — i.e. this very
// collection decides the fate of every local stub sustaining o's remote
// scions.
func (c *Collector) stubsAllInGroup(o addr.OID, set map[addr.BunchID]bool) bool {
	for _, b := range c.MappedBunches() {
		for _, s := range c.Replica(b).Table.InterStubs {
			if s.TargetOID == o && !set[s.SrcBunch] {
				return false
			}
		}
	}
	return true
}

// fixupLocalRefs rewrites the pointer fields of o's local copy to the
// current local addresses of their referees, with nothing in hand.
func (c *Collector) fixupLocalRefs(o addr.OID) {
	a, ok := c.dsm.Canonical(o)
	if !ok || !c.heap.Mapped(a) || !c.heap.IsObjectAt(a) {
		return
	}
	c.normalizeRefs(a, "core.gc.refsUpdated", nil)
}

// rebuildTable reconstructs bunch b's stub table from the trace results
// (§4.3): an inter-bunch stub survives if its source object is live here and
// still contains the reference; an intra-bunch stub survives if its object
// is live here (the forwarding chain must outlive the replica, §6.2); scions
// are untouched — only the scion cleaner retires them. It returns the new
// exiting-ownerPtr map, which omits weakly live objects (§6.2).
func (c *Collector) rebuildTable(b addr.BunchID) map[addr.OID]addr.NodeID {
	rep := c.Replica(b)
	old := rep.Table
	nt := ssp.NewTable(b)
	nt.InterScions = old.InterScions
	nt.IntraScions = old.IntraScions

	for _, stub := range old.InterStubList() {
		if c.markOf(c.dsm.Record(stub.SrcOID), stub.SrcOID) == notLive {
			c.stats().Add("core.gc.stubsDropped", 1)
			continue
		}
		if !c.objectStillReferences(stub.SrcOID, stub.TargetOID) {
			c.stats().Add("core.gc.stubsDropped", 1)
			continue
		}
		nt.AddInterStub(stub)
	}
	for _, stub := range old.IntraStubList() {
		if c.markOf(c.dsm.Record(stub.OID), stub.OID) == notLive {
			c.stats().Add("core.gc.stubsDropped", 1)
			continue
		}
		nt.AddIntraStub(stub)
	}
	rep.Table = nt

	scionTargets := make(map[addr.OID]bool, len(nt.InterScions))
	for _, sc := range nt.InterScions {
		scionTargets[sc.TargetOID] = true
	}
	// Only an object with a record here can have an exiting ownerPtr. The
	// revival trace marks after liveOrder is built, so walk the members.
	exiting := make(map[addr.OID]addr.NodeID)
	for _, r := range c.dsm.Members(b) {
		o := r.OID()
		if c.markOf(r, o) != strongLive || r.IsOwner() {
			continue
		}
		// Exiting ownerPtrs describe cached *replicas* (§4.3); protocol
		// state without a local copy (routing bookkeeping recreated by
		// traffic after a reclaim) must not pin the object remotely —
		// unless a scion here or a node routing through here needs it.
		if _, ok := r.Canonical(); !ok && !scionTargets[o] && !r.HasEntering() {
			continue
		}
		if t := r.OwnerPtr(); t != addr.NoNode {
			exiting[o] = t
		}
	}
	return exiting
}

// objectStillReferences checks the local copy of src for a pointer resolving
// to target (§4.3: a stub is dropped when the local object no longer
// includes the inter-bunch reference).
func (c *Collector) objectStillReferences(src, target addr.OID) bool {
	a, ok := c.dsm.Canonical(src)
	if !ok || !c.heap.Mapped(a) || !c.heap.IsObjectAt(a) {
		return false
	}
	found := false
	c.heap.ForEachRef(a, func(_ int, v addr.Addr) {
		found = found || !v.IsNil() && c.heap.OIDAt(v) == target
	})
	return found
}

// sendTables distributes the freshly rebuilt reachability information of
// bunch b: to every node holding any of b's content, to every node holding a
// scion matched by one of b's stubs — including stubs that were just dropped
// (the destination must learn about the retraction) — and to every exiting
// ownerPtr target (§4.1). Messages are complete snapshots — idempotent, so
// no reliable transport is needed (§6.1). The local subset is processed
// synchronously (a node is its own scion cleaner for local SSPs).
func (c *Collector) sendTables(b addr.BunchID, oldTable *ssp.Table, exiting map[addr.OID]addr.NodeID, derivative map[addr.OID]bool) {
	rep := c.Replica(b)
	dests := make(map[addr.NodeID]bool)
	for _, n := range c.dir.Holders(b) {
		dests[n] = true
	}
	for _, t := range []*ssp.Table{oldTable, rep.Table} {
		for _, s := range t.InterStubs {
			dests[s.ScionNode] = true
		}
		for _, s := range t.IntraStubs {
			dests[s.OldOwner] = true
		}
	}
	for _, t := range exiting {
		dests[t] = true
	}
	var order []addr.NodeID
	for n := range dests {
		order = append(order, n)
	}
	slices.Sort(order)

	for _, dst := range order {
		msg := ssp.TableMsg{From: c.node, Bunch: b, Gen: rep.Gen}
		for _, s := range rep.Table.InterStubList() {
			if s.ScionNode == dst {
				msg.InterStubs = append(msg.InterStubs, s)
			}
		}
		for _, s := range rep.Table.IntraStubList() {
			if s.OldOwner == dst {
				msg.IntraStubs = append(msg.IntraStubs, s)
			}
		}
		for o, t := range exiting {
			if t == dst {
				msg.Exiting = append(msg.Exiting, o)
				if derivative[o] {
					msg.Derivative = append(msg.Derivative, o)
				}
			}
		}
		slices.Sort(msg.Exiting)
		slices.Sort(msg.Derivative)

		if dst == c.node {
			c.ApplyTable(msg)
			continue
		}
		c.net.Send(transport.Msg{
			From: c.node, To: dst, Kind: KindTable, Class: transport.ClassGC,
			Payload: msg, Bytes: msg.WireBytes(),
		})
		c.stats().Add("core.tables.sent", 1)
	}
	c.rec.Emit(obs.Event{Kind: obs.KGCTables, Class: obs.ClassGC, A: int64(len(order))})
}

// liveRecords lists the records of the collected bunches the trace marked,
// in OID order, in the scratch's list. Each member list is in OID order
// already, so only a group of several bunches is sorted. A live object
// without a record here has neither a copy to move nor words to fix, so it
// is not listed.
func (c *Collector) liveRecords(bunches []addr.BunchID) []*dsm.Record {
	out := c.scratch.liveOrder[:0]
	for _, b := range bunches {
		for _, r := range c.dsm.Members(b) {
			if c.markOf(r, r.OID()) != notLive {
				out = append(out, r)
			}
		}
	}
	c.scratch.liveOrder = out
	if len(bunches) > 1 {
		slices.SortFunc(out, func(a, b *dsm.Record) int { return cmp.Compare(a.OID(), b.OID()) })
	}
	return out
}

func sortedLiveOIDs(live map[addr.OID]int) []addr.OID {
	out := make([]addr.OID, 0, len(live))
	for o, s := range live {
		if s != notLive {
			out = append(out, o)
		}
	}
	slices.Sort(out)
	return out
}
