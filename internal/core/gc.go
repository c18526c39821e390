package core

import (
	"fmt"
	"slices"

	"bmx/internal/addr"
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

func (c *Collector) collect(bunches []addr.BunchID, opts CollectOpts, group bool) CollectStats {
	total := transport.StartWatch(c.net.Clock())
	var st CollectStats
	st.Bunches = len(bunches)
	var gfl uint8
	if group {
		gfl = obs.FlagGroup
	}
	set := make(map[addr.BunchID]bool, len(bunches))
	for _, b := range bunches {
		set[b] = true
	}

	oldSegs := make(map[addr.SegID]bool)
	fromCandidates := make(map[addr.BunchID][]addr.SegID)
	var strongRoots, weakRoots []addr.OID
	// plainStrong keeps the non-scion strong roots (mutator handles and
	// entering ownerPtrs) and scionRootsBySrc the inter-scion roots per
	// source node, for the derivative-exiting analysis after the trace.
	var plainStrong []addr.OID
	scionRootsBySrc := make(map[addr.NodeID][]addr.OID)

	// ---- Setup and flip pause 1 (root snapshot, §4.1) --------------------
	c.rec.Emit(obs.Event{Kind: obs.KGCStart, Class: obs.ClassGC, Flags: gfl, A: int64(len(bunches))})

	// Map every current segment of the collected bunches and snapshot
	// the pre-collection segment lists: the copy phase evacuates these,
	// and this node's own pre-collection allocation segments become
	// from-space candidates for the §4.5 reuse protocol.
	for _, b := range bunches {
		rep := c.Replica(b)
		for _, meta := range c.dir.Segments(b) {
			c.heap.MapSegment(meta)
			oldSegs[meta.ID] = true
		}
		fromCandidates[b] = rep.ownSegs
		rep.ownSegs = nil
		// Fresh to-space: mutator allocations during the collection
		// land there and survive this cycle unconditionally.
		rep.allocSeg = c.newAllocSeg(b)
		rep.gcActive = true
		rep.writeLog = make(map[addr.OID]bool)
	}

	pause1 := transport.StartWatch(c.net.Clock())
	for _, b := range bunches {
		rep := c.Replica(b)
		for _, o := range c.RootOIDs() {
			if c.dir.BunchOf(o) == b {
				strongRoots = append(strongRoots, o)
				plainStrong = append(plainStrong, o)
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
	st.RootCount = len(strongRoots) + len(weakRoots)
	c.net.Clock().Advance(c.costs.RootTick * uint64(st.RootCount))
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
	live := make(map[addr.OID]int)
	n, w := c.trace(set, strongRoots, strongLive, live)
	st.Scanned += n
	st.ScannedWords += w
	n, w = c.trace(set, weakRoots, weakLive, live)
	st.Scanned += n
	st.ScannedWords += w
	c.scanHist.Observe(int64(st.Scanned))
	c.phaseHists["trace"].Observe(int64(traceWatch.Elapsed()))
	c.rec.Emit(obs.Event{Kind: obs.KGCTrace, Class: obs.ClassGC, Flags: gfl, A: int64(st.Scanned)})

	// Derivative-exiting analysis (§6.2 extended): for each remote node X
	// whose scions contributed roots, re-trace without them; a strongly
	// live object unreachable without X's scions, whose ownerPtr points at
	// X, is held live here solely on X's own behalf. Its exiting entry is
	// flagged so X's group collector can discount the echo.
	derivative := make(map[addr.OID]bool)
	for x := range scionRootsBySrc {
		if x == c.node {
			continue // a local ownerPtr target never routes through itself
		}
		aux := make(map[addr.OID]int)
		auxRoots := append([]addr.OID(nil), plainStrong...)
		for ox, sc := range scionRootsBySrc {
			if ox != x {
				auxRoots = append(auxRoots, sc...)
			}
		}
		c.traceQuiet(set, auxRoots, strongLive, aux)
		for o, s := range live {
			if s == strongLive && aux[o] == notLive && c.dsm.OwnerPtrOf(o) == x {
				derivative[o] = true
			}
		}
	}

	// ---- Copy phase: only locally-owned live objects move (§4.2) --------
	copyWatch := transport.StartWatch(c.net.Clock())
	var copied []addr.OID
	for _, o := range sortedLiveOIDs(live) {
		if !c.dsm.IsOwner(o) {
			continue
		}
		can, ok := c.heap.Canonical(o)
		if !ok {
			continue
		}
		meta := c.dir.Allocator().Lookup(can)
		if meta == nil || !oldSegs[meta.ID] {
			continue // already in to-space (e.g. allocated during this GC)
		}
		if man, moved := c.moveOwnedObject(o); moved {
			copied = append(copied, o)
			st.Copied++
			st.CopiedWords += man.Size + mem.HeaderWords
			c.copyHist.Observe(int64(man.Size))
			c.rec.Emit(obs.Event{Kind: obs.KGCCopy, Class: obs.ClassGC,
				Flags: gfl | obs.FlagOwned, OID: o, A: int64(man.Size)})
		}
	}
	c.phaseHists["copy"].Observe(int64(copyWatch.Elapsed()))

	// ---- Local reference update (§4.4): no token, strictly local --------
	fixupWatch := transport.StartWatch(c.net.Clock())
	for _, o := range sortedLiveOIDs(live) {
		c.fixupLocalRefs(o)
	}
	c.phaseHists["fixup"].Observe(int64(fixupWatch.Elapsed()))

	replayed := 0
	// ---- Flip pause 2: replay the mutation log ----------------------
	pause2 := transport.StartWatch(c.net.Clock())
	var revive []addr.OID
	for _, b := range bunches {
		rep := c.Replica(b)
		for o := range rep.writeLog {
			if live[o] != notLive {
				c.fixupLocalRefs(o)
			} else {
				// Written while the collector ran but missed by the
				// trace: the mutator reached it through roots acquired
				// after the snapshot. Revive it (and what it references)
				// rather than reclaim a live object.
				revive = append(revive, o)
			}
			replayed++
			c.net.Clock().Advance(c.costs.LogTick)
		}
	}
	if len(revive) > 0 {
		slices.Sort(revive)
		rn, rw := c.trace(set, revive, strongLive, live)
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
	deadByManager := make(map[addr.NodeID][]addr.OID)
	var deadOIDs []addr.OID
	for _, b := range bunches {
		for _, o := range c.knownInBunch(b) {
			if live[o] != notLive {
				continue
			}
			if c.IsRoot(o) {
				// Became a mutator root after the snapshot (a handle
				// taken by the DuringTrace mutator); the next collection
				// decides its fate.
				continue
			}
			if c.dsm.IsRoutingOnly(o) {
				// Already just a forwarding stub at the manager — but a
				// late manifest may have re-attached a canonical address;
				// shed it, or the stub would read as a present replica.
				if _, ok := c.heap.Canonical(o); ok {
					c.heap.DropObject(o)
				}
				continue
			}
			if can, ok := c.heap.Canonical(o); ok {
				if meta := c.dir.Allocator().Lookup(can); meta != nil && !oldSegs[meta.ID] {
					continue // allocated during this collection; not traced, not dead
				}
			}
			manager := addr.NoNode
			if info, ok := c.dir.Object(o); ok {
				manager = info.AllocNode
			}
			rfl := gfl
			if c.dsm.IsOwner(o) {
				rfl |= obs.FlagOwned
			}
			c.rec.Emit(obs.Event{Kind: obs.KGCReclaim, Class: obs.ClassGC, Flags: rfl, OID: o})
			c.heap.DropObject(o)
			switch {
			case c.dsm.IsOwner(o):
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
	c.sendDeadNotices(deadByManager)
	c.phaseHists["reclaim"].Observe(int64(reclaimWatch.Elapsed()))

	// ---- Rebuild stub tables and exiting ownerPtrs (§4.3), send (§6) -
	tablesWatch := transport.StartWatch(c.net.Clock())
	for _, b := range bunches {
		rep := c.Replica(b)
		oldTable := rep.Table
		exiting := c.rebuildTable(b, live)
		rep.Gen++
		c.sendTables(b, oldTable, exiting, derivative)
		rep.fromSegs = append(rep.fromSegs, fromCandidates[b]...)
		rep.gcActive = false
	}
	c.phaseHists["tables"].Observe(int64(tablesWatch.Elapsed()))

	// ---- Durability barrier (§8): one batched log force per flip ----
	// A crash injected on either side of this call models a kill exactly
	// before or after the flip's sync — the two windows the crash chaos
	// mode probes.
	if c.durBarrier != nil {
		c.durBarrier(FlipLog{Bunches: bunches, Copied: copied, Dead: deadOIDs})
	}

	for _, s := range live {
		if s == strongLive {
			st.LiveStrong++
		} else if s == weakLive {
			st.LiveWeak++
		}
	}
	st.TotalTicks = total.Elapsed()
	st.CPUTicks = c.costs.RootTick*uint64(st.RootCount) +
		c.costs.ScanWordTick*uint64(st.ScannedWords) +
		c.costs.CopyWordTick*uint64(st.CopiedWords) +
		c.costs.LogTick*uint64(replayed)
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
	for _, meta := range c.dir.Segments(b) {
		c.heap.MapSegment(meta)
	}
	set := map[addr.BunchID]bool{b: true}
	var strong []addr.OID
	for _, o := range c.RootOIDs() {
		if c.dir.BunchOf(o) == b {
			strong = append(strong, o)
		}
	}
	for _, sc := range rep.Table.InterScionList() {
		strong = append(strong, sc.TargetOID)
	}
	strong = append(strong, c.dsm.EnteringRoots(b)...)
	live := make(map[addr.OID]int)
	c.trace(set, strong, strongLive, live)
	c.trace(set, rep.Table.IntraScionRootOIDs(), weakLive, live)
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
	if !c.dir.HasReplica(b, c.node) {
		c.dir.AddInterested(b, c.node)
	}
	return seg
}

// trace marks everything reachable from roots inside the collected bunch
// set at the given strength, scanning objects in place — including
// non-owned, possibly inconsistent replicas: "an inconsistent copy of the
// object is sufficient, because scanning an old version results in making a
// more conservative decision" (§4.2). Returns the number of objects and
// words scanned.
func (c *Collector) trace(set map[addr.BunchID]bool, roots []addr.OID, strength int, live map[addr.OID]int) (int, int) {
	return c.traceImpl(set, roots, strength, live, false)
}

// traceQuiet is trace without clock charges, stats or diagnostics: an
// analysis pass (e.g. the derivative-exiting computation) that must not
// perturb the simulation's accounting.
func (c *Collector) traceQuiet(set map[addr.BunchID]bool, roots []addr.OID, strength int, live map[addr.OID]int) {
	c.traceImpl(set, roots, strength, live, true)
}

func (c *Collector) traceImpl(set map[addr.BunchID]bool, roots []addr.OID, strength int, live map[addr.OID]int, quiet bool) (int, int) {
	scanned, words := 0, 0
	work := append([]addr.OID(nil), roots...)
	for len(work) > 0 {
		o := work[len(work)-1]
		work = work[:len(work)-1]
		if o.IsNil() || live[o] >= strength {
			continue
		}
		if !set[c.dir.BunchOf(o)] {
			continue // cross-bunch edges are represented by SSPs, not traced
		}
		live[o] = strength
		a, ok := c.heap.Canonical(o)
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
			c.net.Clock().Advance(c.costs.ScanWordTick * uint64(size))
		}
		for _, v := range sortedRefValues(c.heap.Refs(a)) {
			if v.IsNil() {
				continue
			}
			t := c.OIDAt(v)
			if t.IsNil() {
				if !quiet {
					c.stats().Add("core.gc.danglingScan", 1)
				}
				continue
			}
			work = append(work, t)
		}
	}
	return scanned, words
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

// fixupLocalRefs rewrites the pointer fields of o's local copy through the
// local forwarding pointers. This modifies objects without any token: the
// change is address-level only and invisible to the application's
// consistency contract (§4.4).
func (c *Collector) fixupLocalRefs(o addr.OID) {
	a, ok := c.heap.Canonical(o)
	if !ok || !c.heap.Mapped(a) || !c.heap.IsObjectAt(a) {
		return
	}
	for i, v := range c.heap.Refs(a) {
		if v.IsNil() {
			continue
		}
		if r, oid := c.ResolveRef(v); !oid.IsNil() && r != v {
			c.heap.SetField(a, i, uint64(r), true)
			c.stats().Add("core.gc.refsUpdated", 1)
		}
	}
}

// knownInBunch lists every object of bunch b this node has any knowledge of
// (protocol state or a canonical address).
func (c *Collector) knownInBunch(b addr.BunchID) []addr.OID {
	set := make(map[addr.OID]bool)
	for _, o := range c.dsm.ObjectsInBunch(b) {
		set[o] = true
	}
	for _, o := range c.heap.KnownObjects() {
		if c.dir.BunchOf(o) == b {
			set[o] = true
		}
	}
	out := make([]addr.OID, 0, len(set))
	for o := range set {
		out = append(out, o)
	}
	slices.Sort(out)
	return out
}

// rebuildTable reconstructs bunch b's stub table from the trace results
// (§4.3): an inter-bunch stub survives if its source object is live here and
// still contains the reference; an intra-bunch stub survives if its object
// is live here (the forwarding chain must outlive the replica, §6.2); scions
// are untouched — only the scion cleaner retires them. It returns the new
// exiting-ownerPtr map, which omits weakly live objects (§6.2).
func (c *Collector) rebuildTable(b addr.BunchID, live map[addr.OID]int) map[addr.OID]addr.NodeID {
	rep := c.Replica(b)
	old := rep.Table
	nt := ssp.NewTable(b)
	nt.InterScions = old.InterScions
	nt.IntraScions = old.IntraScions

	for _, stub := range old.InterStubList() {
		if live[stub.SrcOID] == notLive {
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
		if live[stub.OID] == notLive {
			c.stats().Add("core.gc.stubsDropped", 1)
			continue
		}
		nt.AddIntraStub(stub)
	}
	rep.Table = nt

	exiting := make(map[addr.OID]addr.NodeID)
	for o, s := range live {
		if s != strongLive || c.dir.BunchOf(o) != b || c.dsm.IsOwner(o) {
			continue
		}
		// Exiting ownerPtrs describe cached *replicas* (§4.3); protocol
		// state without a local copy (routing bookkeeping recreated by
		// traffic after a reclaim) must not pin the object remotely.
		if _, ok := c.heap.Canonical(o); !ok {
			continue
		}
		if t := c.dsm.OwnerPtrOf(o); t != addr.NoNode {
			exiting[o] = t
		}
	}
	return exiting
}

// objectStillReferences checks the local copy of src for a pointer resolving
// to target (§4.3: a stub is dropped when the local object no longer
// includes the inter-bunch reference).
func (c *Collector) objectStillReferences(src, target addr.OID) bool {
	a, ok := c.heap.Canonical(src)
	if !ok || !c.heap.Mapped(a) || !c.heap.IsObjectAt(a) {
		return false
	}
	for _, v := range c.heap.Refs(a) {
		if !v.IsNil() && c.OIDAt(v) == target {
			return true
		}
	}
	return false
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

// sortedRefValues returns the pointer-field values of an object in field
// order, for deterministic traversal.
func sortedRefValues(refs map[int]addr.Addr) []addr.Addr {
	idx := make([]int, 0, len(refs))
	for i := range refs {
		idx = append(idx, i)
	}
	slices.Sort(idx)
	out := make([]addr.Addr, 0, len(idx))
	for _, i := range idx {
		out = append(out, refs[i])
	}
	return out
}
