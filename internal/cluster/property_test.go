package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"bmx/internal/addr"
	"bmx/internal/dsm"
)

// This file implements the repository-level invariants of DESIGN.md §7 as a
// randomized interleaving test: a model mutator performs arbitrary
// operations (allocate, link, unlink, root, unroot, acquire, collect, clean,
// reclaim, map) across several nodes and bunches, while a reachability
// oracle over the *model* graph checks after every collection that
//
//   - SAFETY: no object reachable in the model is ever reclaimed everywhere
//     (and its data is never corrupted), and
//   - LIVENESS: once mutation stops, repeated collection rounds reclaim
//     every model-unreachable object on every node.

type modelObj struct {
	ref    Ref
	bunch  addr.BunchID
	fields []addr.OID // model's view of ref fields (NilOID = nil)
	value  uint64     // shadow of the last scalar written to field len-1
	rooted map[int]bool
}

// debugDangling enables the per-step dangling-pointer sweep (slow).
var debugDangling = true

type model struct {
	t       testing.TB
	cl      *Cluster
	rng     *rand.Rand
	bunches []addr.BunchID
	objs    map[addr.OID]*modelObj
	order   []addr.OID
}

// modelCfg parametrizes a randomized run.
type modelCfg struct {
	seed         int64
	nodes        int
	steps        int
	loss         float64
	protocol     dsm.Protocol
	segmentGrain bool
}

func newModel(t testing.TB, cfg modelCfg) *model {
	m := &model{
		t: t,
		cl: New(Config{
			Nodes: cfg.nodes, SegWords: 128, Seed: cfg.seed, Faults: lossy(cfg.loss),
			Consistency: cfg.protocol, SegmentGrainTokens: cfg.segmentGrain,
		}),
		rng:  rand.New(rand.NewSource(cfg.seed)),
		objs: make(map[addr.OID]*modelObj),
	}
	for i := 0; i < 2; i++ {
		m.bunches = append(m.bunches, m.cl.Node(i%cfg.nodes).NewBunch())
	}
	return m
}

func (m *model) node() *Node { return m.cl.Node(m.rng.Intn(m.cl.Nodes())) }

func (m *model) randObj() *modelObj {
	if len(m.order) == 0 {
		return nil
	}
	return m.objs[m.order[m.rng.Intn(len(m.order))]]
}

// reachable computes the model-level reachability (any root on any node).
func (m *model) reachable() map[addr.OID]bool {
	out := make(map[addr.OID]bool)
	var stack []addr.OID
	for oid, mo := range m.objs {
		if len(mo.rooted) > 0 {
			stack = append(stack, oid)
		}
	}
	for len(stack) > 0 {
		o := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if out[o] {
			continue
		}
		out[o] = true
		for _, f := range m.objs[o].fields {
			if !f.IsNil() {
				stack = append(stack, f)
			}
		}
	}
	return out
}

// step performs one random operation. Operations acquire the tokens a real
// application would. It returns a label for diagnostics.
func (m *model) step() string {
	nd := m.node()
	op := m.rng.Intn(10)
	label := fmt.Sprintf("op%d@node%d", op, nd.ID())
	switch op {
	case 0, 1: // allocate (and root at the allocator, so it is never lost)
		b := m.bunches[m.rng.Intn(len(m.bunches))]
		size := 2 + m.rng.Intn(2)
		r, err := nd.Alloc(b, size)
		if err != nil {
			m.t.Fatalf("alloc: %v", err)
		}
		mo := &modelObj{ref: r, bunch: b, fields: make([]addr.OID, size-1), rooted: map[int]bool{}}
		nd.AddRoot(r)
		mo.rooted[int(nd.ID())] = true
		m.objs[r.OID] = mo
		m.order = append(m.order, r.OID)
	case 2, 3: // link: src.field = target
		src, tgt := m.randObj(), m.randObj()
		if src == nil || tgt == nil || !m.live(src) || !m.live(tgt) {
			return label
		}
		if err := nd.AcquireWrite(src.ref); err != nil {
			m.t.Fatalf("acquire write %v at %v: %v", src.ref, nd.ID(), err)
		}
		// A mutator can only store a pointer it holds: learn the target's
		// address by acquiring it, as an application would.
		if err := nd.AcquireRead(tgt.ref); err != nil {
			m.t.Fatalf("acquire read of link target: %v", err)
		}
		f := m.rng.Intn(len(src.fields))
		if err := nd.WriteRef(src.ref, f, tgt.ref); err != nil {
			m.t.Fatalf("write ref: %v", err)
		}
		src.fields[f] = tgt.ref.OID
	case 4: // unlink
		src := m.randObj()
		if src == nil || !m.live(src) {
			return label
		}
		if err := nd.AcquireWrite(src.ref); err != nil {
			m.t.Fatalf("acquire write: %v", err)
		}
		f := m.rng.Intn(len(src.fields))
		if err := nd.WriteRef(src.ref, f, Nil); err != nil {
			m.t.Fatalf("unlink: %v", err)
		}
		src.fields[f] = addr.NilOID
	case 5: // write scalar (to the last field, kept as a shadow value)
		mo := m.randObj()
		if mo == nil || !m.live(mo) {
			return label
		}
		if err := nd.AcquireWrite(mo.ref); err != nil {
			m.t.Fatalf("acquire write: %v", err)
		}
		v := m.rng.Uint64()
		if err := nd.WriteWord(mo.ref, len(mo.fields), v); err != nil {
			m.t.Fatalf("write word: %v", err)
		}
		mo.value = v
	case 6: // root / unroot at a random node
		mo := m.randObj()
		if mo == nil {
			return label
		}
		id := int(nd.ID())
		if mo.rooted[id] {
			// Keep at least one root somewhere half of the time so the
			// graph does not collapse instantly.
			if len(mo.rooted) == 1 && m.rng.Intn(2) == 0 {
				return label
			}
			nd.RemoveRoot(mo.ref)
			delete(mo.rooted, id)
		} else if m.live(mo) {
			if err := nd.AcquireRead(mo.ref); err != nil {
				m.t.Fatalf("acquire read for rooting: %v", err)
			}
			nd.AddRoot(mo.ref)
			mo.rooted[id] = true
		}
	case 7: // read-share a random object somewhere
		mo := m.randObj()
		if mo == nil || !m.live(mo) {
			return label
		}
		if err := nd.AcquireRead(mo.ref); err != nil {
			m.t.Fatalf("acquire read: %v", err)
		}
	case 8: // collect a bunch at this node (plus deliver tables)
		b := m.bunches[m.rng.Intn(len(m.bunches))]
		nd.CollectBunch(b)
		m.cl.Run(0)
		m.checkSafety()
	case 9: // group collection or from-space reclaim
		if m.rng.Intn(2) == 0 {
			label += "/ggc"
			nd.CollectGroup(nil)
		} else {
			b := m.bunches[m.rng.Intn(len(m.bunches))]
			label += fmt.Sprintf("/reclaim%v", b)
			nd.ReclaimFromSpace(b)
		}
		m.cl.Run(0)
		m.checkSafety()
	}
	return label
}

// live reports whether the model believes the object is reachable.
func (m *model) live(mo *modelObj) bool {
	return m.reachable()[mo.ref.OID]
}

// checkDangling scans every node's canonical copy of every reachable object
// for pointer fields that resolve to freed memory. debugCtx labels the step.
func (m *model) checkDangling(ctx string) {
	m.t.Helper()
	for oid := range m.reachable() {
		for i := 0; i < m.cl.Nodes(); i++ {
			nd := m.cl.Node(i)
			heap := nd.Collector().Heap()
			// Only consistent copies must be intact: an invalid replica may
			// legitimately hold stale bytes (the collector merely scans it,
			// and invariant 1 repairs it at the next acquire).
			if nd.Mode(Ref{OID: oid}) < 1 && !nd.DSM().IsOwner(oid) {
				continue
			}
			a, ok := heap.Canonical(oid)
			if !ok {
				continue
			}
			a = heap.Resolve(a)
			if !heap.Mapped(a) || !heap.IsObjectAt(a) {
				continue
			}
			if mo := m.objs[oid]; mo.value != 0 && heap.ObjSize(a) == len(mo.fields)+1 {
				if got := heap.GetField(a, len(mo.fields)); got != mo.value {
					m.t.Fatalf("%s: SCALAR %v at node %d = %d, model says %d (mode %v owner %v)",
						ctx, addr.OID(oid), i, got, mo.value,
						nd.Mode(Ref{OID: oid}), nd.DSM().IsOwner(oid))
				}
			}
			heap.ForEachRef(a, func(f int, v addr.Addr) {
				if v.IsNil() {
					return
				}
				// Resolution semantics match the mutator's ReadRef:
				// forwarding pointers, then the local headers.
				r, roid := nd.Collector().ResolveRef(v)
				if roid.IsNil() {
					mo := m.objs[oid]
					want := addr.NilOID
					if f < len(mo.fields) {
						want = mo.fields[f]
					}
					seg := m.cl.Directory().Allocator().Lookup(r)
					segInfo := "outside every segment"
					if seg != nil {
						segInfo = fmt.Sprintf("seg %v bunch %v", seg.ID, seg.Bunch)
						if seg.Bunch != addr.NoBunch { // a freed segment has none
							segInfo += fmt.Sprintf(" holders %v", m.cl.Directory().Holders(seg.Bunch))
						}
					}
					tcan, tok := heap.Canonical(want)
					m.t.Fatalf("%s: DANGLING %v.%d at node %d: raw %v resolves to %v (mapped=%v, %s); "+
						"model target %v (canonical here %v/%v, mode %v, owner %v); src mode %v owner %v",
						ctx, addr.OID(oid), f, i, v, r, heap.Mapped(r), segInfo,
						want, tcan, tok, nd.Mode(Ref{OID: want}), nd.DSM().IsOwner(want),
						nd.Mode(Ref{OID: oid}), nd.DSM().IsOwner(oid))
				}
			})
		}
	}
}

// checkSafety asserts that every model-reachable object still exists
// somewhere and that its contents are intact at a node that acquires it.
func (m *model) checkSafety() {
	m.t.Helper()
	reach := m.reachable()
	for oid := range reach {
		mo := m.objs[oid]
		anywhere := false
		for i := 0; i < m.cl.Nodes(); i++ {
			if _, ok := m.cl.Node(i).Collector().Heap().Canonical(oid); ok {
				anywhere = true
				break
			}
		}
		if !anywhere {
			m.t.Fatalf("SAFETY: reachable object %v reclaimed on every node", mo.ref)
		}
	}
}

// verifyContents acquires every reachable object at a probing node and
// checks fields and the shadow scalar against the model.
func (m *model) verifyContents() {
	m.t.Helper()
	reach := m.reachable()
	prober := m.cl.Node(0)
	for oid := range reach {
		mo := m.objs[oid]
		if err := prober.AcquireRead(mo.ref); err != nil {
			m.dumpObj(oid)
			m.t.Fatalf("verify: acquire %v: %v", mo.ref, err)
		}
		for f, want := range mo.fields {
			got, err := prober.ReadRef(mo.ref, f)
			if err != nil {
				m.debugField(mo, f, want)
				m.t.Fatalf("verify: read %v.%d: %v", mo.ref, f, err)
			}
			if got.OID != want {
				m.t.Fatalf("verify: %v.%d = %v, model says %v", mo.ref, f, got.OID, want)
			}
		}
		if mo.value != 0 {
			v, err := prober.ReadWord(mo.ref, len(mo.fields))
			if err != nil || v != mo.value {
				for i := 0; i < m.cl.Nodes(); i++ {
					nd := m.cl.Node(i)
					h := nd.Collector().Heap()
					can, ok := h.Canonical(mo.ref.OID)
					res := can
					word := uint64(0)
					if ok && h.Mapped(res) {
						res = h.Resolve(can)
						if h.Mapped(res) && h.IsObjectAt(res) && h.ObjSize(res) > len(mo.fields) {
							word = h.GetField(res, len(mo.fields))
						}
					}
					m.t.Logf("SCALARDBG node %d: canonical=%v(%v) resolve=%v word=%d mode=%v owner=%v routing=%v ownerPtr=%v entering=%v",
						i, can, ok, res, word, nd.Mode(mo.ref), nd.DSM().IsOwner(mo.ref.OID),
						nd.DSM().IsRoutingOnly(mo.ref.OID), nd.DSM().OwnerPtrOf(mo.ref.OID),
						nd.DSM().EnteringOf(mo.ref.OID))
				}
				m.t.Fatalf("verify: %v scalar = %d (%v), model says %d", mo.ref, v, err, mo.value)
			}
		}
	}
}

// drain collects everything everywhere until quiescent: bunch collections
// plus the locality-based group collection at every node (needed for
// inter-bunch cycles).
func (m *model) drain(rounds int) {
	for r := 0; r < rounds; r++ {
		for i := 0; i < m.cl.Nodes(); i++ {
			nd := m.cl.Node(i)
			for _, b := range nd.Collector().MappedBunches() {
				nd.CollectBunch(b)
			}
			nd.CollectGroup(nil)
			m.cl.Run(0)
		}
	}
}

// dumpObj prints one object's full protocol state everywhere.
func (m *model) dumpObj(oid addr.OID) {
	for j := 0; j < m.cl.Nodes(); j++ {
		nd := m.cl.Node(j)
		can, cok := nd.Collector().Heap().Canonical(oid)
		m.t.Logf("OBJDBG node %d: canonical=%v/%v mode=%v owner=%v routing=%v ownerPtr=%v entering=%v rooted=%v",
			j, can, cok, nd.Mode(Ref{OID: oid}), nd.DSM().IsOwner(oid),
			nd.DSM().IsRoutingOnly(oid), nd.DSM().OwnerPtrOf(oid),
			nd.DSM().EnteringOf(oid), nd.Collector().IsRoot(oid))
	}
}

// syncReplicas re-acquires every model-reachable object at every node that
// still caches a replica of it, refreshing stale copies.
func (m *model) syncReplicas() {
	reach := m.reachable()
	for _, oid := range m.order {
		if !reach[oid] {
			continue
		}
		for i := 0; i < m.cl.Nodes(); i++ {
			nd := m.cl.Node(i)
			if _, ok := nd.Collector().Heap().Canonical(oid); !ok {
				continue
			}
			if err := nd.AcquireRead(m.objs[oid].ref); err != nil {
				m.dumpObj(oid)
				m.t.Fatalf("sync: acquire %v at node %d: %v", oid, i, err)
			}
		}
		m.cl.Run(0)
	}
}

// checkLiveness asserts that after draining, model-unreachable objects are
// gone from every node — except objects kept over by dead *cycles* whose
// SSPs live on different sites, which the paper itself does not collect
// without moving bunches (§7: "some dead cycles may not ever be removed").
func (m *model) checkLiveness() {
	m.t.Helper()
	reach := m.reachable()
	exempt := m.deadCycleClosure(reach)
	for _, oid := range m.order {
		if reach[oid] || exempt[oid] {
			continue
		}
		for i := 0; i < m.cl.Nodes(); i++ {
			if _, ok := m.cl.Node(i).Collector().Heap().Canonical(oid); ok {
				nd := m.cl.Node(i)
				for _, b := range nd.Collector().MappedBunches() {
					for _, lo := range nd.Collector().LiveOIDs(b) {
						if lo == oid {
							m.t.Logf("LIVEDBG node %d considers %v live in %v", i, oid, b)
						}
					}
				}
				{
					col := nd.Collector()
					can, _ := col.Heap().Canonical(oid)
					meta := m.cl.Directory().Allocator().Lookup(can)
					segB := addr.NoBunch
					inBunchList := false
					if meta != nil {
						segB = meta.Bunch
						for _, sm := range m.cl.Directory().Segments(segB) {
							if sm.ID == meta.ID {
								inBunchList = true
							}
						}
					}
					info, _ := m.cl.Directory().Object(oid)
					m.t.Logf("SKIPDBG node %d: %v dirBunch=%v canonical=%v seg=%v segBunch=%v inBunchSegs=%v mapped=%v",
						i, oid, info.Bunch, can, meta.ID, segB, inBunchList,
						col.Heap().Mapped(can))
				}
				for j := 0; j < m.cl.Nodes(); j++ {
					nd := m.cl.Node(j)
					col := nd.Collector()
					var scions []string
					for _, b := range col.MappedBunches() {
						tab := col.Replica(b).Table
						for _, sc := range tab.InterScionList() {
							if sc.TargetOID == oid {
								scions = append(scions, fmt.Sprintf("inter<-%v@%v", sc.SrcOID, sc.SrcNode))
							}
						}
						for _, sc := range tab.IntraScionList() {
							if sc.OID == oid {
								scions = append(scions, fmt.Sprintf("intra<-new%v", sc.NewOwner))
							}
						}
						for _, st := range tab.InterStubList() {
							if st.TargetOID == oid || st.SrcOID == oid {
								scions = append(scions, fmt.Sprintf("stub %v->%v@%v", st.SrcOID, st.TargetOID, st.ScionNode))
							}
						}
					}
					can, cok := col.Heap().Canonical(oid)
					m.t.Logf("LEAKDBG node %d: canonical=%v/%v mode=%v owner=%v routing=%v ownerPtr=%v entering=%v rooted=%v ssp=%v",
						j, can, cok, nd.Mode(Ref{OID: oid}), nd.DSM().IsOwner(oid),
						nd.DSM().IsRoutingOnly(oid), nd.DSM().OwnerPtrOf(oid),
						nd.DSM().EnteringOf(oid), col.IsRoot(oid), scions)
				}
				// Who references it locally?
				col := m.cl.Node(i).Collector()
				heap := col.Heap()
				heap.ForEachCanonical(func(src addr.OID, sa addr.Addr) {
					sa = heap.Resolve(sa)
					if !heap.Mapped(sa) || !heap.IsObjectAt(sa) {
						return
					}
					heap.ForEachRef(sa, func(f int, v addr.Addr) {
						if v.IsNil() {
							return
						}
						if _, tgt := col.ResolveRef(v); tgt == oid {
							m.t.Logf("PREDDBG node %d: %v.%d -> %v (src reach=%v exempt=%v)",
								i, src, f, oid, reach[src], exempt[src])
						}
					})
				})
				m.t.Fatalf("LIVENESS: unreachable acyclic %v still present at node %d", oid, i)
			}
		}
	}
}

// deadCycleClosure returns the dead objects on a dead cycle plus everything
// a dead cycle reaches.
func (m *model) deadCycleClosure(reach map[addr.OID]bool) map[addr.OID]bool {
	// An object is on a dead cycle if it can reach itself through dead
	// objects. Graphs here are tiny; quadratic search is fine.
	onCycle := make(map[addr.OID]bool)
	for oid := range m.objs {
		if reach[oid] {
			continue
		}
		// DFS from oid through dead objects looking for oid again.
		seen := map[addr.OID]bool{}
		stack := []addr.OID{}
		for _, f := range m.objs[oid].fields {
			if !f.IsNil() && !reach[f] {
				stack = append(stack, f)
			}
		}
		for len(stack) > 0 {
			o := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if o == oid {
				onCycle[oid] = true
				break
			}
			if seen[o] || reach[o] {
				continue
			}
			seen[o] = true
			if mo, ok := m.objs[o]; ok {
				for _, f := range mo.fields {
					if !f.IsNil() {
						stack = append(stack, f)
					}
				}
			}
		}
	}
	// Closure: everything reachable from a cycle member — through the
	// MODEL fields and through the stale contents of the cycle's
	// replicas. A dead cycle that per-site group collections cannot prove
	// dead (§7) keeps its replicas, and scanning those stale copies is
	// deliberately conservative (§4.2): whatever their old fields still
	// reference stays pinned with them.
	out := make(map[addr.OID]bool)
	var stack []addr.OID
	for o := range onCycle {
		stack = append(stack, o)
	}
	for len(stack) > 0 {
		o := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if out[o] {
			continue
		}
		out[o] = true
		if mo, ok := m.objs[o]; ok {
			for _, f := range mo.fields {
				if !f.IsNil() && !reach[f] {
					stack = append(stack, f)
				}
			}
		}
		// Stale replica contents at every node.
		for i := 0; i < m.cl.Nodes(); i++ {
			col := m.cl.Node(i).Collector()
			heap := col.Heap()
			a, ok := heap.Canonical(addr.OID(o))
			if !ok {
				continue
			}
			a = heap.Resolve(a)
			if !heap.Mapped(a) || !heap.IsObjectAt(a) {
				continue
			}
			heap.ForEachRef(a, func(_ int, v addr.Addr) {
				if v.IsNil() {
					return
				}
				if _, t := col.ResolveRef(v); !t.IsNil() && !reach[t] {
					stack = append(stack, t)
				}
			})
		}
	}
	return out
}

func runModel(t *testing.T, seed int64, nodes, steps int, loss float64) {
	runModelCfg(t, modelCfg{seed: seed, nodes: nodes, steps: steps, loss: loss})
}

func runModelCfg(t testing.TB, cfg modelCfg) {
	t.Helper()
	m := newModel(t, cfg)
	steps := cfg.steps
	for s := 0; s < steps; s++ {
		label := m.step()
		if debugDangling {
			m.checkDangling(fmt.Sprintf("step %d (%s)", s, label))
		}
	}
	m.checkSafety()
	if debugDangling {
		m.checkDangling("pre-verify")
	}
	m.verifyContents()
	// Liveness needs a loss-free quiescent phase (loss only delays, but
	// the bounded drain below must converge deterministically).
	setLoss(m.cl, 0)
	for d := 0; d < 4; d++ {
		m.drain(1)
		if debugDangling {
			m.checkDangling(fmt.Sprintf("drain %d", d))
		}
	}
	// Stale live replicas conservatively retain stubs for references their
	// copy still shows (§4.3) — reclamation completes once replicas
	// synchronize, which weakly consistent applications eventually do.
	m.syncReplicas()
	// Drain to fixpoint: a retraction delivered at the end of one round
	// enables a reclamation in the next; stop when a full round changes
	// nothing and no messages are pending.
	for d := 0; d < 12; d++ {
		before := m.cl.Stats().Get("core.gc.dead") +
			m.cl.Stats().Get("core.cleaner.enteringRemoved") +
			m.cl.Stats().Get("core.cleaner.interScionsDeleted") +
			m.cl.Stats().Get("core.cleaner.intraScionsDeleted")
		m.drain(1)
		if debugDangling {
			m.checkDangling(fmt.Sprintf("post-sync drain %d", d))
		}
		after := m.cl.Stats().Get("core.gc.dead") +
			m.cl.Stats().Get("core.cleaner.enteringRemoved") +
			m.cl.Stats().Get("core.cleaner.interScionsDeleted") +
			m.cl.Stats().Get("core.cleaner.intraScionsDeleted")
		if before == after && m.cl.Pending() == 0 {
			break
		}
	}
	m.checkSafety()
	m.checkLiveness()
	m.verifyContents()

	// The meta-claim: whatever happened above, the collector never touched
	// a token.
	if got := m.cl.Stats().Get("dsm.acquire.r.gc") +
		m.cl.Stats().Get("dsm.acquire.w.gc"); got != 0 {
		t.Fatalf("collector acquired %d tokens during randomized run", got)
	}
	if got := m.cl.Stats().Get("dsm.invalidation.gc"); got != 0 {
		t.Fatalf("collector caused %d invalidations during randomized run", got)
	}
}

func TestRandomizedSafetyLiveness(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runModel(t, seed, 3, 300, 0)
		})
	}
}

func TestRandomizedSafetyLivenessUnderLoss(t *testing.T) {
	for seed := int64(10); seed <= 13; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runModel(t, seed, 3, 200, 0.3)
		})
	}
}

func TestRandomizedTwoNodesHeavyGC(t *testing.T) {
	runModel(t, 99, 2, 500, 0)
}

func TestRandomizedFourNodes(t *testing.T) {
	runModel(t, 7, 4, 250, 0.1)
}

// debugField prints full diagnostic state for a failing field read.
func (m *model) debugField(mo *modelObj, f int, want addr.OID) {
	prober := m.cl.Node(0)
	heap := prober.Collector().Heap()
	a, _ := heap.Canonical(mo.ref.OID)
	a = heap.Resolve(a)
	raw := addr.Addr(heap.GetField(a, f))
	m.t.Logf("DEBUG src %v at %v field %d raw=%v resolve=%v mapped=%v",
		mo.ref, a, f, raw, heap.Resolve(raw), heap.Mapped(heap.Resolve(raw)))
	m.t.Logf("DEBUG model target=%v reachable=%v", want, m.reachable()[want])
	for i := 0; i < m.cl.Nodes(); i++ {
		nd := m.cl.Node(i)
		can, ok := nd.Collector().Heap().Canonical(want)
		m.t.Logf("DEBUG node %d: target canonical=%v(%v) mode=%v owner=%v routing=%v ownerPtr=%v entering=%v",
			i, can, ok, nd.Mode(Ref{OID: want}), nd.DSM().IsOwner(want),
			nd.DSM().IsRoutingOnly(want), nd.DSM().OwnerPtrOf(want), nd.DSM().EnteringOf(want))
		scan, sok := nd.Collector().Heap().Canonical(mo.ref.OID)
		m.t.Logf("DEBUG node %d: src canonical=%v(%v) mode=%v owner=%v",
			i, scan, sok, nd.Mode(mo.ref), nd.DSM().IsOwner(mo.ref.OID))
	}
}
