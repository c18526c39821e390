package cluster

import (
	"fmt"
	"path/filepath"
	"testing"

	"bmx/internal/addr"
	"bmx/internal/store"
)

// TestCrashChaosMemPerTx also counts the syncs that force appended log
// records. bmxd -chaos-crash prints rvm.log.commits as the run's log
// forces, so every commit must be exactly one of them; the driver's own
// Sync ops are fewer, since flips and checkpoints commit too.
func TestCrashChaosMemPerTx(t *testing.T) {
	var logs []*logForces
	rep := RunCrashChaos(CrashChaosConfig{Seed: 1, Store: func() store.Store {
		l := &logForces{Store: store.NewDisk()}
		logs = append(logs, l)
		return l
	}})
	requireCrashRun(t, rep)
	var forces int64
	for _, l := range logs {
		forces += l.forces
	}
	if commits := rep.Stats["rvm.log.commits"]; commits != forces || forces <= int64(rep.Syncs) {
		t.Errorf("rvm.log.commits %d, log forces %d, driver syncs %d: want commits = forces > syncs",
			commits, forces, rep.Syncs)
	}
}

// logForces wraps a node's store and counts its log forces: syncs of the
// RVM log with records appended since the previous sync.
type logForces struct {
	store.Store
	appended bool
	forces   int64
}

func (l *logForces) Append(name string, data []byte) {
	l.appended = l.appended || name == "rvm-log"
	l.Store.Append(name, data)
}

func (l *logForces) Sync(name string) {
	if name == "rvm-log" && l.appended {
		l.appended = false
		l.forces++
	}
	l.Store.Sync(name)
}

func (l *logForces) Crash() {
	l.appended = false
	l.Store.Crash()
}

func TestCrashChaosMemSeed2(t *testing.T) {
	rep := RunCrashChaos(CrashChaosConfig{Seed: 2})
	requireCrashRun(t, rep)
}

// TestCrashChaosFlatFS runs seed 3 on real-directory flatfs, one
// subdirectory per node, and checks it against the other backends: flatfs
// and mem have one file shape, so the runs match counter for counter and
// tick for tick; lsm differs only in the bytes its watermark syncs.
func TestCrashChaosFlatFS(t *testing.T) {
	run := func(mk func() store.Store) CrashChaosReport {
		return RunCrashChaos(CrashChaosConfig{Seed: 3, Store: mk})
	}
	dir, node := t.TempDir(), 0
	flat := run(func() store.Store {
		node++
		return store.NewFlatFS(filepath.Join(dir, fmt.Sprintf("node%d", node)))
	})
	requireCrashRun(t, flat)
	mem := run(nil)
	lsm := run(func() store.Store { return store.NewLSM() })
	requireSameRun(t, "mem vs flatfs", mem, flat)
	delete(mem.Stats, "store.bytes.synced")
	delete(lsm.Stats, "store.bytes.synced")
	requireSameRun(t, "mem vs lsm", mem, lsm)
}

// requireSameRun fails unless two crash-chaos runs ended with equal
// counters and clocks.
func requireSameRun(t *testing.T, what string, a, b CrashChaosReport) {
	t.Helper()
	for k, v := range a.Stats {
		if b.Stats[k] != v {
			t.Errorf("%s: counter %s: %d vs %d", what, k, v, b.Stats[k])
		}
	}
	for k, v := range b.Stats {
		if _, ok := a.Stats[k]; !ok {
			t.Errorf("%s: counter %s only in the second run (%d)", what, k, v)
		}
	}
	if a.ClockTicks != b.ClockTicks {
		t.Errorf("%s: clock ticks: %d vs %d", what, a.ClockTicks, b.ClockTicks)
	}
}

func TestCrashChaosLSM(t *testing.T) {
	rep := RunCrashChaos(CrashChaosConfig{
		Seed:  4,
		Store: func() store.Store { return store.NewLSM() },
	})
	requireCrashRun(t, rep)
}

func TestCrashChaosManySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for seed := int64(10); seed < 16; seed++ {
		rep := RunCrashChaos(CrashChaosConfig{Seed: seed, Steps: 300, CrashEvery: 30})
		if len(rep.Violations) > 0 {
			t.Errorf("seed %d: %d violations, first: %s",
				seed, len(rep.Violations), rep.Violations[0])
		}
	}
}

// requireCrashRun asserts the run exercised both crash sides and passed the
// persistence audit.
func requireCrashRun(t *testing.T, rep CrashChaosReport) {
	t.Helper()
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.Crashes == 0 {
		t.Fatalf("schedule executed no crashes: %+v", rep)
	}
	if rep.BeforeSync == 0 || rep.AfterSync == 0 {
		t.Errorf("schedule must hit both sides of the flip sync: before=%d after=%d",
			rep.BeforeSync, rep.AfterSync)
	}
	if rep.Collections == 0 || rep.Checkpoints == 0 {
		t.Errorf("schedule too quiet: collections=%d checkpoints=%d",
			rep.Collections, rep.Checkpoints)
	}
	t.Logf("steps=%d crashes=%d (before=%d after=%d) collections=%d checkpoints=%d lostAllocs=%d",
		rep.Steps, rep.Crashes, rep.BeforeSync, rep.AfterSync,
		rep.Collections, rep.Checkpoints, rep.LostAllocs)
}

// TestCrashChaosDeterministic: with the deterministic mem backend and zero
// real-world inputs, the same seed must produce the identical run — counter
// for counter, tick for tick. This is the fingerprint the seed relies on;
// the store layering must not perturb it. Seed 1 per-tx at 400 steps
// unlinks from objects with several links, where a driver choice taken in
// map order would show.
func TestCrashChaosDeterministic(t *testing.T) {
	run := func() CrashChaosReport {
		return RunCrashChaos(CrashChaosConfig{Seed: 1, Steps: 400})
	}
	first := run()
	if len(first.Violations) > 0 {
		t.Fatalf("violations: %v", first.Violations)
	}
	for i := 1; i < 5; i++ {
		requireSameRun(t, fmt.Sprintf("run %d vs run 0", i), first, run())
	}
}

// TestFlipForcesOncePerCollection: a driver that never calls Sync between
// collections gets one log force per collection from per-transaction
// commit alone. Each flip commits the open mutation transaction with the
// flip's own records, so over the collections store.syncs moves exactly
// as core.gc.runs does; and a crash before a flip's force loses exactly
// the window since the previous flip: the writes and the allocation made
// in it, and nothing older.
func TestFlipForcesOncePerCollection(t *testing.T) {
	cl := New(Config{Nodes: 1, SegWords: 64, WithDisk: true})
	nd := cl.Node(0)
	b := nd.NewBunch()
	refs := make([]Ref, 4)
	for i := range refs {
		refs[i] = nd.MustAlloc(b, 2)
		nd.AddRoot(refs[i])
	}
	write := func(base uint64) {
		t.Helper()
		for i, r := range refs {
			if err := nd.AcquireWrite(r); err != nil {
				t.Fatal(err)
			}
			if err := nd.WriteWord(r, 0, base+uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	nd.Sync()
	stats := cl.Stats()
	syncs0, runs0 := stats.Get("store.syncs"), stats.Get("core.gc.runs")
	const rounds = 5
	for k := 1; k <= rounds; k++ {
		write(100 * uint64(k))
		nd.CollectBunch(b)
	}
	syncs, runs := stats.Get("store.syncs")-syncs0, stats.Get("core.gc.runs")-runs0
	if runs != rounds || syncs != runs {
		t.Fatalf("%d collections with no Sync between them cost %d store syncs, want one each", runs, syncs)
	}

	write(900)
	lost := nd.MustAlloc(b, 2)
	nd.AddRoot(lost)
	nd.ArmFlipCrash(CrashBeforeFlipSync)
	nd.CollectBunch(b)
	if !nd.FlipCrashFired() {
		t.Fatal("armed crash did not fire")
	}
	if err := nd.KillRestart(b); err != nil {
		t.Fatal(err)
	}
	cl.Run(0)
	for i, r := range refs {
		if err := nd.AcquireRead(r); err != nil {
			t.Fatalf("object %d lost: %v", i, err)
		}
		if got, err := nd.ReadWord(r, 0); err != nil || got != 100*rounds+uint64(i) {
			t.Fatalf("object %d recovered %d (%v), want the last flip's %d", i, got, err, 100*rounds+i)
		}
	}
	if _, present := nd.DSM().Canonical(lost.OID); present {
		t.Fatalf("object allocated after the last flip survived a crash before the next force")
	}
}

// TestKillRestartCopiedObject pins the GC-copy durability path in
// isolation: allocate, sync, collect (the object is copied to to-space and
// its full contents reach the log via the flip barrier), then crash after
// the barrier and recover. The object must come back at its post-copy
// canonical address with its data intact.
func TestKillRestartCopiedObject(t *testing.T) {
	cl := New(Config{Nodes: 1, SegWords: 64, WithDisk: true})
	nd := cl.Node(0)
	b := nd.NewBunch()
	r, err := nd.Alloc(b, 3)
	if err != nil {
		t.Fatal(err)
	}
	nd.AddRoot(r)
	if err := nd.AcquireWrite(r); err != nil {
		t.Fatal(err)
	}
	if err := nd.WriteWord(r, 0, 4242); err != nil {
		t.Fatal(err)
	}
	nd.CollectBunch(b) // barrier logs the copy and forces the batch
	if err := nd.KillRestart(b); err != nil {
		t.Fatal(err)
	}
	cl.Run(0)
	if err := nd.AcquireRead(r); err != nil {
		t.Fatalf("recovered object not acquirable: %v", err)
	}
	got, err := nd.ReadWord(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 4242 {
		t.Fatalf("recovered field 0 = %d, want 4242", got)
	}
}

// TestKillRestartCopiedRefMap pins that a copied object's reference-map
// bits reach the log with its words: after collect, crash after the
// barrier and recover, a reference field still reads as a reference and a
// word field as a word. The wide object spans more than 64 words, so its
// logged mask spans two mask words.
func TestKillRestartCopiedRefMap(t *testing.T) {
	cl := New(Config{Nodes: 1, SegWords: 256, WithDisk: true})
	nd := cl.Node(0)
	b := nd.NewBunch()
	obj, target, wide := nd.MustAlloc(b, 2), nd.MustAlloc(b, 1), nd.MustAlloc(b, 70)
	nd.AddRoot(obj)
	nd.AddRoot(wide)
	for _, r := range []Ref{obj, wide} {
		if err := nd.AcquireWrite(r); err != nil {
			t.Fatal(err)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(nd.WriteRef(obj, 0, target))
	must(nd.WriteWord(obj, 1, 4242))
	must(nd.WriteWord(wide, 0, 99))
	must(nd.WriteRef(wide, 60, target)) // word 63: the first mask word's last bit
	must(nd.WriteRef(wide, 65, obj))    // word 68: in the second mask word
	if st := nd.CollectBunch(b); st.Copied != 3 {
		t.Fatalf("collection copied %d objects, want 3", st.Copied)
	}
	must(nd.KillRestart(b))
	cl.Run(0)
	for _, r := range []Ref{obj, wide} {
		if err := nd.AcquireRead(r); err != nil {
			t.Fatalf("recovered object %v not acquirable: %v", r, err)
		}
	}
	refs := []struct {
		obj   Ref
		field int
		want  Ref
	}{{obj, 0, target}, {wide, 60, target}, {wide, 65, obj}}
	for _, c := range refs {
		if got, err := nd.ReadRef(c.obj, c.field); err != nil || got != c.want {
			t.Errorf("recovered ReadRef(%v, %d) = %v, %v; want %v", c.obj, c.field, got, err, c.want)
		}
	}
	words := []struct {
		obj   Ref
		field int
		want  uint64
	}{{obj, 1, 4242}, {wide, 0, 99}}
	for _, c := range words {
		if got, err := nd.ReadWord(c.obj, c.field); err != nil || got != c.want {
			t.Errorf("recovered ReadWord(%v, %d) = %d, %v; want %d", c.obj, c.field, got, err, c.want)
		}
		if _, err := nd.ReadRef(c.obj, c.field); err == nil {
			t.Errorf("recovered word field %d of %v reads as a reference", c.field, c.obj)
		}
	}
	if bad := cl.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("invariants after recovery: %v", bad)
	}
}

// TestKillRestartDeadStaysDead pins the death-record path: an object whose
// reclamation reached the log must not be resurrected by recovery, even
// though checkpoint images and older header records still describe it.
func TestKillRestartDeadStaysDead(t *testing.T) {
	cl := New(Config{Nodes: 1, SegWords: 64, WithDisk: true})
	nd := cl.Node(0)
	b := nd.NewBunch()
	r, err := nd.Alloc(b, 2)
	if err != nil {
		t.Fatal(err)
	}
	nd.AddRoot(r)
	nd.Sync()
	if err := nd.Checkpoint(b); err != nil {
		t.Fatal(err)
	}
	nd.RemoveRoot(r)
	nd.CollectBunch(b) // reclaims r; death record committed by the barrier
	if err := nd.KillRestart(b); err != nil {
		t.Fatal(err)
	}
	cl.Run(0)
	if _, present := nd.DSM().Canonical(r.OID); present {
		t.Fatalf("reclaimed object %v resurrected by recovery", r)
	}
}

// TestCrashBeforeSyncLosesUnsynced: a crash on the near side of the flip
// sync must roll the node back to its last durability point — the flip
// itself leaves no durable trace.
func TestCrashBeforeSyncLosesUnsynced(t *testing.T) {
	cl := New(Config{Nodes: 1, SegWords: 64, WithDisk: true})
	nd := cl.Node(0)
	b := nd.NewBunch()
	r, err := nd.Alloc(b, 2)
	if err != nil {
		t.Fatal(err)
	}
	nd.AddRoot(r)
	if err := nd.AcquireWrite(r); err != nil {
		t.Fatal(err)
	}
	if err := nd.WriteWord(r, 0, 1); err != nil {
		t.Fatal(err)
	}
	nd.CollectBunch(b) // durability point: value 1 is forced
	if err := nd.AcquireWrite(r); err != nil {
		t.Fatal(err)
	}
	if err := nd.WriteWord(r, 0, 2); err != nil {
		t.Fatal(err)
	}
	nd.ArmFlipCrash(CrashBeforeFlipSync)
	nd.CollectBunch(b) // barrier skipped: value 2 never committed
	if !nd.FlipCrashFired() {
		t.Fatal("armed crash did not fire")
	}
	if err := nd.KillRestart(b); err != nil {
		t.Fatal(err)
	}
	cl.Run(0)
	if err := nd.AcquireRead(r); err != nil {
		t.Fatalf("object lost entirely: %v", err)
	}
	got, err := nd.ReadWord(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("recovered field 0 = %d, want pre-crash durable value 1", got)
	}
}

// TestSelfReclaimWaitsForDurableFlip pins where a collection reuses its
// from-space (§4.5): at its start, so the segments it frees were emptied by
// a flip whose durability barrier has already run. A crash before this
// collection's own log force must still recover every durable object at
// home with its durable value, although the from-space behind that value's
// older copies is gone.
func TestSelfReclaimWaitsForDurableFlip(t *testing.T) {
	cl := New(Config{Nodes: 2, SegWords: 64, WithDisk: true})
	home, peer := cl.Node(0), cl.Node(1)
	b := home.NewBunch()
	// Four seven-word objects fill 28 of a to-space segment's 64 words,
	// under the 4/5 that would keep it in place: every collection here
	// evacuates its predecessor's to-space.
	refs := make([]Ref, 4)
	for i := range refs {
		refs[i] = home.MustAlloc(b, 4)
		home.AddRoot(refs[i])
	}
	if err := peer.MapBunch(b); err != nil {
		t.Fatal(err)
	}
	write := func(base uint64) {
		for i, r := range refs {
			if err := home.AcquireWrite(r); err != nil {
				t.Fatal(err)
			}
			if err := home.WriteWord(r, 0, base+uint64(i)); err != nil {
				t.Fatal(err)
			}
			home.Release(r)
		}
	}
	// Two collections put the allocation segment and the first to-space
	// on the from-space list: two segments, the reuse trigger for a live
	// set that fits in one. The second flip's barrier makes the 200s
	// durable in the second to-space.
	write(100)
	home.CollectBunch(b)
	cl.Run(0)
	for _, r := range refs {
		if err := peer.AcquireRead(r); err != nil {
			t.Fatal(err)
		}
		peer.Release(r)
	}
	write(200)
	home.CollectBunch(b)
	cl.Run(0)
	write(300) // never durable: the next barrier is skipped

	home.ArmFlipCrash(CrashBeforeFlipSync)
	before := cl.Stats().Get("core.reclaim.segments")
	home.CollectBunch(b)
	if cl.Stats().Get("core.reclaim.segments") == before {
		t.Fatal("the armed collection did not start by reclaiming from-space")
	}
	if !home.FlipCrashFired() {
		t.Fatal("armed crash did not fire")
	}
	if err := home.KillRestart(b); err != nil {
		t.Fatal(err)
	}
	cl.Run(0)
	for i, r := range refs {
		if err := home.AcquireRead(r); err != nil {
			t.Fatalf("object %d lost at home: %v", i, err)
		}
		got, err := home.ReadWord(r, 0)
		home.Release(r)
		if err != nil || got != 200+uint64(i) {
			t.Fatalf("object %d recovered %d (%v), want durable value %d", i, got, err, 200+i)
		}
	}
}

// onEachBackend runs f on a fresh persistent cluster of the given size
// over the in-memory store and over flatfs (one directory per node).
func onEachBackend(t *testing.T, nodes int, f func(t *testing.T, cl *Cluster)) {
	for _, backend := range []string{"mem", "flatfs"} {
		t.Run(backend, func(t *testing.T) {
			cfg := Config{Nodes: nodes, SegWords: 64, WithDisk: true}
			if backend == "flatfs" {
				dir, node := t.TempDir(), 0
				cfg.Store = func() store.Store {
					node++
					return store.NewFlatFS(filepath.Join(dir, fmt.Sprintf("node%d", node)))
				}
			}
			f(t, New(cfg))
		})
	}
}

// mustOK fails the test on a non-nil error.
func mustOK(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// allocFilled allocates n rooted five-data-word objects at nd — eight of
// them, three header words each, fill a 64-word segment — with word 0 of
// object i set to base+i.
func allocFilled(t *testing.T, nd *Node, b addr.BunchID, n int, base uint64) []Ref {
	t.Helper()
	objs := make([]Ref, n)
	for i := range objs {
		objs[i] = nd.MustAlloc(b, 5)
		nd.AddRoot(objs[i])
		mustOK(t, nd.WriteWord(objs[i], 0, base+uint64(i)))
	}
	return objs
}

// readWord0 reads word 0 of r at nd under a read token.
func readWord0(t *testing.T, nd *Node, r Ref) uint64 {
	t.Helper()
	mustOK(t, nd.AcquireRead(r))
	defer nd.Release(r)
	v, err := nd.ReadWord(r, 0)
	mustOK(t, err)
	return v
}

// TestKillRestartKeepsKeptSegment kills a node between a flip that kept a
// segment in place and its next collection: the kept objects recover at
// their addresses with their last synced values, on mem and on flatfs. A
// kept object is never logged whole again, so what its flip rewrote in it
// — here a reference to a fresh object the flip moved — is logged by that
// flip: after §4.5 frees the fresh object's first segment, a second
// restart still finds the reference.
func TestKillRestartKeepsKeptSegment(t *testing.T) {
	onEachBackend(t, 1, func(t *testing.T, cl *Cluster) {
		nd := cl.Node(0)
		b := nd.NewBunch()
		objs := allocFilled(t, nd, b, 8, 100)
		nd.CollectBunch(b) // the first collection copies all eight
		leaf := nd.MustAlloc(b, 1)
		mustOK(t, nd.WriteWord(leaf, 0, 77))
		mustOK(t, nd.WriteRef(objs[0], 1, leaf))
		for i, r := range objs {
			mustOK(t, nd.WriteWord(r, 0, 200+uint64(i)))
		}
		nd.Sync()
		addrs := make([]addr.Addr, len(objs))
		for i, r := range objs {
			addrs[i] = mustCanonical(t, nd, r)
		}
		// The full segment stays; only the fresh leaf moves, and the
		// flip rewrites the kept object's reference to it.
		if st := nd.CollectBunch(b); st.Copied != 1 {
			t.Fatalf("keeping collection copied %d objects, want only the leaf", st.Copied)
		}
		for i, r := range objs {
			mustOK(t, nd.WriteWord(r, 0, 300+uint64(i))) // never synced
		}
		verify := func(when string) {
			t.Helper()
			for i, r := range objs {
				if a := mustCanonical(t, nd, r); a != addrs[i] {
					t.Fatalf("%s: kept object %d recovered at %v, was at %v", when, i, a, addrs[i])
				}
				if got := readWord0(t, nd, r); got != 200+uint64(i) {
					t.Fatalf("%s: kept object %d = %d, want synced value %d", when, i, got, 200+i)
				}
			}
			mustOK(t, nd.AcquireRead(objs[0]))
			got, err := nd.ReadRef(objs[0], 1)
			nd.Release(objs[0])
			if err != nil || got != leaf {
				t.Fatalf("%s: kept object's reference = %v (%v), want %v", when, got, err, leaf)
			}
			if v := readWord0(t, nd, leaf); v != 77 {
				t.Fatalf("%s: leaf = %d, want 77", when, v)
			}
			if bad := cl.CheckInvariants(); len(bad) != 0 {
				t.Fatalf("%s: invariants: %v", when, bad)
			}
		}
		mustOK(t, nd.KillRestart(b))
		cl.Run(0)
		verify("after the restart")
		if st := nd.ReclaimFromSpace(b); st.Segments == 0 {
			t.Fatal("reclaim freed nothing")
		}
		mustOK(t, nd.KillRestart(b))
		cl.Run(0)
		verify("after §4.5 and a second restart")
	})
}

// TestKillRestartKeepsObjectMovedIntoAllocationSegment moves an owned
// object into the allocation segment between two collections — a §4.5
// evacuation, which logs nothing — and fills that segment so it is wholly
// live at the next collection. That collection must still evacuate the
// segment, logging the object at its new address: had it kept the segment,
// a restart would find the object's only logged header in the segment §4.5
// freed.
func TestKillRestartKeepsObjectMovedIntoAllocationSegment(t *testing.T) {
	onEachBackend(t, 2, func(t *testing.T, cl *Cluster) {
		nd, peer := cl.Node(0), cl.Node(1)
		b := nd.NewBunch()
		mustOK(t, peer.MapBunch(b))
		o := allocFilled(t, nd, b, 1, 1)[0]
		objs := allocFilled(t, nd, b, 4, 100)
		nd.Sync()
		// The peer takes o's write token, so this node's first collection
		// copies only the four objects it owns: to-space is half full.
		mustOK(t, peer.AcquireWrite(o))
		mustOK(t, peer.WriteWord(o, 0, 2))
		peer.Release(o)
		cl.Run(0)
		nd.CollectBunch(b)
		cl.Run(0)
		// Taking o back leaves it owned here in from-space, so §4.5
		// evacuates it into the allocation segment.
		mustOK(t, nd.AcquireWrite(o))
		nd.Release(o)
		if st := nd.ReclaimFromSpace(b); st.Segments == 0 {
			t.Fatal("reclaim freed nothing")
		}
		cl.Run(0)
		alloc := nd.Collector().Heap().Allocator()
		seg, _ := alloc.SegIndex(mustCanonical(t, nd, objs[0]))
		if got, _ := alloc.SegIndex(mustCanonical(t, nd, o)); got != seg {
			t.Fatalf("evacuated object in segment %v, want the allocation segment %v", got, seg)
		}
		objs = append(objs, allocFilled(t, nd, b, 3, 104)...) // 64 of 64 words live
		nd.Sync()
		nd.CollectBunch(b)
		cl.Run(0)
		mustOK(t, nd.KillRestart(b))
		cl.Run(0)
		if v := readWord0(t, nd, o); v != 2 {
			t.Fatalf("moved object = %d after the restart, want 2", v)
		}
		for i, r := range objs {
			if v := readWord0(t, nd, r); v != 100+uint64(i) {
				t.Fatalf("object %d = %d after the restart, want %d", i, v, 100+i)
			}
		}
	})
}

// TestKillRestartKeepsGrantIntoKeptSegment has another node take the write
// token on an object in a settled segment and write it; this node takes
// the token back, which installs the new image in place. The next flip
// keeps the segment, so it must log that image: a restart recovers the
// written value at the same address.
func TestKillRestartKeepsGrantIntoKeptSegment(t *testing.T) {
	onEachBackend(t, 2, func(t *testing.T, cl *Cluster) {
		nd, peer := cl.Node(0), cl.Node(1)
		b := nd.NewBunch()
		mustOK(t, peer.MapBunch(b))
		objs := allocFilled(t, nd, b, 8, 100)
		nd.Sync()
		nd.CollectBunch(b) // copies all eight into one full segment
		cl.Run(0)
		x := objs[3]
		at := mustCanonical(t, nd, x)
		mustOK(t, peer.AcquireWrite(x))
		mustOK(t, peer.WriteWord(x, 0, 999))
		peer.Release(x)
		cl.Run(0)
		mustOK(t, nd.AcquireWrite(x))
		nd.Release(x)
		if st := nd.CollectBunch(b); st.Copied != 0 {
			t.Fatalf("keeping collection copied %d objects, want 0", st.Copied)
		}
		cl.Run(0)
		mustOK(t, nd.KillRestart(b))
		cl.Run(0)
		if a := mustCanonical(t, nd, x); a != at {
			t.Fatalf("kept object recovered at %v, was at %v", a, at)
		}
		for i, r := range objs {
			want := 100 + uint64(i)
			if r == x {
				want = 999
			}
			if v := readWord0(t, nd, r); v != want {
				t.Fatalf("object %d = %d after the restart, want %d", i, v, want)
			}
		}
		if bad := cl.CheckInvariants(); len(bad) != 0 {
			t.Fatalf("invariants: %v", bad)
		}
	})
}

// TestKillRestartKeepsReclaimRewriteInKeptSegment has a kept object refer
// to another node's object. That node moves its object and frees the old
// segment in a §4.5 round, in which this node rewrites the kept object's
// word. The next flip here keeps the segment, so it must log the word: a
// restart recovers the reference, not a word into the freed segment.
func TestKillRestartKeepsReclaimRewriteInKeptSegment(t *testing.T) {
	onEachBackend(t, 2, func(t *testing.T, cl *Cluster) {
		nd, peer := cl.Node(0), cl.Node(1)
		b := nd.NewBunch()
		mustOK(t, peer.MapBunch(b))
		leaf := allocFilled(t, peer, b, 1, 7)[0]
		objs := allocFilled(t, nd, b, 8, 100)
		mustOK(t, nd.AcquireRead(leaf))
		nd.Release(leaf)
		mustOK(t, nd.WriteRef(objs[0], 1, leaf))
		nd.Sync()
		nd.CollectBunch(b) // copies all eight into one full segment
		cl.Run(0)
		peer.CollectBunch(b) // the leaf moves at its owner
		cl.Run(0)
		before := cl.Stats().Get("core.reclaim.refsRewritten")
		if st := peer.ReclaimFromSpace(b); st.Segments == 0 {
			t.Fatal("the peer's reclaim freed nothing")
		}
		cl.Run(0)
		if cl.Stats().Get("core.reclaim.refsRewritten") == before {
			t.Fatal("the §4.5 round rewrote no word")
		}
		if st := nd.CollectBunch(b); st.Copied != 0 {
			t.Fatalf("keeping collection copied %d objects, want 0", st.Copied)
		}
		cl.Run(0)
		mustOK(t, nd.KillRestart(b))
		cl.Run(0)
		// The restart recovers no replica of the peer's leaf, so the word
		// is read raw: it must name the leaf's address at its owner.
		want := mustCanonical(t, peer, leaf)
		if got := addr.Addr(nd.Collector().Heap().GetField(mustCanonical(t, nd, objs[0]), 1)); got != want {
			t.Fatalf("kept object's reference recovered as %v, want the leaf's address %v", got, want)
		}
		for i, r := range objs {
			if v := readWord0(t, nd, r); v != 100+uint64(i) {
				t.Fatalf("object %d = %d after the restart, want %d", i, v, 100+i)
			}
		}
	})
}

// TestKillRestartKeepsPeerOwnedObject restarts a node that holds a
// reference to an object a peer owns in the same bunch: the restarted
// node must still read the object's value. It reads 0 today, and the test
// is skipped until KillRestart stops forgetting the peers' own objects.
func TestKillRestartKeepsPeerOwnedObject(t *testing.T) {
	t.Skip("KillRestart has every peer ForgetBunch the restarted bunch: the peer drops its own leaf's protocol state, and the restarted node re-establishes the leaf empty (reads 0, not 7)")
	onEachBackend(t, 2, func(t *testing.T, cl *Cluster) {
		nd, peer := cl.Node(0), cl.Node(1)
		b := nd.NewBunch()
		mustOK(t, peer.MapBunch(b))
		leaf := allocFilled(t, peer, b, 1, 7)[0]
		root := allocFilled(t, nd, b, 1, 100)[0]
		mustOK(t, nd.AcquireRead(leaf))
		nd.Release(leaf)
		mustOK(t, nd.WriteRef(root, 1, leaf))
		nd.Sync()
		peer.Sync()
		nd.CollectBunch(b)
		cl.Run(0)
		peer.CollectBunch(b)
		cl.Run(0)
		mustOK(t, nd.KillRestart(b))
		cl.Run(0)
		if v := readWord0(t, nd, leaf); v != 7 {
			t.Fatalf("peer-owned leaf = %d at the restarted node, want 7", v)
		}
		if v := readWord0(t, nd, root); v != 100 {
			t.Fatalf("root = %d after the restart, want 100", v)
		}
	})
}
