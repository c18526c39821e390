package bmx_test

// Flight-recorder acceptance tests: the paper's structural claims asserted
// from the ordered event stream, not from counters. A counter says "the
// collector acquired zero tokens in total"; the stream says "no event of
// the forbidden shape occurred anywhere in the retained window" and hands
// back the offending events as evidence when one did — which is also what
// makes the positive controls below possible.

import (
	"bytes"
	"testing"

	"bmx"
	"bmx/internal/baseline"
	"bmx/internal/obs"
	"bmx/internal/trace"
)

// TestEventStreamProvesPaperClaims drives a full mixed mutator+GC run —
// allocation, sharing, cross-node mutation, churn, bunch collections, scion
// cleaning, background drains — with the flight recorder on, then asserts
// the two central claims from the events themselves:
//
//   - §5: the collector initiates no token acquire and no invalidation,
//     ever (probe: no dsm.acquire.start / dsm.invalidate of class gc);
//   - §4.4: GC information travels as piggyback on consistency messages,
//     adding no message to the application's critical path (probe: no
//     GC-class send/call carrying FlagCritical — except the write barrier's
//     scion-message, §3.2's one sanctioned genuine GC message, which must
//     itself be present and filtered by wire kind, proving the probe sees
//     through to real traffic rather than passing vacuously).
func TestEventStreamProvesPaperClaims(t *testing.T) {
	cl := bmx.New(bmx.Config{Nodes: 3, SegWords: 256, Seed: 11, SendLatency: 1, CallLatency: 1})
	cl.Observer().SetRingSize(1 << 16) // keep the whole run, not a window
	cl.EnableTracing()

	n0, n1 := cl.Node(0), cl.Node(1)
	b := n0.NewBunch()
	g, err := trace.BuildList(n0, b, 40)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Share(g.Objects, n1, cl.Node(2)); err != nil {
		t.Fatal(err)
	}

	// An inter-bunch reference from a bunch mapped at N1 into b forces the
	// write barrier to construct an SSP with a remote scion host: the one
	// sanctioned GC-class message on the mutator's critical path.
	b2 := n1.NewBunch()
	src := n1.MustAlloc(b2, 2)
	n1.AddRoot(src)
	if err := n1.AcquireWrite(src); err != nil {
		t.Fatal(err)
	}
	if err := n1.AcquireRead(g.Objects[0]); err != nil {
		t.Fatal(err)
	}
	if err := n1.WriteRef(src, 0, g.Objects[0]); err != nil {
		t.Fatal(err)
	}

	for round := 1; round <= 4; round++ {
		mutator := cl.Node(round % 3)
		if err := trace.MutateValues(mutator, g, 8, int64(100+round)); err != nil {
			t.Fatal(err)
		}
		if _, err := trace.Churn(n0, g, 0.05, int64(round)); err != nil {
			t.Fatal(err)
		}
		if round%2 == 0 {
			for i := 0; i < 3; i++ {
				cl.Node(i).CollectBunch(b)
			}
			n1.CollectBunch(b2)
			n0.ReclaimFromSpace(b)
		}
		cl.Run(0)
	}

	evs := cl.Observer().Events()
	if len(evs) == 0 {
		t.Fatal("flight recorder retained no events")
	}

	// Sanity: the stream must actually contain both sides of the mixed run,
	// or the claims below would hold vacuously.
	var sawGCPhase, sawCriticalApp bool
	for _, e := range evs {
		if e.Kind == obs.KGCStart {
			sawGCPhase = true
		}
		if e.Kind == obs.KCall && e.Class == obs.ClassApp && e.Critical() {
			sawCriticalApp = true
		}
	}
	if !sawGCPhase || !sawCriticalApp {
		t.Fatalf("stream misses one side of the mixed run: gc=%v criticalApp=%v", sawGCPhase, sawCriticalApp)
	}

	// §5: zero collector-initiated token acquires, zero collector-caused
	// invalidations — anywhere in the stream.
	if bad := obs.CollectorAcquires(evs); len(bad) != 0 {
		t.Fatalf("collector initiated %d token acquires; first: %v", len(bad), bad[0])
	}
	if bad := obs.CollectorInvalidations(evs); len(bad) != 0 {
		t.Fatalf("collector caused %d invalidations; first: %v", len(bad), bad[0])
	}

	// §4.4: every GC-class message on the critical path is a scion-message.
	crit := obs.CriticalGCMessages(evs)
	if bad := obs.NonScion(crit); len(bad) != 0 {
		t.Fatalf("%d non-piggybacked GC messages on the critical path; first: %v", len(bad), bad[0])
	}
	// ... and the sanctioned exception really occurred, so the probe is
	// proven to see GC-class critical traffic when it exists.
	if len(crit) == 0 {
		t.Fatal("expected at least one scion-message on the critical path (the §3.2 exception); the probe may be blind")
	}
	for _, e := range crit {
		if e.Msg != obs.MsgScion {
			t.Fatalf("critical GC message is not a scion-message: %v", e)
		}
	}
}

// TestEventStreamPositiveControl runs the §4.2 strawman — the baseline
// collector that acquires the write token of every live object — and
// asserts the same probes light up: collector-class acquire events appear
// in the stream, attributed to the GC. This is what separates "the claim
// holds" from "the probe never looks".
func TestEventStreamPositiveControl(t *testing.T) {
	cl := bmx.New(bmx.Config{Nodes: 2, SegWords: 256, Seed: 3, SendLatency: 1, CallLatency: 1})
	cl.Observer().SetRingSize(1 << 14)
	cl.EnableTracing()

	n0 := cl.Node(0)
	b := n0.NewBunch()
	g, err := trace.BuildList(n0, b, 12)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Share(g.Objects, cl.Node(1)); err != nil {
		t.Fatal(err)
	}
	// The strawman acquires the write token of every live object before
	// collecting, invalidating N2's freshly shared read copies — exactly
	// the working-set disruption the BGC is designed out of.
	if _, err := baseline.TokenCollectBunch(n0, b); err != nil {
		t.Fatal(err)
	}

	evs := cl.Observer().Events()
	acq := obs.CollectorAcquires(evs)
	if len(acq) == 0 {
		t.Fatal("positive control: the token-acquiring baseline produced no gc-class acquire events")
	}
	for _, e := range acq {
		if e.Class != obs.ClassGC {
			t.Fatalf("baseline acquire not attributed to the collector: %v", e)
		}
	}
	if inv := obs.CollectorInvalidations(evs); len(inv) == 0 {
		t.Fatal("positive control: baseline write-token acquires should invalidate replicas")
	}
}

// TestTreeSeed5Succeeds runs what used to be the ROADMAP's known failure —
// `bmxd -nodes 3 -objects 80 -rounds 6 -workload tree -seed 5` died with
// "ownerPtr chain for O36 exceeded 10 hops" — and pins the fix. The root
// cause (diagnosed from the flight-recorder biography of O36): churn cut the
// object's parent link, every replica was legitimately reclaimed (the owner
// last), then background location manifests re-created unanchored ownerPtr
// routes among the non-owners; the driver's next write through its saved
// handle walked those stale edges in a loop until the hop bound fired. The
// fix is two-sided: the chain refuses to revisit a node (Via-aware routing;
// a cycle reads as a detour, exhaustion proves the object unowned), and the
// requester then faults the object back in (dsm.reestablish) — a handle
// kept by a mutator names the object in the persistent store for as long as
// the directory remembers it.
func TestTreeSeed5Succeeds(t *testing.T) {
	const (
		nodes   = 3
		objects = 80
		rounds  = 6
		seed    = 5
	)
	cl := bmx.New(bmx.Config{Nodes: nodes, SegWords: 512, Seed: seed, SendLatency: 1, CallLatency: 1})
	cl.EnableTracing()
	var dump bytes.Buffer
	cl.Observer().SetFatalSink(&dump)

	n0 := cl.Node(0)
	b := n0.NewBunch()
	depth := 1
	for (1<<(depth+1))-1 < objects {
		depth++
	}
	g, err := trace.BuildTree(n0, b, depth)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Share(g.Objects, cl.Node(1), cl.Node(2)); err != nil {
		t.Fatal(err)
	}

	// The exact bmxd driver loop (churn 0.2, a BGC every 2 rounds with a
	// reuse round after it, a GGC every 5). The run is deterministic; it
	// used to die in round 5.
	for r := 1; r <= rounds; r++ {
		mutator := cl.Node(r % nodes)
		if err := trace.MutateValues(mutator, g, 10, seed+int64(r)); err != nil {
			t.Fatalf("round %d mutate: %v", r, err)
		}
		if _, err := trace.Churn(n0, g, 0.2/float64(rounds), seed+int64(r)); err != nil {
			t.Fatalf("round %d churn: %v", r, err)
		}
		if r%2 == 0 {
			for i := 0; i < nodes; i++ {
				cl.Node(i).CollectBunch(b)
			}
			cl.Node(0).ReclaimFromSpace(b)
		}
		if r%5 == 0 {
			cl.Node(0).CollectGroup(nil)
		}
		cl.Run(0)
	}

	// The hop bound never fired, so nothing hit the fatal sink.
	if dump.Len() != 0 {
		t.Fatalf("flight recorder dumped a fatal:\n%.2000s", dump.String())
	}
	evs := cl.Observer().Events()
	for _, e := range evs {
		if e.Kind == obs.KMaxHops {
			t.Fatalf("hop bound fired: %v", e)
		}
	}
	// The failure mode was real and the recovery exercised: the run must
	// have walked into at least one stale routing cycle, proven the object
	// unowned, and faulted it back in.
	reest := 0
	for _, e := range evs {
		if e.Kind == obs.KReestablish {
			reest++
		}
	}
	if reest == 0 {
		t.Fatal("run exercised no reestablish; the repro may have gone stale")
	}
	if got := cl.Stats().Get("dsm.reestablished"); got == 0 {
		t.Fatal("dsm.reestablished counter not bumped")
	}

	// The O36 biography must tell the story end to end: grants, owned
	// reclaim (global death), then a reestablish — and no unbounded hop
	// trail (a cycle is cut at the first revisit, so a trail can never
	// exceed the cluster size).
	trail := obs.HopTrail(evs, 36)
	if len(trail) > nodes {
		t.Fatalf("O36 hop trail longer than the cluster: %v", trail)
	}
	if cyc := obs.CycleIn(trail); len(cyc) != 0 {
		t.Fatalf("repeating cycle survives in the O36 hop trail: %v", trail)
	}
}
