// Migration: the §7 story about distributed cycles of garbage. A dead cycle
// spans two bunches whose SSPs keep each other alive, so independent bunch
// collections can never reclaim it. The locality-based group collector
// reclaims cycles local to one site; a cycle created across sites becomes
// collectable once the involved bunches are mapped together ("if an
// application does not move bunches around the nodes there is a possibility
// that some dead cycles may not ever be removed").
package main

import (
	"fmt"
	"log"

	"bmx"
)

func main() {
	cl := bmx.New(bmx.Config{Nodes: 2, SegWords: 512, Seed: 1})
	n1, n2 := cl.Node(0), cl.Node(1)

	b1 := n1.NewBunch()
	b2 := n2.NewBunch()

	// A cross-bunch cycle: x (B1@N1) <-> y (B2@N2). Both references are
	// created at N1 (so both stubs live at N1), but the bunches live on
	// different sites. A control object must survive everything.
	x := n1.MustAlloc(b1, 1)
	y := n2.MustAlloc(b2, 1)
	control := n1.MustAlloc(b1, 1)
	n1.AddRoot(control)

	check(n1.AcquireWrite(y))   // pulls y's write token to N1
	check(n1.WriteRef(x, 0, y)) // stub at N1, scion-message to N2 (B2 unmapped here)
	check(n1.WriteRef(y, 0, x)) // stub at N1, scion local (B1 mapped here)
	fmt.Println("built a dead 2-cycle: x(B1@N1) <-> y(B2@N2), both edges created at N1")

	// Phase 1: bunch collections everywhere, repeatedly. The cycle is
	// "artificially held over by SSPs" — it must survive (that is the
	// correct, conservative behaviour of independent bunch collection).
	for round := 0; round < 4; round++ {
		n1.CollectBunch(b1)
		n2.CollectBunch(b2)
		cl.Run(0)
	}
	fmt.Printf("after 4 BGC rounds: cycle present at N1=%v, at N2=%v (BGCs cannot see it is dead)\n",
		present(n1, x), present(n2, y))

	// Phase 2: the GGC at N1 with only B1 in its group. The scion for x
	// originates in B2, which is outside the group, so it stays a root —
	// still conservative, still alive ("cycles with objects allocated in
	// bunches not currently mapped in memory" are not collected, §7).
	n1.CollectGroup([]bmx.BunchID{b1})
	cl.Run(0)
	fmt.Printf("after a B1-only GGC at N1: cycle still present at N1=%v (B2 is not in the group)\n",
		present(n1, x))

	// Phase 3: map B2 at N1 (the application "moves bunches around the
	// nodes"). Now both bunches — and both stubs — are local to N1's
	// group: the intra-group scions are no longer roots and the cycle is
	// provably dead. A few rounds let the deletion chain unwind at N2.
	check(n1.MapBunch(b2))
	for round := 0; round < 4; round++ {
		n1.CollectGroup(nil)
		n2.CollectGroup(nil)
		cl.Run(0)
	}

	fmt.Printf("after co-mapping + GGC: cycle present at N1=%v, at N2=%v\n",
		present(n1, x) || present(n1, y), present(n2, x) || present(n2, y))
	fmt.Printf("control object still alive: %v\n", present(n1, control))

	st := cl.Stats()
	fmt.Printf("collector token acquires: %d (the mutator's MapBunch/AcquireWrite are application traffic)\n",
		st.Get("dsm.acquire.r.gc")+st.Get("dsm.acquire.w.gc"))
	if present(n1, x) || present(n2, y) || !present(n1, control) {
		log.Fatal("unexpected final state")
	}
}

func present(n *bmx.Node, r bmx.Ref) bool {
	_, ok := n.DSM().Canonical(r.OID)
	return ok
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
