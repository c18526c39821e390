package dsm

import (
	"testing"

	"bmx/internal/addr"
	"bmx/internal/simnet"
)

// Tests for the routing-stub, route-repair and protocol-variant state
// machinery added while hardening the design (DESIGN.md §9).

func TestDemoteToRouting(t *testing.T) {
	env := newFakeEnv(t, 2)
	env.newObj(1, 1, 0)
	// Move ownership away so node 0 is a plain replica.
	if err := env.nodes[1].Acquire(1, ModeWrite, simnet.ClassApp); err != nil {
		t.Fatal(err)
	}
	n0 := env.nodes[0]
	if !n0.DemoteToRouting(1) {
		t.Fatal("demote of a non-owner with a valid route must succeed")
	}
	if !n0.IsRoutingOnly(1) {
		t.Fatal("routing flag missing")
	}
	// Routing stubs carry no replica: excluded from exiting lists.
	if nol := n0.NonOwnedLive(1); len(nol) != 0 {
		t.Fatalf("routing stub leaked into NonOwnedLive: %v", nol)
	}
	// The route itself still works.
	if got := n0.OwnerPtrOf(1); got != 1 {
		t.Fatalf("routing stub ownerPtr = %v", got)
	}
}

func TestDemoteOwnerFails(t *testing.T) {
	env := newFakeEnv(t, 1)
	env.newObj(1, 1, 0)
	if env.nodes[0].DemoteToRouting(1) {
		t.Fatal("the owner must not demote to a routing stub")
	}
	if env.nodes[0].DemoteToRouting(99) {
		t.Fatal("unknown object must not demote")
	}
}

func TestAcquireClearsRoutingFlag(t *testing.T) {
	env := newFakeEnv(t, 2)
	env.newObj(1, 1, 0)
	env.nodes[1].Acquire(1, ModeWrite, simnet.ClassApp)
	n0 := env.nodes[0]
	n0.DemoteToRouting(1)
	if err := n0.Acquire(1, ModeRead, simnet.ClassApp); err != nil {
		t.Fatal(err)
	}
	if n0.IsRoutingOnly(1) {
		t.Fatal("a granted token must turn the stub back into a replica")
	}
}

func TestLearnRepairsBrokenRoute(t *testing.T) {
	env := newFakeEnv(t, 3)
	env.newObj(1, 1, 1)
	n0 := env.nodes[0]
	// A state recreated from a self-hint is a broken route.
	n0.Learn(1, 1, 0)
	if got := n0.OwnerPtrOf(1); got != 0 {
		t.Fatalf("precondition: self route, got %v", got)
	}
	// A fresher hint repairs it...
	n0.Learn(1, 1, 2)
	if got := n0.OwnerPtrOf(1); got != 2 {
		t.Fatalf("route not repaired: %v", got)
	}
	// ...but a valid route is never overwritten by Learn.
	n0.Learn(1, 1, 1)
	if got := n0.OwnerPtrOf(1); got != 2 {
		t.Fatalf("valid route overwritten: %v", got)
	}
}

func TestStrictProtocolReleaseDropsReadToken(t *testing.T) {
	env := newFakeEnv(t, 2)
	for _, nd := range env.nodes {
		nd.SetProtocol(ProtocolStrict)
	}
	env.newObj(1, 1, 0)
	n1 := env.nodes[1]
	if err := n1.Acquire(1, ModeRead, simnet.ClassApp); err != nil {
		t.Fatal(err)
	}
	if n1.ModeOf(1) != ModeRead {
		t.Fatal("read token missing")
	}
	n1.Release(1)
	if n1.ModeOf(1) != ModeInvalid {
		t.Fatal("strict release must drop the read token")
	}
	// The owner keeps its token across releases under every protocol.
	env.nodes[0].Release(1)
	if env.nodes[0].ModeOf(1) == ModeInvalid {
		t.Fatal("owner lost its consistency at release")
	}
}

func TestEntryProtocolReleaseKeepsToken(t *testing.T) {
	env := newFakeEnv(t, 2)
	env.newObj(1, 1, 0)
	n1 := env.nodes[1]
	n1.Acquire(1, ModeRead, simnet.ClassApp)
	n1.Release(1)
	if n1.ModeOf(1) != ModeRead {
		t.Fatal("entry consistency must cache the token across releases")
	}
}

func TestProtocolString(t *testing.T) {
	if ProtocolEntry.String() != "entry" || ProtocolStrict.String() != "strict" {
		t.Fatal("protocol names wrong")
	}
	if Protocol(9).String() != "protocol(9)" {
		t.Fatal("unknown protocol string")
	}
	env := newFakeEnv(t, 1)
	env.nodes[0].SetProtocol(ProtocolStrict)
	if env.nodes[0].protocol != ProtocolStrict {
		t.Fatal("variant accessor wrong")
	}
}

func TestAddEnteringIdempotent(t *testing.T) {
	env := newFakeEnv(t, 2)
	env.newObj(1, 1, 0)
	n0 := env.nodes[0]
	n0.AddEntering(1, 1, 5)
	n0.AddEntering(1, 1, 9) // re-add must keep the original stamp
	if !n0.RemoveEnteringUpTo(1, 1, 5) {
		t.Fatal("entry not removable at its creation gen")
	}
	n0.AddEntering(1, 1, 9)
	if n0.RemoveEnteringUpTo(1, 1, 5) {
		t.Fatal("entry removed by an older table than its stamp")
	}
}

func TestOwnershipAcquiredHookFires(t *testing.T) {
	env := newFakeEnv(t, 2)
	env.newObj(1, 1, 0)
	fired := []addr.OID{}
	env.hooks[1].onOwned = func(o addr.OID) { fired = append(fired, o) }
	if err := env.nodes[1].Acquire(1, ModeWrite, simnet.ClassApp); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("OnOwnershipAcquired fired %v", fired)
	}
	// Read acquires must not fire it.
	fired = nil
	env.hooks[0].onOwned = func(o addr.OID) { fired = append(fired, o) }
	if err := env.nodes[0].Acquire(1, ModeRead, simnet.ClassApp); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 0 {
		t.Fatal("read acquire fired the ownership hook")
	}
}

func TestUnknownMessageKinds(t *testing.T) {
	env := newFakeEnv(t, 1)
	n := env.nodes[0]
	if _, _, err := n.HandleCall(simnet.Msg{Kind: "dsm.bogus"}); err == nil {
		t.Fatal("unknown call kind accepted")
	}
	// Unknown async kinds are ignored silently.
	n.HandleAsync(simnet.Msg{Kind: "dsm.bogus"})
}
