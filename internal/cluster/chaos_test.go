package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"bmx/internal/dsm"
	"bmx/internal/transport"
)

// stormPlan is the fault mix the chaos soak runs under: every fault class
// the §6.1 robustness claim implicitly covers — loss, duplication, delivery
// delay — at rates high enough that each occurs many times per run.
func stormPlan() transport.FaultPlan {
	return transport.FaultPlan{
		Default: transport.FaultRates{
			Drop: 0.05, Dup: 0.15, Delay: 0.2, DelayTicks: 3,
		},
	}
}

// TestChaosSoakConvergence is the seeded chaos soak: mixed mutator+GC
// workloads under drop+duplication+delay with a rolling partition schedule
// must, after heal and drain, converge to a clean CheckInvariants, no
// pending messages, completed reclamation, and every rooted object
// acquirable. Seeds are fixed so CI runs are reproducible.
func TestChaosSoakConvergence(t *testing.T) {
	steps := 400
	seeds := []int64{1, 2, 7}
	if testing.Short() {
		steps = 150
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rep := RunChaos(ChaosConfig{
				Nodes:          3,
				Steps:          steps,
				Seed:           seed,
				Faults:         stormPlan(),
				PartitionEvery: 40,
				PartitionFor:   12,
			})
			for _, v := range rep.Violations {
				t.Errorf("violation: %s", v)
			}
			// The storm must actually have exercised every fault class.
			for _, key := range []string{"msg.dup", "msg.delayed", "msg.partitioned"} {
				if rep.Stats[key] == 0 {
					t.Errorf("fault storm never triggered %s", key)
				}
			}
			if rep.Partitions == 0 {
				t.Errorf("partition schedule cut nothing")
			}
			t.Logf("ops=%d opErrors=%d (partitioned %d) partitions=%d dup=%d delayed=%d partitionedMsgs=%d lost=%d",
				rep.Ops, rep.OpErrors, rep.PartitionedOps, rep.Partitions,
				rep.Stats["msg.dup"], rep.Stats["msg.delayed"], rep.Stats["msg.partitioned"], rep.Stats["msg.lost"])
		})
	}
}

// TestChaosFourNodes runs the soak on a larger cluster with per-class
// rates: GC traffic is hit harder than application traffic, matching the
// paper's claim that the GC needs no reliable transport.
func TestChaosFourNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("long soak")
	}
	rep := RunChaos(ChaosConfig{
		Nodes: 4,
		Steps: 300,
		Seed:  42,
		Faults: transport.FaultPlan{
			ByClass: map[transport.Class]transport.FaultRates{
				transport.ClassGC:  {Drop: 0.1, Dup: 0.25, Delay: 0.3, DelayTicks: 5},
				transport.ClassApp: {Dup: 0.05, Delay: 0.1, DelayTicks: 2},
			},
		},
		PartitionEvery: 50,
		PartitionFor:   15,
	})
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
}

// TestChaosZeroFaultsDeterministic checks the acceptance criterion that a
// chaos run with every fault rate at zero is byte-for-byte identical — same
// counters, same simulated clock — to the same workload driven on a cluster
// that never had a fault plan installed: installing the zero plan must not
// perturb determinism (no extra RNG draws, no delayed entries).
func TestChaosZeroFaultsDeterministic(t *testing.T) {
	cfg := ChaosConfig{Nodes: 3, Steps: 200, Seed: 11}

	// Chaos driver with the zero plan installed.
	a := RunChaos(cfg)
	// Same workload, but the cluster never sees SetFaultPlan before the
	// run (the non-chaos driver's transport state).
	cl := New(Config{Nodes: 3, SegWords: 128, Seed: cfg.Seed})
	b := runChaos(cl, cfg)

	if a.ClockTicks != b.ClockTicks {
		t.Errorf("clock diverged: with plan %d ticks, without %d", a.ClockTicks, b.ClockTicks)
	}
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		for k, v := range a.Stats {
			if b.Stats[k] != v {
				t.Errorf("counter %s: with plan %d, without %d", k, v, b.Stats[k])
			}
		}
		for k, v := range b.Stats {
			if _, ok := a.Stats[k]; !ok {
				t.Errorf("counter %s: only in plain run (%d)", k, v)
			}
		}
	}
	if len(a.Violations) != 0 || len(b.Violations) != 0 {
		t.Errorf("zero-fault runs must converge: %v / %v", a.Violations, b.Violations)
	}
	if a.Stats["msg.dup"] != 0 || a.Stats["msg.delayed"] != 0 || a.Stats["msg.partitioned"] != 0 {
		t.Errorf("zero plan injected faults: dup=%d delayed=%d partitioned=%d",
			a.Stats["msg.dup"], a.Stats["msg.delayed"], a.Stats["msg.partitioned"])
	}

	// And the soak itself is reproducible: same seed, same report.
	c := RunChaos(cfg)
	if !reflect.DeepEqual(a.Stats, c.Stats) || a.ClockTicks != c.ClockTicks {
		t.Errorf("same-seed chaos runs diverged")
	}
}

// TestClusterCoalescedLocUpdatesConverge runs the zero-fault soak under the
// strict protocol, where readers drop their tokens at release but keep
// their copy-sets, so re-acquires push invariant-2 updates down them: a
// batch must actually cross the wire into the real collector hooks, and the
// run must still converge. (Batch-vs-singles state equivalence is pinned at
// the dsm layer, where delivery interleaving is controlled.)
func TestClusterCoalescedLocUpdatesConverge(t *testing.T) {
	rep := RunChaos(ChaosConfig{Nodes: 3, Steps: 300, Seed: 7, Consistency: dsm.ProtocolStrict})
	if len(rep.Violations) != 0 {
		t.Fatalf("soak failed to converge:\n%v", rep.Violations)
	}
	if rep.Stats["dsm.locBatch.recv"] == 0 {
		t.Fatal("no location-update batch was delivered; the soak lost its teeth")
	}
}
