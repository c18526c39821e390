package simnet

import (
	"errors"
	"testing"

	"bmx/internal/transport"
)

func TestDupDeliversSameSeqTwice(t *testing.T) {
	nw := New(Options{Seed: 3, Faults: FaultPlan{
		Default: FaultRates{Dup: 1},
	}})
	got := collectNode(nw, 1)
	const n = 5
	for i := 0; i < n; i++ {
		nw.Send(Msg{From: 0, To: 1, Kind: "gc.table", Class: ClassGC, Payload: i})
	}
	nw.Run(0)
	if len(*got) != 2*n {
		t.Fatalf("delivered %d, want %d", len(*got), 2*n)
	}
	// The duplicate is a true wire-level redelivery: the SAME stream
	// sequence number twice, back to back, never a new message.
	for i := 0; i < n; i++ {
		a, b := (*got)[2*i], (*got)[2*i+1]
		if a.Seq != b.Seq || a.Seq != uint64(i+1) {
			t.Fatalf("pair %d seqs = %d,%d, want %d,%d", i, a.Seq, b.Seq, i+1, i+1)
		}
		if a.Payload.(int) != i || b.Payload.(int) != i {
			t.Fatalf("pair %d payloads = %v,%v", i, a.Payload, b.Payload)
		}
	}
	if d := nw.Stats().Get("msg.dup"); d != n {
		t.Fatalf("msg.dup = %d, want %d", d, n)
	}
}

func TestDelayHoldsWithoutReorder(t *testing.T) {
	const ticks = 4
	nw := New(Options{Seed: 1, Faults: FaultPlan{
		Default: FaultRates{Delay: 1, DelayTicks: ticks},
	}})
	got := collectNode(nw, 1)
	const n = 8
	for i := 0; i < n; i++ {
		nw.Send(Msg{From: 0, To: 1, Payload: i})
	}
	// Nothing is deliverable yet, but driver-paced delivery must make
	// progress: Run advances the clock to the earliest release tick.
	nw.Run(0)
	if len(*got) != n {
		t.Fatalf("delivered %d of %d delayed messages", len(*got), n)
	}
	for i, m := range *got {
		if m.Payload.(int) != i {
			t.Fatalf("delay reordered the stream: %v at position %d", m.Payload, i)
		}
	}
	if now := nw.Clock().Now(); now < ticks {
		t.Fatalf("clock = %d, want >= %d (delay must cost simulated time)", now, ticks)
	}
	if d := nw.Stats().Get("msg.delayed"); d != n {
		t.Fatalf("msg.delayed = %d, want %d", d, n)
	}
}

func TestDelayedHeadBlocksItsStream(t *testing.T) {
	// Only the first message is delayed (ByKind). The stream head being held
	// must hold the whole stream: FIFO survives, later messages do not
	// overtake.
	nw := New(Options{Seed: 9, Faults: FaultPlan{
		ByKind: map[string]FaultRates{"slow": {Delay: 1, DelayTicks: 10}},
	}})
	got := collectNode(nw, 1)
	nw.Send(Msg{From: 0, To: 1, Kind: "slow", Payload: 0})
	nw.Send(Msg{From: 0, To: 1, Kind: "fast", Payload: 1})
	nw.Send(Msg{From: 0, To: 1, Kind: "fast", Payload: 2})
	if nw.Step() && (*got)[0].Payload.(int) != 0 {
		t.Fatalf("stream delivered %v past its held head", (*got)[0].Payload)
	}
	nw.Run(0)
	for i, m := range *got {
		if m.Payload.(int) != i {
			t.Fatalf("delivery order %v at %d", m.Payload, i)
		}
	}
}

func TestPartitionCutsBothPrimitives(t *testing.T) {
	nw := New(Options{Faults: FaultPlan{
		Partitions: []NodePair{{A: 0, B: 1}},
	}})
	got1 := collectNode(nw, 1)
	got2 := collectNode(nw, 2)
	collectNode(nw, 0)

	if nw.Send(Msg{From: 0, To: 1}) {
		t.Fatal("send across a partition must report the drop")
	}
	if !nw.Send(Msg{From: 0, To: 2}) {
		t.Fatal("unrelated pair must stay connected")
	}
	// Partitions sever synchronous calls too, in both directions, with the
	// distinguishable sentinel.
	if _, err := nw.Call(Msg{From: 1, To: 0, Kind: "dsm.acquire"}); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("call across partition: err = %v, want ErrPartitioned", err)
	}
	if _, err := nw.Call(Msg{From: 2, To: 0}); err != nil {
		t.Fatalf("unrelated call failed: %v", err)
	}
	nw.Run(0)
	if len(*got1) != 0 || len(*got2) != 1 {
		t.Fatalf("deliveries: to1=%d to2=%d, want 0 and 1", len(*got1), len(*got2))
	}
	if p := nw.Stats().Get("msg.partitioned"); p != 2 {
		t.Fatalf("msg.partitioned = %d, want 2 (one send, one call)", p)
	}

	// Heal at runtime. The dropped send consumed seq 1, so the receiver
	// observes a gap — never a reorder.
	nw.SetFaultPlan(FaultPlan{})
	if !nw.Send(Msg{From: 0, To: 1}) {
		t.Fatal("send after heal must be enqueued")
	}
	nw.Run(0)
	if len(*got1) != 1 || (*got1)[0].Seq != 2 {
		t.Fatalf("after heal got %d messages, first seq %d; want 1 message with seq 2 (gap)",
			len(*got1), (*got1)[0].Seq)
	}
}

func TestZeroPlanDrawsNothing(t *testing.T) {
	// A message whose resolved rates are all zero must not consume RNG
	// draws: the loss stream under Default.Drop must be byte-for-byte the
	// same whether or not zero-rate traffic is interleaved with it.
	run := func(interleave bool) []uint64 {
		nw := New(Options{Seed: 5, Faults: FaultPlan{
			Default: FaultRates{Drop: 0.4},
			ByClass: map[transport.Class]FaultRates{ClassApp: {}},
			ByKind:  map[string]FaultRates{"gc.quiet": {}},
		}})
		got := collectNode(nw, 1)
		collectNode(nw, 2)
		for i := 0; i < 100; i++ {
			nw.Send(Msg{From: 0, To: 1, Kind: "gc.table", Class: ClassGC})
			if interleave {
				nw.Send(Msg{From: 0, To: 2, Kind: "gc.quiet", Class: ClassGC})
				nw.Send(Msg{From: 0, To: 2, Kind: "dsm.grant", Class: ClassApp})
			}
		}
		nw.Run(0)
		var seqs []uint64
		for _, m := range *got {
			seqs = append(seqs, m.Seq)
		}
		return seqs
	}
	a, b := run(false), run(true)
	if len(a) != len(b) {
		t.Fatalf("zero plan changed the delivery count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("zero plan perturbed the loss stream at %d: %d vs %d", i, a[i], b[i])
		}
	}
}
