package tcp

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"bmx/internal/addr"
	"bmx/internal/transport"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// twoTransports builds a connected pair: node 0 lives on a, node 1 on b.
func twoTransports(t *testing.T) (a, b *Transport) {
	t.Helper()
	a, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err = New(Options{Peers: []string{a.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return a, b
}

func TestSendFIFOAcrossSockets(t *testing.T) {
	a, b := twoTransports(t)
	var mu sync.Mutex
	var got []transport.Msg
	b.Register(1, func(m transport.Msg) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	}, nil)
	a.Register(0, nil, nil)
	if err := a.WaitForNodes(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	const n = 200
	for i := 0; i < n; i++ {
		if !a.Send(transport.Msg{From: 0, To: 1, Kind: "gc.table", Class: transport.ClassGC, Payload: i}) {
			t.Fatalf("send %d rejected", i)
		}
	}
	waitFor(t, "all messages delivered", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == n
	})
	mu.Lock()
	defer mu.Unlock()
	for i, m := range got {
		if m.Seq != uint64(i+1) {
			t.Fatalf("message %d: seq %d, want %d (FIFO broken)", i, m.Seq, i+1)
		}
		if m.Payload.(int) != i {
			t.Fatalf("message %d: payload %v out of order", i, m.Payload)
		}
	}
}

func TestCallRoundTripAndWireError(t *testing.T) {
	a, b := twoTransports(t)
	b.Register(1, nil, func(m transport.Msg) (any, int, error) {
		if m.Kind == "boom" {
			return nil, 0, fmt.Errorf("handler exploded on %v: %w", m.Payload, transport.ErrPartitioned)
		}
		return m.Payload.(int) * 2, 8, nil
	})
	a.Register(0, nil, nil)
	if err := a.WaitForNodes(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	reply, err := a.Call(transport.Msg{From: 0, To: 1, Kind: "double", Payload: 21})
	if err != nil {
		t.Fatal(err)
	}
	if reply.(int) != 42 {
		t.Fatalf("reply = %v, want 42", reply)
	}

	// A registered sentinel wrapped by the remote callee survives the
	// wire with errors.Is fidelity.
	_, err = a.Call(transport.Msg{From: 0, To: 1, Kind: "boom", Payload: 7})
	if err == nil || !errors.Is(err, transport.ErrPartitioned) {
		t.Fatalf("remote sentinel lost on the wire: %v", err)
	}
}

func TestCallNoRouteFailsAsPartitioned(t *testing.T) {
	a, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Register(0, nil, nil)
	if _, err := a.Call(transport.Msg{From: 0, To: 9, Kind: "dsm.acquireRead"}); !errors.Is(err, transport.ErrPartitioned) {
		t.Fatalf("call to unknown node: %v, want ErrPartitioned", err)
	}
	if a.Send(transport.Msg{From: 0, To: 9, Kind: "gc.table"}) {
		t.Fatal("send to unknown node must report loss")
	}
	if a.Stats().Get("msg.lost") == 0 {
		t.Fatal("dropped send not counted")
	}
}

// Handlers may Send and Call on the transport that invoked them — the
// stream's read loop never runs them, so no deadlock.
func TestHandlerReentrancy(t *testing.T) {
	a, b := twoTransports(t)
	echoed := make(chan uint64, 1)
	a.Register(0, func(m transport.Msg) {
		echoed <- m.Seq
	}, func(m transport.Msg) (any, int, error) {
		return "pong", 4, nil
	})
	b.Register(1, func(m transport.Msg) {
		// Async handler calls back synchronously, then sends — both over
		// the same stream the handler's own message arrived on.
		if _, err := b.Call(transport.Msg{From: 1, To: 0, Kind: "ping"}); err != nil {
			t.Errorf("call from handler: %v", err)
			return
		}
		b.Send(transport.Msg{From: 1, To: 0, Kind: "echo"})
	}, nil)
	if err := a.WaitForNodes(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := b.WaitForNodes(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	a.Send(transport.Msg{From: 0, To: 1, Kind: "kick"})
	select {
	case <-echoed:
	case <-time.After(5 * time.Second):
		t.Fatal("handler-initiated call+send never completed")
	}
}

// After the remote process dies and a new one takes over its address, the
// dialer's backoff loop re-establishes the stream and traffic resumes.
func TestReconnectAfterPeerRestart(t *testing.T) {
	b1, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	baddr := b1.Addr()
	var mu sync.Mutex
	count := 0
	recv := func(m transport.Msg) {
		mu.Lock()
		count++
		mu.Unlock()
	}
	b1.Register(1, recv, nil)

	a, err := New(Options{Peers: []string{baddr}, BackoffMin: 5 * time.Millisecond, BackoffMax: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Register(0, nil, nil)
	if err := a.WaitForNodes(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if !a.Send(transport.Msg{From: 0, To: 1, Kind: "k"}) {
		t.Fatal("first send rejected")
	}
	waitFor(t, "pre-restart delivery", func() bool { mu.Lock(); defer mu.Unlock(); return count == 1 })

	if err := b1.Close(); err != nil {
		t.Fatal(err)
	}
	// The peer's address is gone; sends are dropped (gap, not reorder).
	waitFor(t, "route teardown", func() bool {
		return !a.Send(transport.Msg{From: 0, To: 1, Kind: "k"})
	})

	// A new process binds the same address: the dialer reconnects.
	var b2 *Transport
	waitFor(t, "rebind of peer address", func() bool {
		b2, err = New(Options{Listen: baddr})
		return err == nil
	})
	defer b2.Close()
	b2.Register(1, recv, nil)
	if err := a.WaitForNodes(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	before := count
	mu.Unlock()
	waitFor(t, "post-restart delivery", func() bool {
		a.Send(transport.Msg{From: 0, To: 1, Kind: "k"})
		mu.Lock()
		defer mu.Unlock()
		return count > before
	})
}

// Both ends dialing each other simultaneously must collapse to one
// stream per pair without losing routability.
func TestMutualDialDeduplicates(t *testing.T) {
	a, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.Register(0, nil, func(m transport.Msg) (any, int, error) { return "a", 1, nil })
	b.Register(1, nil, func(m transport.Msg) (any, int, error) { return "b", 1, nil })
	a.AddPeer(b.Addr())
	b.AddPeer(a.Addr())
	if err := a.WaitForNodes(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := b.WaitForNodes(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "dedup settles to one stream each", func() bool {
		a.mu.Lock()
		na := len(a.conns)
		a.mu.Unlock()
		b.mu.Lock()
		nb := len(b.conns)
		b.mu.Unlock()
		return na == 1 && nb == 1
	})
	if _, err := a.Call(transport.Msg{From: 0, To: 1, Kind: "q"}); err != nil {
		t.Fatalf("call a->b after dedup: %v", err)
	}
	if _, err := b.Call(transport.Msg{From: 1, To: 0, Kind: "q"}); err != nil {
		t.Fatalf("call b->a after dedup: %v", err)
	}
}

// A node registered right after New must become routable even when the
// stream forms first: the hello newConn sends then names no node, and the
// stream is not installed until the peer's hello is read, so Register must
// re-announce on streams that are still waiting for it. Each pair races
// the dial against both registrations, delayed by 0–300µs so the sweep
// crosses the window on a loopback socket; without the re-announcement
// about one pair in ten in that sweep stays unroutable forever.
func TestTCPRegisterRightAfterNewStaysRoutable(t *testing.T) {
	const pairs = 50
	for i := 0; i < pairs; i++ {
		a, err := New(Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(Options{Peers: []string{a.Addr()}})
		if err != nil {
			a.Close()
			t.Fatal(err)
		}
		// Spin rather than sleep: timer granularity is coarser than the
		// window.
		for until := time.Now().Add(time.Duration(i) * 6 * time.Microsecond); time.Now().Before(until); {
		}
		a.Register(0, nil, nil)
		b.Register(1, nil, nil)
		errA := a.WaitForNodes(1, 5*time.Second)
		errB := b.WaitForNodes(1, 5*time.Second)
		a.Close()
		b.Close()
		if errA != nil || errB != nil {
			t.Fatalf("pair %d: a: %v; b: %v", i, errA, errB)
		}
	}
}

// The Lamport merge keeps cross-process tick attribution coherent: a tick
// read after receiving a frame is greater than any tick the sender
// stamped before sending it.
func TestLamportTicksFlowAcrossProcesses(t *testing.T) {
	a, b := twoTransports(t)
	done := make(chan uint64, 1)
	b.Register(1, func(m transport.Msg) { done <- b.Clock().Now() }, nil)
	a.Register(0, nil, nil)
	if err := a.WaitForNodes(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	a.Clock().Advance(1000) // sender does local work
	sendTick := a.Clock().Now()
	a.Send(transport.Msg{From: 0, To: 1, Kind: "k"})
	select {
	case recvTick := <-done:
		if recvTick <= sendTick {
			t.Fatalf("receiver tick %d not after sender tick %d", recvTick, sendTick)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("delivery timed out")
	}
}

// The driver-pacing surface is a contractual no-op on a continuously
// delivering network.
func TestSteppingIsNoOp(t *testing.T) {
	a, _ := twoTransports(t)
	if a.Step() || a.StepFor(0) || a.Run(10) != 0 {
		t.Fatal("stepping methods must be no-ops on TCP")
	}
	a.SetFaultPlan(transport.FaultPlan{Partitions: []transport.NodePair{{A: 0, B: 1}}})
	if !a.Faults().Partitioned(0, 1) {
		t.Fatal("fault plan not retained")
	}
	if got := a.SetLossRate(2.5); got != 1 {
		t.Fatalf("SetLossRate clamp: %v", got)
	}
}

// A partition installed on the sender severs calls with the sentinel the
// protocol layers expect.
func TestPartitionSeversCalls(t *testing.T) {
	a, b := twoTransports(t)
	b.Register(1, nil, func(m transport.Msg) (any, int, error) { return nil, 0, nil })
	a.Register(0, nil, nil)
	if err := a.WaitForNodes(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	a.SetFaultPlan(transport.FaultPlan{Partitions: []transport.NodePair{{A: 0, B: 1}}})
	if _, err := a.Call(transport.Msg{From: 0, To: 1, Kind: "q"}); !errors.Is(err, transport.ErrPartitioned) {
		t.Fatalf("partitioned call: %v", err)
	}
	if a.Send(transport.Msg{From: 0, To: 1, Kind: "k"}) {
		t.Fatal("partitioned send accepted")
	}
	a.SetFaultPlan(transport.FaultPlan{})
	if _, err := a.Call(transport.Msg{From: 0, To: 1, Kind: "q"}); err != nil {
		t.Fatalf("healed call: %v", err)
	}
}

func TestLocalDeliveryNeverSynchronous(t *testing.T) {
	a, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var mu sync.Mutex // stands in for a node lock held across Send
	delivered := make(chan struct{})
	a.Register(0, func(m transport.Msg) {
		mu.Lock() // would deadlock if delivery ran on the sender's stack
		mu.Unlock()
		close(delivered)
	}, nil)
	a.Register(1, nil, nil)

	mu.Lock()
	a.Send(transport.Msg{From: 1, To: 0, Kind: "k"})
	mu.Unlock()
	select {
	case <-delivered:
	case <-time.After(5 * time.Second):
		t.Fatal("local delivery did not happen asynchronously")
	}
}

var _ = addr.NodeID(0)
