package simnet

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"bmx/internal/addr"
)

// lossy is a fault plan that drops asynchronous sends with probability p
// and injects nothing else.
func lossy(p float64) FaultPlan { return FaultPlan{Default: FaultRates{Drop: p}} }

func collectNode(nw *Network, id addr.NodeID) *[]Msg {
	var mu sync.Mutex
	got := &[]Msg{}
	nw.Register(id, func(m Msg) {
		mu.Lock()
		*got = append(*got, m)
		mu.Unlock()
	}, func(m Msg) (any, int, error) {
		return "reply-from-" + id.String(), 8, nil
	})
	return got
}

func TestSendDeliverFIFO(t *testing.T) {
	nw := New(Options{})
	got := collectNode(nw, 1)
	collectNode(nw, 0)
	for i := 0; i < 5; i++ {
		nw.Send(Msg{From: 0, To: 1, Kind: "k", Class: ClassGC, Payload: i})
	}
	if p := nw.Pending(); p != 5 {
		t.Fatalf("Pending = %d, want 5", p)
	}
	if n := nw.Run(0); n != 5 {
		t.Fatalf("Run delivered %d, want 5", n)
	}
	if len(*got) != 5 {
		t.Fatalf("received %d, want 5", len(*got))
	}
	for i, m := range *got {
		if m.Payload.(int) != i {
			t.Fatalf("message %d out of order: payload %v", i, m.Payload)
		}
		if m.Seq != uint64(i+1) {
			t.Fatalf("message %d seq = %d, want %d", i, m.Seq, i+1)
		}
	}
}

func TestStepOneAtATime(t *testing.T) {
	nw := New(Options{})
	got := collectNode(nw, 1)
	nw.Send(Msg{From: 0, To: 1, Kind: "a"})
	nw.Send(Msg{From: 0, To: 1, Kind: "b"})
	if !nw.Step() {
		t.Fatal("Step should deliver")
	}
	if len(*got) != 1 {
		t.Fatalf("after one Step got %d messages", len(*got))
	}
	if !nw.Step() || nw.Step() {
		t.Fatal("expected exactly one more deliverable message")
	}
}

func TestCallReliableUnderLoss(t *testing.T) {
	// Synchronous consistency calls must be reliable even when the
	// background channel is fully lossy.
	nw := New(Options{Faults: lossy(1.0), Seed: 7})
	collectNode(nw, 1)
	reply, err := nw.Call(Msg{From: 0, To: 1, Kind: "dsm.acq", Class: ClassApp})
	if err != nil {
		t.Fatal(err)
	}
	if reply != "reply-from-N2" {
		t.Fatalf("reply = %v", reply)
	}
}

func TestCallUnregisteredNode(t *testing.T) {
	nw := New(Options{})
	if _, err := nw.Call(Msg{From: 0, To: 9}); err == nil {
		t.Fatal("expected error calling unregistered node")
	}
}

func TestCallHandlerError(t *testing.T) {
	nw := New(Options{})
	want := errors.New("boom")
	nw.Register(1, nil, func(m Msg) (any, int, error) { return nil, 0, want })
	if _, err := nw.Call(Msg{From: 0, To: 1}); !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
}

func TestLossDropsButKeepsOrder(t *testing.T) {
	nw := New(Options{Faults: lossy(0.5), Seed: 42})
	got := collectNode(nw, 1)
	const n = 200
	for i := 0; i < n; i++ {
		nw.Send(Msg{From: 0, To: 1, Payload: i})
	}
	nw.Run(0)
	if len(*got) == 0 || len(*got) == n {
		t.Fatalf("loss rate 0.5 delivered %d of %d", len(*got), n)
	}
	// Delivered subsequence must be in order and carry increasing seqs.
	last := -1
	var lastSeq uint64
	for _, m := range *got {
		if m.Payload.(int) <= last {
			t.Fatalf("reordered delivery: %d after %d", m.Payload, last)
		}
		if m.Seq <= lastSeq {
			t.Fatalf("non-increasing seq %d after %d", m.Seq, lastSeq)
		}
		last = m.Payload.(int)
		lastSeq = m.Seq
	}
	if nw.Stats().Get("msg.lost") != int64(n-len(*got)) {
		t.Fatalf("lost counter %d, want %d", nw.Stats().Get("msg.lost"), n-len(*got))
	}
}

func TestLossDeterministicBySeed(t *testing.T) {
	run := func() []uint64 {
		nw := New(Options{Faults: lossy(0.3), Seed: 99})
		got := collectNode(nw, 1)
		for i := 0; i < 50; i++ {
			nw.Send(Msg{From: 0, To: 1})
		}
		nw.Run(0)
		var seqs []uint64
		for _, m := range *got {
			seqs = append(seqs, m.Seq)
		}
		return seqs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic delivery count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic seq at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestSetLossRate(t *testing.T) {
	nw := New(Options{Seed: 1})
	collectNode(nw, 1)
	nw.SetFaultPlan(lossy(1.0))
	if nw.Send(Msg{From: 0, To: 1}) {
		t.Fatal("send should report loss at rate 1.0")
	}
	nw.SetFaultPlan(lossy(0))
	if !nw.Send(Msg{From: 0, To: 1}) {
		t.Fatal("send should succeed at rate 0")
	}
}

func TestSeparateStreamsIndependentSeqs(t *testing.T) {
	nw := New(Options{})
	g1 := collectNode(nw, 1)
	g2 := collectNode(nw, 2)
	nw.Send(Msg{From: 0, To: 1})
	nw.Send(Msg{From: 0, To: 2})
	nw.Send(Msg{From: 0, To: 1})
	nw.Run(0)
	if (*g1)[0].Seq != 1 || (*g1)[1].Seq != 2 {
		t.Fatalf("stream 0->1 seqs: %d %d", (*g1)[0].Seq, (*g1)[1].Seq)
	}
	if (*g2)[0].Seq != 1 {
		t.Fatalf("stream 0->2 seq: %d", (*g2)[0].Seq)
	}
}

func TestRunLimit(t *testing.T) {
	nw := New(Options{})
	collectNode(nw, 1)
	for i := 0; i < 10; i++ {
		nw.Send(Msg{From: 0, To: 1})
	}
	if n := nw.Run(3); n != 3 {
		t.Fatalf("Run(3) = %d", n)
	}
	if p := nw.Pending(); p != 7 {
		t.Fatalf("Pending = %d, want 7", p)
	}
}

func TestHandlerMaySendDuringRun(t *testing.T) {
	nw := New(Options{})
	var hops int
	nw.Register(0, func(m Msg) {
		hops++
		if hops < 5 {
			nw.Send(Msg{From: 0, To: 1})
		}
	}, nil)
	nw.Register(1, func(m Msg) {
		hops++
		if hops < 5 {
			nw.Send(Msg{From: 1, To: 0})
		}
	}, nil)
	nw.Send(Msg{From: 0, To: 1})
	nw.Run(0)
	if hops != 5 {
		t.Fatalf("hops = %d, want 5", hops)
	}
}

func TestClockAdvancesWithTraffic(t *testing.T) {
	nw := New(Options{SendLatency: 3, CallLatency: 5})
	collectNode(nw, 1)
	nw.Send(Msg{From: 0, To: 1})
	nw.Run(0)
	if got := nw.Clock().Now(); got != 3 {
		t.Fatalf("clock after send = %d, want 3", got)
	}
	if _, err := nw.Call(Msg{From: 0, To: 1}); err != nil {
		t.Fatal(err)
	}
	if got := nw.Clock().Now(); got != 13 {
		t.Fatalf("clock after call = %d, want 13 (3 + 2*5)", got)
	}
}

func TestStopwatch(t *testing.T) {
	c := &Clock{}
	w := StartWatch(c)
	c.Advance(42)
	if w.Elapsed() != 42 {
		t.Fatalf("Elapsed = %d", w.Elapsed())
	}
}

func TestStatsClassAccounting(t *testing.T) {
	nw := New(Options{})
	collectNode(nw, 1)
	nw.Send(Msg{From: 0, To: 1, Class: ClassGC, Bytes: 100})
	nw.Run(0)
	if _, err := nw.Call(Msg{From: 0, To: 1, Class: ClassApp, Bytes: 50, Piggyback: 20}); err != nil {
		t.Fatal(err)
	}
	st := nw.Stats()
	if st.Get("msg.sent.gc") != 1 {
		t.Fatalf("gc msgs = %d", st.Get("msg.sent.gc"))
	}
	if st.Get("msg.sent.app") != 2 { // request + reply
		t.Fatalf("app msgs = %d", st.Get("msg.sent.app"))
	}
	if st.Get("bytes.piggyback") != 20 {
		t.Fatalf("piggyback bytes = %d", st.Get("bytes.piggyback"))
	}
	if st.Get("bytes.sent.gc") != 100 {
		t.Fatalf("gc bytes = %d", st.Get("bytes.sent.gc"))
	}
}

func TestClassString(t *testing.T) {
	if ClassApp.String() != "app" || ClassGC.String() != "gc" {
		t.Fatal("class names wrong")
	}
	if Class(9).String() != "class(9)" {
		t.Fatalf("unknown class = %q", Class(9).String())
	}
}

func TestStatsBasics(t *testing.T) {
	s := NewStats()
	s.Add("a.b", 2)
	s.Add("a.b", 3)
	s.Add("a.c", 1)
	if s.Get("a.b") != 5 {
		t.Fatalf("Get = %d", s.Get("a.b"))
	}
	snap := s.Snapshot()
	s.Add("a.b", 1)
	if snap["a.b"] != 5 {
		t.Fatal("Snapshot must be a copy")
	}
	if s.String() == "" {
		t.Fatal("String should render non-zero counters")
	}
	s.Reset()
	if s.Get("a.b") != 0 {
		t.Fatal("Reset failed")
	}
}

func TestFIFOPropertyUnderLoss(t *testing.T) {
	// Property: for any seed and loss rate, delivered seq numbers on a
	// stream are strictly increasing (loss never reorders).
	f := func(seed int64, lossPct uint8, count uint8) bool {
		nw := New(Options{Seed: seed, Faults: lossy(float64(lossPct%90) / 100)})
		got := collectNode(nw, 1)
		for i := 0; i < int(count); i++ {
			nw.Send(Msg{From: 0, To: 1})
		}
		nw.Run(0)
		var last uint64
		for _, m := range *got {
			if m.Seq <= last {
				return false
			}
			last = m.Seq
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentSendsSafe(t *testing.T) {
	nw := New(Options{})
	got := collectNode(nw, 1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				nw.Send(Msg{From: 0, To: 1})
			}
		}()
	}
	wg.Wait()
	nw.Run(0)
	if len(*got) != 400 {
		t.Fatalf("delivered %d, want 400", len(*got))
	}
}

// TestClockPinnedSchedule pins the exact tick schedule of a scripted
// exchange. The shared simulated clock advances only through charged
// latencies (Advance) — simnet never merges remote observations
// (transport.Clock.Observe is for multi-process transports), so this
// byte-level schedule must survive any clock API growth unchanged.
func TestClockPinnedSchedule(t *testing.T) {
	nw := New(Options{SendLatency: 3, CallLatency: 5})
	collectNode(nw, 0)
	collectNode(nw, 1)

	for i := 0; i < 4; i++ {
		nw.Send(Msg{From: 0, To: 1, Kind: "k"})
	}
	if now := nw.Clock().Now(); now != 0 {
		t.Fatalf("enqueue advanced the clock to %d", now)
	}
	nw.Run(0)
	if now := nw.Clock().Now(); now != 12 {
		t.Fatalf("after 4 deliveries at latency 3: clock = %d, want 12", now)
	}
	if _, err := nw.Call(Msg{From: 0, To: 1, Kind: "q"}); err != nil {
		t.Fatal(err)
	}
	if now := nw.Clock().Now(); now != 22 {
		t.Fatalf("after one call (two legs at latency 5): clock = %d, want 22", now)
	}
}
