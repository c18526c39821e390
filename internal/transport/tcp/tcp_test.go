package tcp

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
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

// A call whose callee does not answer within CallTimeout fails with the
// timeout error and leaves nothing pending; the callee's late reply is
// dropped rather than handed to the next call on the stream, which gets its
// own reply.
func TestCallTimesOut(t *testing.T) {
	const timeout = 200 * time.Millisecond
	a, err := New(Options{CallTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := New(Options{Peers: []string{a.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })

	release := make(chan struct{}) // lets the timed-out callee answer
	entered := make(chan string, 2)
	hold := make(chan struct{}) // holds the second callee until the late reply is out
	b.Register(1, nil, func(m transport.Msg) (any, int, error) {
		switch s := m.Payload.(string); s {
		case "slow":
			entered <- s
			<-release
			return "late", 4, nil
		case "second":
			entered <- s
			<-hold
		}
		return m.Payload, 4, nil
	})
	a.Register(0, nil, nil)
	if err := a.WaitForNodes(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	_, err = a.Call(transport.Msg{From: 0, To: 1, Kind: "slow", Payload: "slow"})
	elapsed := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "timeout after") {
		t.Fatalf("blocked callee: err = %v, want a timeout", err)
	}
	// Scheduling slack on a loaded box on top of the sweep period.
	if limit := timeout + sweepPeriod(timeout) + 100*time.Millisecond; elapsed < timeout || elapsed > limit {
		t.Fatalf("timed out after %v, want between %v and %v", elapsed, timeout, limit)
	}
	<-entered
	a.mu.Lock()
	pending := len(a.pending)
	a.mu.Unlock()
	if pending != 0 {
		t.Fatalf("%d calls still pending after the timeout", pending)
	}

	// The next call is in flight, on the slot the timed-out call freed, when
	// the late reply arrives: the stream carries the late reply first.
	second := make(chan error, 1)
	go func() {
		reply, err := a.Call(transport.Msg{From: 0, To: 1, Kind: "second", Payload: "second"})
		if err == nil && reply != "second" {
			err = fmt.Errorf("reply %v, want its own (second)", reply)
		}
		second <- err
	}()
	<-entered
	// The late reply is the only frame b sends after its clock jumps, and
	// it carries the jump: a's clock passing it means the reply arrived.
	late := b.Clock().Advance(1 << 40)
	close(release)
	waitFor(t, "the late reply reaches the caller", func() bool { return a.Clock().Now() > late })
	close(hold)
	if err := <-second; err != nil {
		t.Fatal(err)
	}
	reply, err := a.Call(transport.Msg{From: 0, To: 1, Kind: "third", Payload: "third"})
	if err != nil || reply != "third" {
		t.Fatalf("call after the timeout: (%v, %v), want (third, nil)", reply, err)
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

// Served calls that call back over the stream they arrived on, several
// levels deep and many at once, all complete while one more served call
// blocks throughout: the stream's call workers grow with demand instead of
// waiting for a busy one, and the blocked call holds up neither calls nor
// sends.
func TestCallHandlerCallsBackOnSameStream(t *testing.T) {
	a, b := twoTransports(t)
	blocked := make(chan struct{})
	unblock := make(chan struct{})
	t.Cleanup(func() { close(unblock) }) // runs before the transports close
	var sends sync.WaitGroup
	// nest answers a depth-d call by calling the caller back at depth d-1.
	nest := func(self *Transport, id addr.NodeID) transport.CallHandler {
		return func(m transport.Msg) (any, int, error) {
			if m.Kind == "block" {
				close(blocked)
				<-unblock
				return 0, 0, nil
			}
			d := m.Payload.(int)
			if d == 0 {
				return 0, 0, nil
			}
			r, err := self.Call(transport.Msg{From: id, To: m.From, Kind: "nest", Payload: d - 1})
			if err != nil {
				return nil, 0, err
			}
			return r.(int) + 1, 0, nil
		}
	}
	a.Register(0, func(transport.Msg) { sends.Done() }, nest(a, 0))
	b.Register(1, func(transport.Msg) { sends.Done() }, nest(b, 1))
	if err := a.WaitForNodes(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := b.WaitForNodes(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	blockErr := make(chan error, 1)
	go func() {
		_, err := a.Call(transport.Msg{From: 0, To: 1, Kind: "block"})
		blockErr <- err
	}()
	<-blocked

	const callers, depth, rounds = 8, 3, 5
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			from, to, tr := addr.NodeID(0), addr.NodeID(1), a
			if i%2 == 1 {
				from, to, tr = 1, 0, b
			}
			for r := 0; r < rounds; r++ {
				got, err := tr.Call(transport.Msg{From: from, To: to, Kind: "nest", Payload: depth})
				if err == nil && got != depth {
					err = fmt.Errorf("nested call answered %v, want %d", got, depth)
				}
				if err != nil {
					errs <- err
					return
				}
				sends.Add(1)
				tr.Send(transport.Msg{From: from, To: to, Kind: "note"})
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); sends.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("nested calls or sends stalled behind a blocked call")
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	select {
	case err := <-blockErr:
		t.Fatalf("blocked call returned early: %v", err)
	default:
	}
}

// Inline call writes never reorder the sends queued on the same stream:
// the receiver sees every Seq, in order, while calls race the sends, on one
// P and on all of them.
func TestSendFIFOWithConcurrentInlineCalls(t *testing.T) {
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			a, b := twoTransports(t)
			const n = 5000
			var mu sync.Mutex
			var got []transport.Msg
			all := make(chan struct{})
			b.Register(1, func(m transport.Msg) {
				mu.Lock()
				defer mu.Unlock()
				if got = append(got, m); len(got) == n {
					close(all)
				}
			}, echo)
			a.Register(0, nil, nil)
			if err := a.WaitForNodes(1, 5*time.Second); err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			var callers sync.WaitGroup
			errs := make(chan error, 4)
			for g := 0; g < 4; g++ {
				callers.Add(1)
				go func() {
					defer callers.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if _, err := a.Call(transport.Msg{From: 0, To: 1, Kind: "probe.echo", Payload: g}); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			for i := 0; i < n; i++ {
				if !a.Send(transport.Msg{From: 0, To: 1, Kind: "gc.table", Class: transport.ClassGC, Payload: i}) {
					t.Fatalf("send %d rejected", i)
				}
			}
			select {
			case <-all:
			case <-time.After(20 * time.Second):
				t.Fatal("sends never all arrived")
			}
			close(stop)
			callers.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			mu.Lock()
			defer mu.Unlock()
			for i, m := range got {
				if m.Seq != uint64(i+1) || m.Payload != i {
					t.Fatalf("message %d arrived as seq %d payload %v (FIFO broken)", i, m.Seq, m.Payload)
				}
			}
		})
	}
}

// An inline call write never overtakes a frame already queued on its
// stream, so a goroutine's Send reaches the wire before its next Call, as
// when every frame went through the queue. The peer is a bare socket that
// checks the order frames arrive in.
func TestInlineCallNeverOvertakesQueuedSend(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	a, err := New(Options{Peers: []string{ln.Addr().String()}, CallTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Register(0, nil, nil)
	nc, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	hello, err := appendFrame(nil, &frame{Type: frameHello, ListenAddr: ln.Addr().String(), Nodes: []addr.NodeID{1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(hello); err != nil {
		t.Fatal(err)
	}
	if err := a.WaitForNodes(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	peerErr := make(chan error, 1)
	go func() {
		fr := newFrameReader(nc)
		sent := map[any]bool{}
		var seq uint64
		var out []byte
		for {
			f, err := fr.next()
			if err != nil {
				peerErr <- nil // the test closed the socket
				return
			}
			v, _ := decodePayload(f.Payload)
			switch f.Type {
			case frameMsg:
				if f.Seq != seq+1 {
					peerErr <- fmt.Errorf("msg seq %d after %d", f.Seq, seq)
					return
				}
				seq = f.Seq
				sent[v] = true
			case frameCall:
				if !sent[v] {
					peerErr <- fmt.Errorf("call %v reached the wire before the send made just before it", v)
					return
				}
				out, _ = appendFrame(out[:0], &frame{Type: frameReply, ReqID: f.ReqID}, nil)
				nc.Write(out)
			}
		}
	}()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // keeps the queue busy
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			a.Send(transport.Msg{From: 0, To: 1, Kind: "gc.table", Payload: -1 - i})
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				k := g*1000 + i
				a.Send(transport.Msg{From: 0, To: 1, Kind: "mark", Payload: k})
				if _, err := a.Call(transport.Msg{From: 0, To: 1, Kind: "probe", Payload: k}); err != nil {
					t.Errorf("call %d: %v", k, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	nc.Close()
	if err := <-peerErr; err != nil {
		t.Fatal(err)
	}
}

// A nil-payload call over loopback, counting both ends, allocates nothing
// in the steady state: the caller writes its own frame from a reused buffer
// and waits on a reused reply slot, each end reads into a reused buffer,
// and the callee's read loop hands the call to a standing worker that
// writes the reply the way the caller wrote the request.
func TestCallAllocations(t *testing.T) {
	a, b := twoTransports(t)
	b.Register(1, nil, echo)
	a.Register(0, nil, nil)
	if err := a.WaitForNodes(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	msg := transport.Msg{From: 0, To: 1, Kind: "probe.echo", Class: transport.ClassApp}
	call := func() {
		if _, err := a.Call(msg); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ { // counters, buffers and workers settle
		call()
	}
	if got := testing.AllocsPerRun(1000, call); got > 1 {
		t.Fatalf("nil-payload call: %v allocs, want at most 1 for both ends", got)
	}
}

func echo(m transport.Msg) (any, int, error) { return m.Payload, m.Bytes, nil }

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

// Two processes that dial each other keep two streams, one per direction.
// Each routes to the other on the stream it dialed from its first routed
// send on, numbered sends that both start the moment their side's
// WaitForNodes returns arrive in Seq order, and neither stream closes.
// The two sides start at once, each naming the other in Options.Peers as a
// NewPeer cluster does, so the dials cross, or one side's dial fails and
// waits for the other's hello.
func TestMutualDialRoutesOnDialedStream(t *testing.T) {
	for i := 0; i < 40; i++ {
		formMutualPair(t, i)
	}
}

// reserveAddrs returns n loopback addresses that were free a moment ago.
func reserveAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

func formMutualPair(t *testing.T, formation int) {
	const n = 200
	addrs := reserveAddrs(t, 2)
	var trs [2]*Transport
	var mu sync.Mutex
	var got [2][]transport.Msg
	var routes [2]*conn
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for k := range trs {
		self, peer := addr.NodeID(k), addr.NodeID(1-k)
		tr, err := New(Options{Listen: addrs[self], Peers: []string{addrs[peer]}})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		trs[k] = tr
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.Register(self, func(m transport.Msg) {
				mu.Lock()
				got[self] = append(got[self], m)
				mu.Unlock()
			}, nil)
			if err := tr.WaitForNodes(1, 5*time.Second); err != nil {
				errs <- err
				return
			}
			for i := 0; i < n; i++ {
				if !tr.Send(transport.Msg{From: self, To: peer, Kind: "gc.table", Payload: i}) {
					errs <- fmt.Errorf("side %d: send %d rejected", self, i)
					return
				}
				tr.mu.Lock()
				c := tr.routes[peer]
				tr.mu.Unlock()
				if i == 0 {
					routes[self] = c
				}
				if c != routes[self] || !c.dialed {
					errs <- fmt.Errorf("side %d: send %d routed on a stream other than its first dialed one (dialed %v)", self, i, c.dialed)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("formation %d: %v", formation, err)
	}
	waitFor(t, "every send delivered", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got[0]) == n && len(got[1]) == n
	})
	for k, tr := range trs {
		for i, m := range got[k] {
			if m.Seq != uint64(i+1) || m.Payload != i {
				t.Fatalf("formation %d: side %d got seq %d payload %v as message %d (FIFO broken)", formation, k, m.Seq, m.Payload, i)
			}
		}
		tr.mu.Lock()
		streams, route := len(tr.streams), tr.routes[addr.NodeID(1-k)]
		_, open := tr.streams[routes[k]]
		tr.mu.Unlock()
		if streams != 2 || route != routes[k] || !open {
			t.Fatalf("formation %d: side %d has %d streams and routes on %p, want 2 and %p, still open", formation, k, streams, route, routes[k])
		}
	}
}

// A hello on a stream the peer dialed wakes this side's dialer for that
// peer out of its backoff: a process that tried its peer before the peer
// listened becomes routable as soon as the peer dials it, not a backoff
// later.
func TestHelloWakesDialer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	baddr := ln.Addr().String()
	ln.Close()
	a, err := New(Options{Peers: []string{baddr}, BackoffMin: time.Minute, BackoffMax: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Register(0, nil, nil)
	waitFor(t, "a's first dial fails", func() bool { return a.Stats().Get("tcp.dialError") > 0 })
	var b *Transport
	waitFor(t, "rebind of the reserved address", func() bool {
		b, err = New(Options{Listen: baddr, Peers: []string{a.Addr()}})
		return err == nil
	})
	defer b.Close()
	b.Register(1, nil, nil)
	if err := a.WaitForNodes(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := b.WaitForNodes(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

// Close severs every stream, including one whose peer never sent a hello:
// a raw socket that connects and stays silent must not keep Close from
// returning.
func TestCloseSeversSilentStream(t *testing.T) {
	a, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	nc, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// a's hello arriving shows that a has taken the stream on.
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Read(make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- a.Close() }()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close blocked on a stream whose peer sent no hello")
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
