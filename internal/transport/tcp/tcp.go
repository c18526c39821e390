package tcp

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"bmx/internal/addr"
	"bmx/internal/obs"
	"bmx/internal/transport"
)

// Options configures a Transport.
type Options struct {
	// Listen is the TCP address to listen on ("127.0.0.1:0" if empty).
	// The resolved address, Addr(), is the process's cluster-wide identity.
	Listen string
	// Peers are the listen addresses of the other cluster processes. Each
	// gets a dialer that maintains one persistent connection with
	// reconnect and backoff; the mesh is deduplicated so a pair of
	// processes shares exactly one stream no matter who dials whom.
	Peers []string

	CallTimeout time.Duration // synchronous call deadline (default 10s)
	DialTimeout time.Duration // per-attempt dial deadline (default 2s)
	BackoffMin  time.Duration // first reconnect delay (default 25ms)
	BackoffMax  time.Duration // reconnect delay ceiling (default 1s)

	// Seed seeds the loss-injection RNG (fault-plan drops).
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Listen == "" {
		o.Listen = "127.0.0.1:0"
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = 10 * time.Second
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.BackoffMin <= 0 {
		o.BackoffMin = 25 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = time.Second
	}
	return o
}

type pairKey struct{ from, to addr.NodeID }

// pendingCall is one in-flight synchronous request awaiting its reply.
type pendingCall struct {
	ch chan frame
	c  *conn
}

// Transport is the TCP implementation of transport.Network. Nodes
// registered on it are local to this process; hello frames teach each
// process which NodeIDs live behind which stream, and Send/Call route on
// that table. Delivery is continuous — the driver-pacing methods of
// transport.Network (Step, StepFor, Run) are no-ops, exactly as the
// interface contract anticipates for a real network.
type Transport struct {
	opts  Options
	ln    net.Listener
	laddr string // canonical listen address = this process's identity

	clock     *transport.Clock
	stats     *transport.Stats
	piggyHist *obs.Histogram

	mu       sync.Mutex
	handlers map[addr.NodeID]transport.Handler
	callees  map[addr.NodeID]transport.CallHandler
	inboxes  map[addr.NodeID]*inbox
	seqs     map[pairKey]uint64
	conns    map[string]*conn // by remote identity (canonical listen addr)
	// streams holds every stream that may still carry routes: from the
	// moment newConn sends its hello — before the peer's hello names it —
	// until it is demoted or dropped. Register announces to all of them.
	streams map[*conn]struct{}
	routes  map[addr.NodeID]*conn
	pending map[uint64]*pendingCall
	nextReq uint64
	plan    transport.FaultPlan
	rng     *rand.Rand
	closed  bool

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// Transport implements the full transport.Network contract.
var _ transport.Network = (*Transport)(nil)

// New opens the listener and starts a dialer per configured peer. Local
// nodes may be registered before or after peers connect: every Register
// re-announces the local node set on all live streams.
func New(opts Options) (*Transport, error) {
	opts = opts.withDefaults()
	ln, err := net.Listen("tcp", opts.Listen)
	if err != nil {
		return nil, fmt.Errorf("tcp: listen %s: %w", opts.Listen, err)
	}
	t := &Transport{
		opts:     opts,
		ln:       ln,
		laddr:    ln.Addr().String(),
		clock:    &transport.Clock{},
		stats:    transport.NewStats(),
		handlers: make(map[addr.NodeID]transport.Handler),
		callees:  make(map[addr.NodeID]transport.CallHandler),
		inboxes:  make(map[addr.NodeID]*inbox),
		seqs:     make(map[pairKey]uint64),
		conns:    make(map[string]*conn),
		streams:  make(map[*conn]struct{}),
		routes:   make(map[addr.NodeID]*conn),
		pending:  make(map[uint64]*pendingCall),
		rng:      rand.New(rand.NewSource(opts.Seed)),
		done:     make(chan struct{}),
	}
	t.stats.Observer().SetTickSource(t.clock.Now)
	t.piggyHist = t.stats.Observer().Hist("net.piggyback.bytes")
	t.wg.Add(1)
	go t.acceptLoop()
	for _, p := range opts.Peers {
		t.AddPeer(p)
	}
	return t, nil
}

// Addr returns the canonical listen address — the identity other
// processes name in their Peers list.
func (t *Transport) Addr() string { return t.laddr }

// Clock returns the process-local Lamport clock. Every outbound frame is
// stamped with it and every received frame merges into it (Observe), so
// ticks recorded after a receive compare greater than any tick the sender
// recorded before the send.
func (t *Transport) Clock() *transport.Clock { return t.clock }

// Stats returns the process-local counter registry.
func (t *Transport) Stats() *transport.Stats { return t.stats }

// AddPeer starts maintaining a persistent connection to the given listen
// address (reconnecting with backoff until Close).
func (t *Transport) AddPeer(peer string) {
	t.wg.Add(1)
	go t.dialLoop(peer)
}

// Register installs the handlers for a local node and announces the
// updated local node set on every stream, including streams whose peer
// hello has not arrived yet: their first hello was built before this
// registration and would otherwise leave the peer without a route here.
func (t *Transport) Register(id addr.NodeID, h transport.Handler, c transport.CallHandler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handlers[id] = h
	t.callees[id] = c
	if t.inboxes[id] == nil {
		ib := newInbox(t, id)
		t.inboxes[id] = ib
		t.wg.Add(1)
		go ib.loop()
	}
	buf, err := t.helloLocked()
	if err != nil {
		return
	}
	for cn := range t.streams {
		cn.enqueue(buf)
	}
}

// helloLocked encodes the current hello frame; t.mu must be held, and the
// caller enqueues the frame before releasing it, so every stream carries
// its hellos in registration order and the last one names every node.
func (t *Transport) helloLocked() ([]byte, error) {
	nodes := make([]addr.NodeID, 0, len(t.handlers))
	for id := range t.handlers {
		nodes = append(nodes, id)
	}
	return appendFrame(nil, &frame{Type: frameHello, Tick: t.clock.Now(), ListenAddr: t.laddr, Nodes: nodes})
}

// Send enqueues one asynchronous message. The stream sequence number is
// assigned under the transport lock in enqueue order, and each remote
// pair shares a single TCP stream, so delivery is per-pair FIFO. A send
// to a disconnected or unknown node is dropped — it still consumes its
// sequence number, so the receiver observes a gap, never a reorder —
// matching the lossy contract the GC's idempotent tables are built for.
// Locally-registered destinations are delivered through the same
// per-destination inbox goroutines as network traffic, never
// synchronously on the caller's stack (callers may hold node locks).
func (t *Transport) Send(m transport.Msg) bool {
	// Causal span propagation: with tracing enabled, a message not already
	// carrying a span inherits the sender's current one. Disabled, this is
	// one atomic load and the envelope stays zero (and off the wire).
	if !m.Span.Valid() {
		if o := t.stats.Observer(); o.Enabled() {
			m.Span = o.Recorder(m.From).CurrentSpan()
		}
	}
	t.mu.Lock()
	k := pairKey{m.From, m.To}
	t.seqs[k]++
	m.Seq = t.seqs[k]

	partitioned := t.plan.Partitioned(m.From, m.To)
	lost := false
	if !partitioned && !t.closed {
		if r := t.plan.RatesFor(m.Class, m.Kind); r.Drop > 0 && t.rng.Float64() < r.Drop {
			lost = true
		}
	}
	if t.closed {
		lost = true
	}

	accepted := false
	if !partitioned && !lost {
		if ib := t.inboxes[m.To]; ib != nil {
			ib.push(m)
			accepted = true
		} else if c := t.routes[m.To]; c != nil {
			if buf, err := t.encodeMsgLocked(frameMsg, m, 0); err == nil {
				accepted = c.enqueue(buf)
			} else {
				t.stats.Add("msg.encodeError", 1)
			}
		}
		if !accepted {
			lost = true
		}
	}
	t.mu.Unlock()

	t.stats.CountSend(m)
	if m.Piggyback > 0 {
		t.piggyHist.Observe(int64(m.Piggyback))
	}
	if o := t.stats.Observer(); o.Enabled() {
		r := o.Recorder(m.From)
		mk := obs.MsgKindOf(m.Kind)
		r.Emit(obs.Event{Kind: obs.KSend, Class: obs.Class(m.Class), Msg: mk,
			From: m.From, To: m.To, A: int64(m.Bytes), B: int64(m.Piggyback),
			Trace: m.Span.Trace, Span: m.Span.Span})
		switch {
		case partitioned:
			r.Emit(obs.Event{Kind: obs.KPartition, Class: obs.Class(m.Class), Msg: mk, From: m.From, To: m.To})
		case lost:
			r.Emit(obs.Event{Kind: obs.KDrop, Class: obs.Class(m.Class), Msg: mk, From: m.From, To: m.To, A: int64(m.Bytes)})
		}
	}
	if partitioned {
		t.stats.Add("msg.partitioned", 1)
		return false
	}
	if lost {
		t.stats.Add("msg.lost", 1)
		return false
	}
	return true
}

// encodeMsgLocked renders m as a msg or call frame; t.mu must be held so
// that frames enter their stream's queue in sequence order.
func (t *Transport) encodeMsgLocked(ft frameType, m transport.Msg, reqID uint64) ([]byte, error) {
	pb, err := encodePayload(m.Payload)
	if err != nil {
		return nil, err
	}
	return appendFrame(nil, &frame{
		Type: ft, Tick: t.clock.Now(),
		From: m.From, To: m.To, Kind: m.Kind, Class: m.Class,
		Seq: m.Seq, ReqID: reqID, Bytes: m.Bytes, Piggyback: m.Piggyback,
		Payload: pb,
		Trace:   m.Span.Trace, Span: m.Span.Span, SParent: m.Span.Parent,
	})
}

// Call performs a synchronous request/reply exchange. Calls to local
// nodes run the callee directly on the caller's goroutine (as simnet
// does); remote calls are multiplexed over the pair's stream by request
// ID, so any number of calls — including calls issued by handlers of
// inbound traffic on the same stream — proceed concurrently. A severed
// or absent connection fails the call with an error wrapping
// transport.ErrPartitioned, the same sentinel a simnet partition yields,
// and once Close has begun every call fails with transport.ErrClosed;
// registered sentinel errors returned by the remote callee cross the wire
// with errors.Is fidelity (see transport.RegisterWireError).
func (t *Transport) Call(m transport.Msg) (any, error) {
	if !m.Span.Valid() {
		if o := t.stats.Observer(); o.Enabled() {
			m.Span = o.Recorder(m.From).CurrentSpan()
		}
	}
	t.mu.Lock()
	closed := t.closed
	partitioned := t.plan.Partitioned(m.From, m.To)
	localCallee := t.callees[m.To]
	t.mu.Unlock()

	if closed {
		return nil, t.callClosed(m)
	}
	o := t.stats.Observer()
	if partitioned {
		t.stats.Add("msg.partitioned", 1)
		if o.Enabled() {
			o.Recorder(m.From).Emit(obs.Event{Kind: obs.KPartition, Class: obs.Class(m.Class),
				Msg: obs.MsgKindOf(m.Kind), From: m.From, To: m.To})
		}
		return nil, fmt.Errorf("tcp: call %s %v -> %v: %w", m.Kind, m.From, m.To, transport.ErrPartitioned)
	}

	t.accountCallRequest(m)
	if localCallee != nil {
		reply, replyBytes, err := localCallee(m)
		t.accountCallReply(m, replyBytes)
		return reply, err
	}

	t.mu.Lock()
	c := t.routes[m.To]
	var buf []byte
	var reqID uint64
	var encErr error
	var pc *pendingCall
	if c != nil {
		t.nextReq++
		reqID = t.nextReq
		buf, encErr = t.encodeMsgLocked(frameCall, m, reqID)
		if encErr == nil {
			pc = &pendingCall{ch: make(chan frame, 1), c: c}
			t.pending[reqID] = pc
		}
	}
	t.mu.Unlock()

	if c == nil {
		return nil, t.callLost(m, "no route")
	}
	if encErr != nil {
		return nil, fmt.Errorf("tcp: call %s: %w", m.Kind, encErr)
	}
	if !c.enqueue(buf) {
		t.unregisterCall(reqID)
		return nil, t.callLost(m, "connection down")
	}

	timer := time.NewTimer(t.opts.CallTimeout)
	defer timer.Stop()
	select {
	case f := <-pc.ch:
		t.accountCallReply(m, f.ReplyBytes)
		if f.HasErr {
			return nil, transport.WireError(f.ErrName, f.ErrDetail)
		}
		reply, err := decodePayload(f.Payload)
		if err != nil {
			return nil, fmt.Errorf("tcp: call %s reply: %w", m.Kind, err)
		}
		return reply, nil
	case <-pc.c.closedCh:
		t.unregisterCall(reqID)
		return nil, t.callLost(m, "connection lost")
	case <-timer.C:
		t.unregisterCall(reqID)
		return nil, fmt.Errorf("tcp: call %s %v -> %v: timeout after %v", m.Kind, m.From, m.To, t.opts.CallTimeout)
	case <-t.done:
		t.unregisterCall(reqID)
		return nil, t.callClosed(m)
	}
}

// callLost is the error of a call whose stream is missing or severed:
// transport.ErrPartitioned, the sentinel a simnet partition yields — unless
// this transport's Close has begun, which is what severed it.
func (t *Transport) callLost(m transport.Msg, what string) error {
	t.mu.Lock()
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return t.callClosed(m)
	}
	return fmt.Errorf("tcp: call %s %v -> %v: %s: %w", m.Kind, m.From, m.To, what, transport.ErrPartitioned)
}

// callClosed is the error of a call made or cut short after Close began.
func (t *Transport) callClosed(m transport.Msg) error {
	return fmt.Errorf("tcp: call %s: %w", m.Kind, transport.ErrClosed)
}

func (t *Transport) accountCallRequest(m transport.Msg) {
	t.stats.CountSend(m)
	t.stats.Add("bytes.piggyback", int64(m.Piggyback))
	if m.Piggyback > 0 {
		t.piggyHist.Observe(int64(m.Piggyback))
	}
	if o := t.stats.Observer(); o.Enabled() {
		o.Recorder(m.From).Emit(obs.Event{Kind: obs.KCall, Class: obs.Class(m.Class),
			Msg: obs.MsgKindOf(m.Kind), From: m.From, To: m.To, A: int64(m.Bytes), B: int64(m.Piggyback),
			Trace: m.Span.Trace, Span: m.Span.Span})
	}
}

func (t *Transport) accountCallReply(m transport.Msg, replyBytes int) {
	t.stats.CountReply(m, replyBytes)
	if o := t.stats.Observer(); o.Enabled() {
		o.Recorder(m.From).Emit(obs.Event{Kind: obs.KCallReply, Class: obs.Class(m.Class),
			Msg: obs.MsgKindOf(m.Kind), From: m.To, To: m.From, A: int64(replyBytes),
			Trace: m.Span.Trace, Span: m.Span.Span})
	}
}

func (t *Transport) unregisterCall(reqID uint64) {
	t.mu.Lock()
	delete(t.pending, reqID)
	t.mu.Unlock()
}

// WaitForNodes blocks until routes to at least want distinct remote nodes
// exist (the mesh has formed), or the timeout elapses.
func (t *Transport) WaitForNodes(want int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		t.mu.Lock()
		got := len(t.routes)
		t.mu.Unlock()
		if got >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("tcp: %s: only %d of %d remote nodes routable after %v", t.laddr, got, want, timeout)
		}
		select {
		case <-t.done:
			return fmt.Errorf("tcp: transport closed while waiting for peers")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// Close shuts the listener, severs every stream, fails in-flight calls
// and stops the delivery goroutines.
func (t *Transport) Close() error {
	t.mu.Lock()
	t.closed = true
	conns := make([]*conn, 0, len(t.conns))
	for _, c := range t.conns {
		conns = append(conns, c)
	}
	inboxes := make([]*inbox, 0, len(t.inboxes))
	for _, ib := range t.inboxes {
		inboxes = append(inboxes, ib)
	}
	t.mu.Unlock()

	t.closeOnce.Do(func() { close(t.done) })
	err := t.ln.Close()
	for _, c := range conns {
		c.close()
	}
	for _, ib := range inboxes {
		ib.stop()
	}
	t.wg.Wait()
	return err
}

// --- transport.Network driver-pacing surface -------------------------------
//
// A real network delivers continuously; the stepping methods exist only
// for driver-paced substrates and are contractual no-ops here.

// Step reports false: there is no driver-paced queue to step.
func (t *Transport) Step() bool { return false }

// StepFor reports false: delivery to dst is continuous.
func (t *Transport) StepFor(addr.NodeID) bool { return false }

// Run reports 0 deliveries: the inbox goroutines deliver continuously.
func (t *Transport) Run(int) int { return 0 }

// Pending reports the messages received but not yet handed to handlers
// (in-flight network bytes are invisible; cross-process quiescence is the
// cluster driver's job, coordinated over its control channel).
func (t *Transport) Pending() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, ib := range t.inboxes {
		n += ib.depth()
	}
	return n
}

// SetFaultPlan installs a fault plan. Partitions sever both sends and
// calls and drop rates apply to sends (before a frame enters its stream),
// mirroring simnet; duplication and delay are not synthesized — a real
// network supplies its own.
func (t *Transport) SetFaultPlan(fp transport.FaultPlan) {
	fp = fp.Sanitized()
	t.mu.Lock()
	t.plan = fp
	t.mu.Unlock()
}

// Faults returns a copy of the installed fault plan.
func (t *Transport) Faults() transport.FaultPlan {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.plan.Sanitized()
}

// --- connection management -------------------------------------------------

// acceptLoop admits inbound streams until the listener closes.
func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		nc, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.done:
				return
			default:
			}
			t.stats.Add("tcp.acceptError", 1)
			select {
			case <-t.done:
				return
			case <-time.After(10 * time.Millisecond):
			}
			continue
		}
		t.newConn(nc, false)
	}
}

// dialLoop maintains one persistent connection to peer, reconnecting with
// exponential backoff. If the mesh deduplication closes this dialer's
// stream in favor of the peer's inbound one, the loop parks until the
// surviving stream dies before dialing again.
func (t *Transport) dialLoop(peer string) {
	defer t.wg.Done()
	backoff := t.opts.BackoffMin
	for {
		select {
		case <-t.done:
			return
		default:
		}
		nc, err := net.DialTimeout("tcp", peer, t.opts.DialTimeout)
		if err != nil {
			t.stats.Add("tcp.dialError", 1)
			if !t.sleep(backoff) {
				return
			}
			backoff = min(backoff*2, t.opts.BackoffMax)
			continue
		}
		backoff = t.opts.BackoffMin
		c := t.newConn(nc, true)
		select {
		case <-c.closedCh:
		case <-t.done:
			return
		}
		// If the peer's inbound stream won deduplication, it now serves
		// this pair; wait for it rather than racing it with redials.
		if id := c.identity(); id != "" {
			for {
				t.mu.Lock()
				rival := t.conns[id]
				t.mu.Unlock()
				if rival == nil || rival == c {
					break
				}
				select {
				case <-rival.closedCh:
				case <-t.done:
					return
				}
			}
		}
		if !t.sleep(backoff) {
			return
		}
	}
}

// sleep waits for d or transport shutdown; it reports whether to go on.
func (t *Transport) sleep(d time.Duration) bool {
	select {
	case <-t.done:
		return false
	case <-time.After(d):
		return true
	}
}

// newConn wraps an established socket: both ends immediately announce
// themselves with a hello and start the read/write loops.
func (t *Transport) newConn(nc net.Conn, dialed bool) *conn {
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	c := &conn{t: t, nc: nc, dialed: dialed, closedCh: make(chan struct{})}
	c.qcond = sync.NewCond(&c.qmu)
	t.mu.Lock()
	if buf, err := t.helloLocked(); err == nil {
		c.enqueue(buf)
	}
	t.streams[c] = struct{}{}
	t.mu.Unlock()
	t.wg.Add(2)
	go c.writeLoop()
	go c.readLoop()
	return c
}

// installConn records the identity a hello announced and routes its
// nodes. When both ends dialed each other, the duplicate streams are
// collapsed deterministically: the connection dialed by the side with the
// lexicographically smaller listen address survives — both ends compute
// the same verdict from the same two strings. It reports whether c should
// stay open.
func (t *Transport) installConn(c *conn, f frame) bool {
	var loser *conn
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return false
	}
	c.setIdentity(f.ListenAddr)
	if existing := t.conns[f.ListenAddr]; existing != nil && existing != c {
		survivorIsDialed := t.laddr < f.ListenAddr
		if c.dialed != survivorIsDialed {
			t.mu.Unlock()
			return false // existing stream (or the peer's) wins; drop c
		}
		t.demoteConnLocked(existing)
		loser = existing
	}
	t.conns[f.ListenAddr] = c
	c.nodes = f.Nodes
	for _, n := range f.Nodes {
		if t.handlers[n] == nil {
			t.routes[n] = c
		}
	}
	t.mu.Unlock()
	if loser != nil {
		// The loser may be mid-conversation: under load the crossing dial
		// can land long after the mesh formed on the other stream, and
		// killing it outright would fail every call in flight on it. Demote
		// it from routing (new traffic uses c) but keep it open until its
		// pending calls resolve — replies match by request ID, not stream.
		t.stats.Add("tcp.demoted", 1)
		t.wg.Add(1)
		go t.drainConn(loser)
	}
	return true
}

// demoteConnLocked removes c from the connection and routing tables but
// leaves its pending calls registered; t.mu must be held.
func (t *Transport) demoteConnLocked(c *conn) {
	delete(t.streams, c)
	if id := c.identity(); id != "" && t.conns[id] == c {
		delete(t.conns, id)
	}
	for n, rc := range t.routes {
		if rc == c {
			delete(t.routes, n)
		}
	}
}

// drainConn closes a demoted stream once its in-flight calls have
// resolved, bounded by the call timeout (nothing can be pending longer).
// Async frames still queued on it flow out meanwhile; in the worst case a
// late one interleaves with the successor stream at the receiver, which
// the background protocol absorbs the same way it absorbs delay — tables
// have generation watermarks, location updates have epochs (§6.1).
func (t *Transport) drainConn(c *conn) {
	defer t.wg.Done()
	// The linger floor covers traffic the busy check cannot see: a call
	// frame the peer wrote just before its own demotion that is still in
	// the socket buffer. Loopback delivers in microseconds; a second
	// absorbs even a badly starved scheduler.
	linger := time.Second
	if linger > t.opts.CallTimeout {
		linger = t.opts.CallTimeout
	}
	start := time.Now()
	deadline := start.Add(t.opts.CallTimeout)
	for time.Now().Before(deadline) {
		if time.Since(start) >= linger && !t.connBusy(c) {
			break
		}
		if !t.sleep(5 * time.Millisecond) {
			break
		}
	}
	c.close()
}

// connBusy reports whether c still carries an unresolved conversation:
// a local call awaiting its reply, or a received call whose reply has
// not been enqueued.
func (t *Transport) connBusy(c *conn) bool {
	if c.serving.Load() != 0 {
		return true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, pc := range t.pending {
		if pc.c == c {
			return true
		}
	}
	return false
}

// dropConnLocked removes c from the connection and routing tables and
// fails its pending calls; t.mu must be held.
func (t *Transport) dropConnLocked(c *conn) {
	delete(t.streams, c)
	if id := c.identity(); id != "" && t.conns[id] == c {
		delete(t.conns, id)
	}
	for n, rc := range t.routes {
		if rc == c {
			delete(t.routes, n)
		}
	}
	for id, pc := range t.pending {
		if pc.c == c {
			delete(t.pending, id)
		}
	}
}

// detachConn is dropConnLocked for use off the lock (conn teardown).
func (t *Transport) detachConn(c *conn) {
	t.mu.Lock()
	t.dropConnLocked(c)
	t.mu.Unlock()
}

// deliverRemote hands a received msg frame to its destination's inbox.
func (t *Transport) deliverRemote(f frame) {
	payload, err := decodePayload(f.Payload)
	if err != nil {
		t.stats.Add("msg.decodeError", 1)
		return
	}
	m := transport.Msg{From: f.From, To: f.To, Kind: f.Kind, Class: f.Class,
		Seq: f.Seq, Payload: payload, Bytes: f.Bytes, Piggyback: f.Piggyback,
		Span: obs.SpanContext{Trace: f.Trace, Span: f.Span, Parent: f.SParent}}
	t.mu.Lock()
	ib := t.inboxes[m.To]
	t.mu.Unlock()
	if ib == nil {
		t.stats.Add("msg.misrouted", 1)
		return
	}
	ib.push(m)
}

// serveCall runs an inbound call on its own goroutine (callees may Send
// and Call freely — the stream's read loop is never blocked by them) and
// writes the reply frame back on the same stream.
func (t *Transport) serveCall(c *conn, f frame) {
	t.mu.Lock()
	callee := t.callees[f.To]
	t.mu.Unlock()

	rf := frame{Type: frameReply, ReqID: f.ReqID}
	var reply any
	var err error
	if callee == nil {
		err = fmt.Errorf("tcp: no call handler registered for %v", f.To)
	} else {
		var payload any
		payload, err = decodePayload(f.Payload)
		if err == nil {
			m := transport.Msg{From: f.From, To: f.To, Kind: f.Kind, Class: f.Class,
				Payload: payload, Bytes: f.Bytes, Piggyback: f.Piggyback,
				Span: obs.SpanContext{Trace: f.Trace, Span: f.Span, Parent: f.SParent}}
			reply, rf.ReplyBytes, err = callee(m)
		}
	}
	if err == nil {
		rf.Payload, err = encodePayload(reply)
	}
	if err != nil {
		rf.HasErr = true
		rf.ErrName = transport.WireErrorName(err)
		rf.ErrDetail = err.Error()
		rf.Payload = nil
	}
	rf.Tick = t.clock.Now()
	if buf, ferr := appendFrame(nil, &rf); ferr == nil {
		c.enqueue(buf)
	}
}

// resolveCall completes the pending call a reply frame answers; a reply
// whose call already timed out or failed is dropped.
func (t *Transport) resolveCall(f frame) {
	t.mu.Lock()
	pc := t.pending[f.ReqID]
	delete(t.pending, f.ReqID)
	t.mu.Unlock()
	if pc != nil {
		pc.ch <- f
	}
}

// conn is one live stream to a peer process.
type conn struct {
	t      *Transport
	nc     net.Conn
	dialed bool
	nodes  []addr.NodeID

	idMu sync.Mutex
	id   string // peer identity (canonical listen addr), "" until hello

	qmu      sync.Mutex
	qcond    *sync.Cond
	q        [][]byte
	dead     bool
	closedCh chan struct{}

	// serving counts call frames received on this stream whose replies
	// have not been enqueued yet; drainConn waits for it to reach zero
	// so a demoted stream never swallows a reply it still owes.
	serving atomic.Int64
}

func (c *conn) setIdentity(id string) {
	c.idMu.Lock()
	c.id = id
	c.idMu.Unlock()
}

func (c *conn) identity() string {
	c.idMu.Lock()
	defer c.idMu.Unlock()
	return c.id
}

// enqueue appends an encoded frame to the stream's write queue,
// preserving the order in which senders enqueued (callers serialize per
// pair under the transport lock, which makes the queue order the Seq
// order). It reports false once the stream is dead.
func (c *conn) enqueue(buf []byte) bool {
	c.qmu.Lock()
	if c.dead {
		c.qmu.Unlock()
		return false
	}
	c.q = append(c.q, buf)
	c.qcond.Signal()
	c.qmu.Unlock()
	return true
}

// writeLoop drains the queue onto the socket, batching whatever is ready.
func (c *conn) writeLoop() {
	defer c.t.wg.Done()
	for {
		c.qmu.Lock()
		for len(c.q) == 0 && !c.dead {
			c.qcond.Wait()
		}
		if c.dead {
			c.qmu.Unlock()
			return
		}
		batch := c.q
		c.q = nil
		c.qmu.Unlock()
		for _, buf := range batch {
			if _, err := c.nc.Write(buf); err != nil {
				c.close()
				return
			}
		}
	}
}

// readLoop decodes frames until the stream errors: hellos (re)install
// identity and routes, msgs go to their destination inbox, calls are
// served on fresh goroutines, replies complete their pending calls. Every
// received tick merges into the local Lamport clock.
func (c *conn) readLoop() {
	defer c.t.wg.Done()
	defer c.close()
	br := bufio.NewReaderSize(c.nc, 64<<10)
	for {
		f, err := readFrame(br)
		if err != nil {
			return
		}
		c.t.clock.Observe(f.Tick)
		switch f.Type {
		case frameHello:
			if !c.t.installConn(c, f) {
				return
			}
		case frameMsg:
			c.t.deliverRemote(f)
		case frameCall:
			c.serving.Add(1)
			go func(f frame) {
				defer c.serving.Add(-1)
				c.t.serveCall(c, f)
			}(f)
		case frameReply:
			c.t.resolveCall(f)
		}
	}
}

// close severs the stream: the socket is closed, the write queue is
// poisoned, routes and pending calls through this stream are detached.
func (c *conn) close() {
	c.qmu.Lock()
	if c.dead {
		c.qmu.Unlock()
		return
	}
	c.dead = true
	close(c.closedCh)
	c.qcond.Broadcast()
	c.qmu.Unlock()
	c.nc.Close()
	c.t.detachConn(c)
}

// inbox is the per-destination delivery queue. One goroutine per local
// node invokes its handler in queue order — each (from, to) stream feeds
// the queue from a single goroutine (the sender under the transport lock,
// or the pair's stream read loop), so per-pair FIFO is preserved while
// handlers stay free to Send and Call (delivery never runs on a sender's
// stack, which may hold node locks).
type inbox struct {
	t  *Transport
	id addr.NodeID

	mu      sync.Mutex
	cond    *sync.Cond
	q       []transport.Msg
	stopped bool
}

func newInbox(t *Transport, id addr.NodeID) *inbox {
	ib := &inbox{t: t, id: id}
	ib.cond = sync.NewCond(&ib.mu)
	return ib
}

func (ib *inbox) push(m transport.Msg) {
	ib.mu.Lock()
	if !ib.stopped {
		ib.q = append(ib.q, m)
		ib.cond.Signal()
	}
	ib.mu.Unlock()
}

func (ib *inbox) depth() int {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	return len(ib.q)
}

func (ib *inbox) stop() {
	ib.mu.Lock()
	ib.stopped = true
	ib.cond.Broadcast()
	ib.mu.Unlock()
}

func (ib *inbox) loop() {
	defer ib.t.wg.Done()
	for {
		ib.mu.Lock()
		for len(ib.q) == 0 && !ib.stopped {
			ib.cond.Wait()
		}
		if ib.stopped {
			ib.mu.Unlock()
			return
		}
		m := ib.q[0]
		ib.q = ib.q[1:]
		ib.mu.Unlock()

		ib.t.mu.Lock()
		h := ib.t.handlers[m.To]
		ib.t.mu.Unlock()
		ib.t.stats.Add("msg.delivered", 1)
		if o := ib.t.stats.Observer(); o.Enabled() {
			o.Recorder(m.To).Emit(obs.Event{Kind: obs.KDeliver, Class: obs.Class(m.Class),
				Msg: obs.MsgKindOf(m.Kind), From: m.From, To: m.To, A: int64(m.Bytes),
				Trace: m.Span.Trace, Span: m.Span.Span})
		}
		if h != nil {
			h(m)
		}
	}
}
