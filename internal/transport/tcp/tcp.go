package tcp

import (
	"bufio"
	"errors"
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

	// CallTimeout is the synchronous call deadline (default 10s). One
	// sweeper per transport enforces it, so a call that gets no reply fails
	// between CallTimeout and CallTimeout plus sweepPeriod after it began.
	CallTimeout time.Duration
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
	if o.BackoffMin <= 0 {
		o.BackoffMin = 25 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = time.Second
	}
	return o
}

// dialTimeout is the deadline of one dial attempt.
const dialTimeout = 2 * time.Second

// sweepPeriod is how often the deadline sweeper looks for calls whose
// CallTimeout has passed: a tenth of the timeout, at least a millisecond.
func sweepPeriod(timeout time.Duration) time.Duration {
	return max(timeout/10, time.Millisecond)
}

type pairKey struct{ from, to addr.NodeID }

// callSlot is the reusable record of one remote call in flight. Whoever
// takes a slot out of the pending table — the reply, the deadline sweeper,
// the stream's teardown or Close — sends the call's one outcome on ch, under
// the transport lock. So ch holds at most one outcome, and a call that has
// returned leaves its slot empty for the next call to reuse with its
// channel. A reply that comes too late finds no slot under its request ID.
type callSlot struct {
	ch       chan callOutcome // capacity 1, kept with the slot
	id       uint64           // request ID of the call using the slot
	c        *conn            // the stream the call went out on
	deadline time.Time
}

// callStatus says how a remote call ended.
type callStatus uint8

const (
	callReplied callStatus = iota
	callTimedOut
	callLost // its stream closed, or the transport did
)

// callOutcome is what a call's slot receives.
type callOutcome struct {
	status    callStatus
	reply     any
	bytes     int   // reply bytes the callee reported
	err       error // the callee's error, rebuilt by transport.WireError
	decodeErr error // the reply payload did not decode
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
	// pending holds the slot of every remote call in flight, by request
	// ID; freeSlots holds the slots of calls that have returned.
	pending   map[uint64]*callSlot
	freeSlots []*callSlot
	nextReq   uint64
	plan      transport.FaultPlan
	rng       *rand.Rand
	closed    bool

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
		pending:  make(map[uint64]*callSlot),
		rng:      rand.New(rand.NewSource(opts.Seed)),
		done:     make(chan struct{}),
	}
	t.stats.Observer().SetTickSource(t.clock.Now)
	t.piggyHist = t.stats.Observer().Hist("net.piggyback.bytes")
	t.wg.Add(2)
	go t.acceptLoop()
	go t.sweepLoop()
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
	hello := t.helloLocked()
	for cn := range t.streams {
		cn.enqueue(&hello, nil)
	}
}

// helloLocked builds the current hello frame; t.mu must be held, and the
// caller enqueues the frame before releasing it, so every stream carries
// its hellos in registration order and the last one names every node.
func (t *Transport) helloLocked() frame {
	nodes := make([]addr.NodeID, 0, len(t.handlers))
	for id := range t.handlers {
		nodes = append(nodes, id)
	}
	return frame{Type: frameHello, Tick: t.clock.Now(), ListenAddr: t.laddr, Nodes: nodes}
}

// Send enqueues one asynchronous message. The stream sequence number is
// assigned, and the frame queued, under the transport lock, so the queue
// holds a pair's frames in Seq order; each remote pair shares a single TCP
// stream, and no inline write overtakes a queued frame (see conn.write),
// so delivery is per-pair FIFO. A send to a disconnected or unknown node
// is dropped — it still consumes its sequence number, so the receiver
// observes a gap, never a reorder — matching the lossy contract the GC's
// idempotent tables are built for.
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
			f := t.msgFrame(frameMsg, &m, 0)
			var err error
			if accepted, err = c.enqueue(&f, m.Payload); err != nil {
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

// msgFrame is the msg or call frame that carries m. Its payload is encoded
// when the frame is, straight into the stream's buffer (appendFrame's v).
func (t *Transport) msgFrame(ft frameType, m *transport.Msg, reqID uint64) frame {
	return frame{
		Type: ft, Tick: t.clock.Now(),
		From: m.From, To: m.To, Kind: m.Kind, Class: m.Class,
		Seq: m.Seq, ReqID: reqID, Bytes: m.Bytes, Piggyback: m.Piggyback,
		Trace: m.Span.Trace, Span: m.Span.Span, SParent: m.Span.Parent,
	}
}

// Call performs a synchronous request/reply exchange. Calls to local
// nodes run the callee directly on the caller's goroutine (as simnet
// does); remote calls are multiplexed over the pair's stream by request
// ID, so any number of calls — including calls issued by handlers of
// inbound traffic on the same stream — proceed concurrently. A remote call
// takes a reusable reply slot, writes its own frame when the stream is
// idle (else queues it; see conn.write) and waits on the slot for the
// reply, the deadline sweeper's timeout or its stream's loss. A severed or
// absent connection fails the call with an error wrapping
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
	var s *callSlot
	if !closed && !partitioned && localCallee == nil {
		if c := t.routes[m.To]; c != nil {
			s = t.openCallLocked(c)
		}
	}
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
	if s == nil {
		return nil, t.callLost(m, "no route")
	}

	f := t.msgFrame(frameCall, &m, s.id)
	if err := s.c.write(&f, m.Payload); err != nil {
		t.cancelCall(s)
		if errors.Is(err, errStreamDown) {
			return nil, t.callLost(m, "connection down")
		}
		return nil, fmt.Errorf("tcp: call %s: %w", m.Kind, err)
	}
	out := t.awaitCall(s)
	switch out.status {
	case callTimedOut:
		return nil, fmt.Errorf("tcp: call %s %v -> %v: timeout after %v", m.Kind, m.From, m.To, t.opts.CallTimeout)
	case callLost:
		return nil, t.callLost(m, "connection lost")
	}
	t.accountCallReply(m, out.bytes)
	if out.err != nil {
		return nil, out.err
	}
	if out.decodeErr != nil {
		return nil, fmt.Errorf("tcp: call %s reply: %w", m.Kind, out.decodeErr)
	}
	return out.reply, nil
}

// openCallLocked puts a call on c into a free slot under a new request ID;
// t.mu must be held.
func (t *Transport) openCallLocked(c *conn) *callSlot {
	var s *callSlot
	if n := len(t.freeSlots); n > 0 {
		s = t.freeSlots[n-1]
		t.freeSlots = t.freeSlots[:n-1]
	} else {
		s = &callSlot{ch: make(chan callOutcome, 1)}
	}
	t.nextReq++
	s.id, s.c, s.deadline = t.nextReq, c, time.Now().Add(t.opts.CallTimeout)
	t.pending[s.id] = s
	return s
}

// finishLocked ends the pending call in s with outcome o; t.mu must be
// held, and s must still be pending.
func (t *Transport) finishLocked(s *callSlot, o callOutcome) {
	delete(t.pending, s.id)
	s.ch <- o
}

// awaitCall waits for the outcome of the call in s and frees the slot.
func (t *Transport) awaitCall(s *callSlot) callOutcome {
	o := <-s.ch
	t.mu.Lock()
	t.freeSlotLocked(s)
	t.mu.Unlock()
	return o
}

// cancelCall withdraws a call whose frame never went out and frees its
// slot, emptying it first if the call has already been ended.
func (t *Transport) cancelCall(s *callSlot) {
	t.mu.Lock()
	if t.pending[s.id] == s {
		delete(t.pending, s.id)
	} else {
		<-s.ch
	}
	t.freeSlotLocked(s)
	t.mu.Unlock()
}

func (t *Transport) freeSlotLocked(s *callSlot) {
	s.c = nil
	t.freeSlots = append(t.freeSlots, s)
}

// sweepLoop is the transport's one call timer: every sweepPeriod it ends
// the calls whose CallTimeout has passed.
func (t *Transport) sweepLoop() {
	defer t.wg.Done()
	tick := time.NewTicker(sweepPeriod(t.opts.CallTimeout))
	defer tick.Stop()
	for {
		select {
		case <-t.done:
			return
		case <-tick.C:
		}
		now := time.Now()
		t.mu.Lock()
		for _, s := range t.pending {
			if now.After(s.deadline) {
				t.finishLocked(s, callOutcome{status: callTimedOut})
			}
		}
		t.mu.Unlock()
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
	for _, s := range t.pending {
		t.finishLocked(s, callOutcome{status: callLost})
	}
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
		nc, err := net.DialTimeout("tcp", peer, dialTimeout)
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
	c := &conn{t: t, nc: nc, dialed: dialed, closedCh: make(chan struct{}), calls: make(chan inCall)}
	c.qcond = sync.NewCond(&c.qmu)
	t.mu.Lock()
	hello := t.helloLocked()
	c.enqueue(&hello, nil)
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
// resolved, bounded by the call timeout plus a sweep (nothing can be
// pending longer).
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
	deadline := start.Add(t.opts.CallTimeout + sweepPeriod(t.opts.CallTimeout))
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
// not been written or queued.
func (t *Transport) connBusy(c *conn) bool {
	if c.serving.Load() != 0 {
		return true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.pending {
		if s.c == c {
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
	for _, s := range t.pending {
		if s.c == c {
			t.finishLocked(s, callOutcome{status: callLost})
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
func (t *Transport) deliverRemote(f *frame) {
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

// inCall is one received call, decoded off the stream's read buffer.
type inCall struct {
	m   transport.Msg
	id  uint64
	err error // the payload did not decode
}

// serveCall runs one received call on a call worker and writes the reply
// back on the stream the call came in on — inline when the stream is idle,
// as a Call writes its request. Callees may Send and Call freely, over this
// stream too: the read loop never waits for a worker, and a busy worker
// set grows.
func (t *Transport) serveCall(c *conn, ic *inCall) {
	t.mu.Lock()
	callee := t.callees[ic.m.To]
	t.mu.Unlock()

	rf := frame{Type: frameReply, ReqID: ic.id}
	var reply any
	err := ic.err
	if callee == nil {
		err = fmt.Errorf("tcp: no call handler registered for %v", ic.m.To)
	} else if err == nil {
		reply, rf.ReplyBytes, err = callee(ic.m)
	}
	rf.Tick = t.clock.Now()
	if err == nil {
		if err = c.write(&rf, reply); err == nil || errors.Is(err, errStreamDown) {
			return
		}
	}
	rf.HasErr = true
	rf.ErrName = transport.WireErrorName(err)
	rf.ErrDetail = err.Error()
	c.write(&rf, nil)
}

// resolveCall ends the call a reply frame answers, decoding the payload
// before the stream's read buffer is reused. A reply whose call has
// already ended — timed out, or failed with its stream — finds no slot and
// is dropped.
func (t *Transport) resolveCall(f *frame) {
	o := callOutcome{status: callReplied, bytes: f.ReplyBytes}
	if f.HasErr {
		o.err = transport.WireError(f.ErrName, f.ErrDetail)
	} else {
		o.reply, o.decodeErr = decodePayload(f.Payload)
	}
	t.mu.Lock()
	if s := t.pending[f.ReqID]; s != nil {
		t.finishLocked(s, o)
	}
	t.mu.Unlock()
}

// errStreamDown reports a frame its stream could not carry: the stream was
// dead, or died writing it.
var errStreamDown = errors.New("tcp: stream down")

// maxSpareBufs bounds the written frame buffers a stream keeps for reuse.
const maxSpareBufs = 64

// conn is one live stream to a peer process.
type conn struct {
	t      *Transport
	nc     net.Conn
	dialed bool

	idMu sync.Mutex
	id   string // peer identity (canonical listen addr), "" until hello

	// The write side. One goroutine at a time writes to nc, and holds the
	// writing mark while it does: the write loop draining q, or a caller
	// writing its own frame inline (see write).
	qmu      sync.Mutex
	qcond    *sync.Cond // wakes the write loop: frames queued, stream idle
	q        [][]byte   // frames waiting for the write loop, in claim order
	spare    [][]byte   // written frame buffers, for reuse by q
	writing  bool
	dead     bool
	closedCh chan struct{}
	wbuf     []byte      // the inline frame buffer, used under the writing mark
	iov      net.Buffers // the write loop's batch, consumed by WriteTo

	// calls hands received calls to the stream's call workers. It is
	// unbuffered, so a send succeeds only into a worker waiting for work.
	calls chan inCall
	// serving counts call frames received on this stream whose replies
	// have not been written or queued yet; drainConn waits for it to reach
	// zero so a demoted stream never swallows a reply it still owes.
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

// enqueue queues one frame (payload v, see appendFrame) for the write loop.
// Its callers, Send and hello, hold t.mu, under which they serialize per
// pair, which makes the queue order the Seq order. It reports false once
// the stream is dead, and the error of a frame that does not encode.
func (c *conn) enqueue(f *frame, v any) (bool, error) {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	if c.dead {
		return false, nil
	}
	if err := c.queueLocked(f, v); err != nil {
		return false, err
	}
	return true, nil
}

// write puts one frame (payload v) on the stream for a caller that holds no
// transport lock: a Call's request or a served call's reply. If the stream
// is idle — nobody writing, nothing queued — the caller takes the writing
// mark and writes the frame on its own goroutine, with no hand-off to the
// write loop; frames queued meanwhile wait until it lets go, and then the
// loop writes them. Otherwise the frame joins the queue. The stream thus
// carries frames in the order they claimed it, and an inline write claims
// it only once every queued frame is out, so it never overtakes a Send. It
// returns the frame's encoding error, or errStreamDown if the stream could
// not carry it.
func (c *conn) write(f *frame, v any) error {
	c.qmu.Lock()
	if c.dead {
		c.qmu.Unlock()
		return errStreamDown
	}
	if c.writing || len(c.q) > 0 {
		err := c.queueLocked(f, v)
		c.qmu.Unlock()
		return err
	}
	c.writing = true
	c.qmu.Unlock()

	buf, err := appendFrame(c.wbuf[:0], f, v)
	if err == nil {
		if _, werr := c.nc.Write(buf); werr != nil {
			err = errStreamDown
		}
	}
	if cap(buf) <= keptBufBytes {
		c.wbuf = buf
	}
	c.qmu.Lock()
	c.writing = false
	if len(c.q) > 0 {
		c.qcond.Signal()
	}
	c.qmu.Unlock()
	if err == errStreamDown {
		c.close()
	}
	return err
}

// queueLocked encodes a frame into a spare buffer and queues it for the
// write loop; c.qmu must be held.
func (c *conn) queueLocked(f *frame, v any) error {
	var buf []byte
	if n := len(c.spare); n > 0 {
		buf, c.spare = c.spare[n-1], c.spare[:n-1]
	}
	buf, err := appendFrame(buf, f, v)
	if err != nil {
		if cap(buf) > 0 {
			c.spare = append(c.spare, buf)
		}
		return err
	}
	c.q = append(c.q, buf)
	if !c.writing {
		c.qcond.Signal()
	}
	return nil
}

// writeLoop drains the queue whenever the stream is idle, writing all that
// is queued with one writev (net.Buffers) and keeping the written buffers
// for reuse.
func (c *conn) writeLoop() {
	defer c.t.wg.Done()
	var batch [][]byte
	var iov net.Buffers // the batch's backing array; c.iov is consumed
	c.qmu.Lock()
	for {
		for (len(c.q) == 0 || c.writing) && !c.dead {
			c.qcond.Wait()
		}
		if c.dead {
			c.qmu.Unlock()
			return
		}
		batch, c.q = c.q, batch[:0]
		c.writing = true
		c.qmu.Unlock()

		iov = append(iov[:0], batch...)
		c.iov = iov
		_, err := c.iov.WriteTo(c.nc)

		c.qmu.Lock()
		c.writing = false
		for i, buf := range batch {
			if len(c.spare) < maxSpareBufs && cap(buf) <= keptBufBytes {
				c.spare = append(c.spare, buf[:0])
			}
			batch[i] = nil
		}
		if err != nil {
			c.qmu.Unlock()
			c.close()
			return
		}
	}
}

// readLoop decodes frames until the stream errors, each frame's payload
// before the reader reuses its buffer for the next: hellos (re)install
// identity and routes, msgs go to their destination inbox, calls go to the
// stream's call workers, replies end their calls. Nothing here waits for a
// handler, a callee or a write. Every received tick merges into the local
// Lamport clock.
func (c *conn) readLoop() {
	defer c.t.wg.Done()
	defer c.close()
	fr := newFrameReader(bufio.NewReaderSize(c.nc, 64<<10))
	for {
		f, err := fr.next()
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
			c.t.deliverRemote(&f)
		case frameCall:
			c.dispatchCall(&f)
		case frameReply:
			c.t.resolveCall(&f)
		}
	}
}

// dispatchCall hands a received call to the stream's call workers without
// blocking the read loop: a worker waiting for work takes it at once, and
// when every worker is busy a new one starts with it. Workers live as long
// as the stream, so once the set has grown to the stream's concurrency a
// call costs no goroutine start and no stack growth. The set has no cap on
// purpose: a callee may wait on a call back over this same stream, and a
// capped set would deadlock once every worker waited so.
func (c *conn) dispatchCall(f *frame) {
	payload, err := decodePayload(f.Payload)
	ic := inCall{id: f.ReqID, err: err, m: transport.Msg{From: f.From, To: f.To, Kind: f.Kind, Class: f.Class,
		Payload: payload, Bytes: f.Bytes, Piggyback: f.Piggyback,
		Span: obs.SpanContext{Trace: f.Trace, Span: f.Span, Parent: f.SParent}}}
	c.serving.Add(1)
	select {
	case c.calls <- ic:
	default:
		go c.callWorker(ic)
	}
}

// callWorker serves ic, then every call handed to it, until the stream
// closes. Like the reply it may still owe, a worker is not waited for by
// Close: its callee may block on state Close cannot see.
func (c *conn) callWorker(ic inCall) {
	for {
		c.t.serveCall(c, &ic)
		c.serving.Add(-1)
		select {
		case ic = <-c.calls:
		case <-c.closedCh:
			return
		}
	}
}

// close severs the stream: the socket is closed, the write queue is
// poisoned, routes through this stream are detached and its pending calls
// fail.
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
