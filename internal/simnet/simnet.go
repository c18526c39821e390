// Package simnet is the simulated message substrate of the BMX cluster — the
// first implementation of the transport.Network interface the protocol
// layers (internal/dsm, internal/core, internal/cluster) are written
// against.
//
// The paper's system runs on a loosely coupled network of workstations. This
// package reproduces the properties the GC design depends on, and nothing
// more:
//
//   - Point-to-point FIFO: messages between a pair of nodes are delivered in
//     the order sent (the scion cleaner requires FIFO, §6.1). FIFO is
//     provided by per-pair queues; like the paper, it would be "easily
//     guaranteed by numbering the messages" and each message carries its
//     per-pair sequence number.
//   - Unreliable background traffic: the GC explicitly does not require
//     reliable communication (§6.1, idempotent table messages), so
//     asynchronous sends may be dropped with a configurable probability.
//   - Reliable synchronous calls: consistency-protocol operations performed
//     on behalf of applications (token acquires and their replies) are
//     synchronous request/reply exchanges.
//   - Accounting: every message is tagged with a kind and a class
//     (application vs. garbage collection) and carries a simulated payload
//     size plus the number of piggybacked GC bytes, so the paper's central
//     claims — the collector sends no extra messages, GC information rides
//     on consistency messages — are measured, not assumed.
//   - Simulated time: a tick clock charges per-message latency (and lets the
//     collector charge per-word copy costs), giving reproducible pause and
//     overhead figures.
//
// Delivery of asynchronous messages is driven explicitly: Step/Run give the
// deterministic single-driver order every test and benchmark relies on;
// StepFor lets a concurrent driver drain each destination from its own
// goroutine while preserving per-pair FIFO (cluster.RunConcurrent).
//
// The Network is safe for concurrent use by multiple nodes; handlers are
// invoked without internal locks held, so they may freely send and call.
package simnet

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"bmx/internal/addr"
	"bmx/internal/obs"
	"bmx/internal/transport"
)

// The message vocabulary is owned by the transport package; these aliases
// keep simnet a drop-in name for tests and tools built against it.
type (
	// Class attributes a message to the application or to the collector.
	Class = transport.Class
	// Msg is one message on the simulated network.
	Msg = transport.Msg
	// Handler consumes an asynchronous message.
	Handler = transport.Handler
	// CallHandler serves a synchronous request and produces a reply.
	CallHandler = transport.CallHandler
	// Clock is the shared simulated tick clock.
	Clock = transport.Clock
	// Stopwatch measures a simulated-time interval.
	Stopwatch = transport.Stopwatch
	// Stats is the concurrency-safe counter registry.
	Stats = transport.Stats
	// FaultPlan declares drop/duplicate/delay rates and partitions.
	FaultPlan = transport.FaultPlan
	// FaultRates are per-message fault probabilities.
	FaultRates = transport.FaultRates
	// NodePair is an unordered pair of nodes cut by a partition.
	NodePair = transport.NodePair
)

// ErrPartitioned is the sentinel error wrapped by failed calls across a
// partition (see transport.ErrPartitioned).
var ErrPartitioned = transport.ErrPartitioned

// Message classes (see transport.Class).
const (
	ClassApp = transport.ClassApp
	ClassGC  = transport.ClassGC
)

// NewStats returns an empty counter registry.
func NewStats() *Stats { return transport.NewStats() }

// StartWatch begins measuring simulated time on c.
func StartWatch(c *Clock) Stopwatch { return transport.StartWatch(c) }

// Options configures a Network.
type Options struct {
	Seed        int64  // RNG seed for fault injection
	SendLatency uint64 // simulated ticks charged per async delivery
	CallLatency uint64 // simulated ticks charged per synchronous leg

	// Faults is the initial fault-injection plan (drop/duplicate/delay
	// rates per class or kind, plus node-pair partitions); Faults.Default.Drop
	// is the plain loss rate. It can be replaced at runtime with
	// SetFaultPlan. The zero plan injects nothing and draws nothing from the
	// RNG.
	Faults FaultPlan
}

type pair struct{ from, to addr.NodeID }

func (p pair) String() string { return fmt.Sprintf("%v->%v", p.from, p.to) }

// entry is one queued message plus the earliest simulated tick at which it
// may be delivered (0 = immediately). Because entries are only ever appended
// and popped from the head, a delayed entry blocks its stream's head rather
// than being overtaken: per-pair FIFO survives delay injection.
type entry struct {
	m       Msg
	readyAt uint64
}

type queue struct {
	nextSeq uint64 // next sequence number to assign on this stream
	msgs    []entry
}

// Network is a deterministic simulated network connecting the cluster nodes.
// It is safe for concurrent use; handlers are invoked without internal locks
// held, so they may freely send and call.
type Network struct {
	mu       sync.Mutex
	opts     Options
	plan     FaultPlan // always the sanitized copy of the installed plan
	rng      *rand.Rand
	handlers map[addr.NodeID]Handler
	callees  map[addr.NodeID]CallHandler
	queues   map[pair]*queue

	clock *Clock
	stats *Stats

	// piggyHist aggregates piggybacked GC payload sizes (bytes) per
	// message that carried any; cached so the hot paths never hit the
	// observer's registry lock.
	piggyHist *obs.Histogram
}

// Network implements the full driver-paced transport contract.
var _ transport.Network = (*Network)(nil)

// New creates a network with the given options. The fault plan is
// sanitized (probabilities clamped to [0, 1]).
func New(opts Options) *Network {
	nw := &Network{
		opts:     opts,
		plan:     opts.Faults.Sanitized(),
		rng:      rand.New(rand.NewSource(opts.Seed)),
		handlers: make(map[addr.NodeID]Handler),
		callees:  make(map[addr.NodeID]CallHandler),
		queues:   make(map[pair]*queue),
		clock:    &Clock{},
		stats:    NewStats(),
	}
	nw.stats.Observer().SetTickSource(nw.clock.Now)
	nw.piggyHist = nw.stats.Observer().Hist("net.piggyback.bytes")
	return nw
}

// Clock returns the network's simulated clock.
func (nw *Network) Clock() *Clock { return nw.clock }

// Stats returns the network's counter registry.
func (nw *Network) Stats() *Stats { return nw.stats }

// Register installs the message handlers for a node. It must be called once
// per node before any traffic involves that node.
func (nw *Network) Register(id addr.NodeID, h Handler, c CallHandler) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.handlers[id] = h
	nw.callees[id] = c
}

// SetFaultPlan installs a fault-injection plan, replacing any previous one.
// The plan is sanitized and deep-copied, so the caller may keep mutating its
// own copy. Installing the zero plan disables injection and draws nothing
// from the RNG, keeping deterministic runs byte-for-byte identical to runs
// that never installed a plan.
func (nw *Network) SetFaultPlan(fp FaultPlan) {
	fp = fp.Sanitized()
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.plan = fp
}

// Faults returns a copy of the currently installed fault plan.
func (nw *Network) Faults() FaultPlan {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.plan.Sanitized()
}

// Send enqueues an asynchronous message on the FIFO stream from m.From to
// m.To, assigning its stream sequence number. The installed fault plan and
// partitions may drop, duplicate or delay the message:
//
//   - A dropped or partitioned message still consumes a sequence number,
//     so the receiver observes a gap, never a reorder.
//   - A duplicated message is enqueued twice with the SAME sequence number
//     (back to back on its stream), so the receiver sees a true wire-level
//     redelivery, exactly what §6.1's idempotency claim must absorb.
//   - A delayed message is held for DelayTicks of simulated time; it stays
//     at its position in the stream, so the pair's delivery order is never
//     reordered — the stream head simply becomes deliverable later.
//
// Every fault draw is gated on its rate being non-zero, so a zero plan
// consumes no RNG and leaves deterministic runs unchanged. Send reports
// whether the message was enqueued.
func (nw *Network) Send(m Msg) bool {
	// Causal span propagation: with tracing enabled, a message not already
	// carrying a span inherits the sender's current one. Disabled, this is
	// one atomic load and the envelope stays zero.
	if !m.Span.Valid() {
		if o := nw.stats.Observer(); o.Enabled() {
			m.Span = o.Recorder(m.From).CurrentSpan()
		}
	}
	nw.mu.Lock()
	p := pair{m.From, m.To}
	q := nw.queues[p]
	if q == nil {
		q = &queue{nextSeq: 1}
		nw.queues[p] = q
	}
	m.Seq = q.nextSeq
	q.nextSeq++

	partitioned := nw.plan.Partitioned(m.From, m.To)
	lost := false
	dup := false
	var readyAt, delayTicks uint64
	if !partitioned {
		r := nw.plan.RatesFor(m.Class, m.Kind)
		if r.Drop > 0 && nw.rng.Float64() < r.Drop {
			lost = true
		} else {
			if r.Dup > 0 && nw.rng.Float64() < r.Dup {
				dup = true
			}
			if r.Delay > 0 && r.DelayTicks > 0 && nw.rng.Float64() < r.Delay {
				delayTicks = r.DelayTicks
				readyAt = nw.clock.Now() + delayTicks
			}
		}
	}
	if !partitioned && !lost {
		q.msgs = append(q.msgs, entry{m: m, readyAt: readyAt})
		if dup {
			// The duplicate re-uses the original Seq: the receiver sees
			// the same numbered message twice, not a new message.
			q.msgs = append(q.msgs, entry{m: m, readyAt: readyAt})
		}
	}
	nw.mu.Unlock()

	nw.stats.Add("msg.sent."+m.Class.String(), 1)
	nw.stats.Add("msg.sent.kind."+m.Kind, 1)
	nw.stats.Add("bytes.sent."+m.Class.String(), int64(m.Bytes))
	if m.Piggyback > 0 {
		nw.piggyHist.Observe(int64(m.Piggyback))
	}
	if o := nw.stats.Observer(); o.Enabled() {
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
		default:
			if dup {
				r.Emit(obs.Event{Kind: obs.KDup, Class: obs.Class(m.Class), Msg: mk, From: m.From, To: m.To, A: int64(m.Seq)})
			}
			if readyAt > 0 {
				r.Emit(obs.Event{Kind: obs.KDelay, Class: obs.Class(m.Class), Msg: mk, From: m.From, To: m.To, B: int64(delayTicks)})
			}
		}
	}
	if partitioned {
		nw.stats.Add("msg.partitioned", 1)
		return false
	}
	if lost {
		nw.stats.Add("msg.lost", 1)
		return false
	}
	if dup {
		nw.stats.Add("msg.dup", 1)
	}
	if readyAt > 0 {
		nw.stats.Add("msg.delayed", 1)
	}
	return true
}

// Call performs a reliable synchronous request/reply exchange with the
// destination node's call handler. The request and the reply each count as
// one message of m.Class; piggybacked GC bytes are accounted separately so
// that the cost of riding GC information on consistency messages is visible.
//
// Calls are never dropped, duplicated or delayed by the fault plan — they
// model the reliable request/reply channel the consistency protocol is
// written against — but a partition severs them: Call then returns an error
// wrapping transport.ErrPartitioned, which callers must tolerate or surface.
func (nw *Network) Call(m Msg) (any, error) {
	if !m.Span.Valid() {
		if o := nw.stats.Observer(); o.Enabled() {
			m.Span = o.Recorder(m.From).CurrentSpan()
		}
	}
	nw.mu.Lock()
	h := nw.callees[m.To]
	lat := nw.opts.CallLatency
	partitioned := nw.plan.Partitioned(m.From, m.To)
	nw.mu.Unlock()
	o := nw.stats.Observer()
	if partitioned {
		nw.stats.Add("msg.partitioned", 1)
		if o.Enabled() {
			o.Recorder(m.From).Emit(obs.Event{Kind: obs.KPartition, Class: obs.Class(m.Class),
				Msg: obs.MsgKindOf(m.Kind), From: m.From, To: m.To})
		}
		return nil, fmt.Errorf("simnet: call %s %v -> %v: %w", m.Kind, m.From, m.To, transport.ErrPartitioned)
	}
	if h == nil {
		return nil, fmt.Errorf("simnet: no call handler registered for %v", m.To)
	}

	nw.clock.Advance(lat)
	nw.stats.Add("msg.sent."+m.Class.String(), 1)
	nw.stats.Add("msg.sent.kind."+m.Kind, 1)
	nw.stats.Add("bytes.sent."+m.Class.String(), int64(m.Bytes))
	nw.stats.Add("bytes.piggyback", int64(m.Piggyback))
	if m.Piggyback > 0 {
		nw.piggyHist.Observe(int64(m.Piggyback))
	}
	if o.Enabled() {
		o.Recorder(m.From).Emit(obs.Event{Kind: obs.KCall, Class: obs.Class(m.Class),
			Msg: obs.MsgKindOf(m.Kind), From: m.From, To: m.To, A: int64(m.Bytes), B: int64(m.Piggyback),
			Trace: m.Span.Trace, Span: m.Span.Span})
	}

	reply, replyBytes, err := h(m)

	nw.clock.Advance(lat)
	nw.stats.Add("msg.sent."+m.Class.String(), 1)
	nw.stats.Add("msg.sent.kind."+m.Kind+".reply", 1)
	nw.stats.Add("bytes.sent."+m.Class.String(), int64(replyBytes))
	if o.Enabled() {
		o.Recorder(m.From).Emit(obs.Event{Kind: obs.KCallReply, Class: obs.Class(m.Class),
			Msg: obs.MsgKindOf(m.Kind), From: m.To, To: m.From, A: int64(replyBytes),
			Trace: m.Span.Trace, Span: m.Span.Span})
	}
	return reply, err
}

// Pending reports the number of undelivered asynchronous messages.
func (nw *Network) Pending() int {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	n := 0
	for _, q := range nw.queues {
		n += len(q.msgs)
	}
	return n
}

// pop removes and returns the oldest deliverable message of the
// lowest-ordered non-empty stream accepted by keep. A stream whose head is
// still held by delay injection is skipped (head-of-line blocking keeps the
// stream FIFO); if every accepted stream is held, pop advances the clock to
// the earliest head's release tick so driver-paced delivery always makes
// progress. It must be called with nw.mu held.
func (nw *Network) pop(keep func(pair) bool) (Msg, Handler, bool) {
	now := nw.clock.Now()
	ready := func() []pair {
		var ps []pair
		for p, q := range nw.queues {
			if len(q.msgs) > 0 && keep(p) && q.msgs[0].readyAt <= now {
				ps = append(ps, p)
			}
		}
		return ps
	}
	ps := ready()
	if len(ps) == 0 {
		// No stream head is deliverable yet. If some accepted stream is
		// merely held, release the earliest head by advancing simulated
		// time; otherwise there is nothing to deliver.
		minReady, found := uint64(0), false
		for p, q := range nw.queues {
			if len(q.msgs) > 0 && keep(p) {
				if r := q.msgs[0].readyAt; !found || r < minReady {
					minReady, found = r, true
				}
			}
		}
		if !found {
			return Msg{}, nil, false
		}
		if minReady > now {
			nw.clock.Advance(minReady - now)
			now = minReady
		} else {
			// A concurrent driver advanced the clock between our two
			// scans; the heads are deliverable at the current tick.
			now = nw.clock.Now()
		}
		ps = ready()
		if len(ps) == 0 {
			return Msg{}, nil, false
		}
	}
	slices.SortFunc(ps, func(a, b pair) int {
		if c := cmp.Compare(a.from, b.from); c != 0 {
			return c
		}
		return cmp.Compare(a.to, b.to)
	})
	q := nw.queues[ps[0]]
	m := q.msgs[0].m
	q.msgs = q.msgs[1:]
	return m, nw.handlers[m.To], true
}

// dispatch charges the delivery latency, accounts the delivery and invokes
// the handler without network locks held.
func (nw *Network) dispatch(m Msg, h Handler) {
	nw.clock.Advance(nw.opts.SendLatency)
	nw.stats.Add("msg.delivered", 1)
	if o := nw.stats.Observer(); o.Enabled() {
		o.Recorder(m.To).Emit(obs.Event{Kind: obs.KDeliver, Class: obs.Class(m.Class),
			Msg: obs.MsgKindOf(m.Kind), From: m.From, To: m.To, A: int64(m.Bytes),
			Trace: m.Span.Trace, Span: m.Span.Span})
	}
	if h != nil {
		h(m)
	}
}

// Step delivers the oldest asynchronous message of one stream, chosen in a
// deterministic order across streams, and reports whether anything was
// delivered. The handler runs without network locks held.
func (nw *Network) Step() bool {
	nw.mu.Lock()
	m, h, ok := nw.pop(func(pair) bool { return true })
	nw.mu.Unlock()
	if !ok {
		return false
	}
	nw.dispatch(m, h)
	return true
}

// StepFor delivers the oldest asynchronous message destined to dst (lowest
// sender first among dst's non-empty streams) and reports whether anything
// was delivered. Because each (from, to) stream has a single queue, a driver
// that gives every destination exactly one draining goroutine preserves
// per-pair FIFO while delivering to different nodes concurrently.
func (nw *Network) StepFor(dst addr.NodeID) bool {
	nw.mu.Lock()
	m, h, ok := nw.pop(func(p pair) bool { return p.to == dst })
	nw.mu.Unlock()
	if !ok {
		return false
	}
	nw.dispatch(m, h)
	return true
}

// Run delivers queued asynchronous messages until none remain or limit
// deliveries have been made (limit <= 0 means no limit). It returns the
// number of messages delivered. Handlers may enqueue further messages, which
// Run also delivers.
func (nw *Network) Run(limit int) int {
	n := 0
	for limit <= 0 || n < limit {
		if !nw.Step() {
			break
		}
		n++
	}
	return n
}
