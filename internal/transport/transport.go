// Package transport defines the communication substrate the BMX protocol
// layers are written against. The DSM engine (internal/dsm), the collector
// (internal/core) and the cluster assembly (internal/cluster) speak only to
// these interfaces; internal/simnet provides the first implementation (a
// deterministic simulated network), and alternative substrates (real
// sockets, shared memory, RDMA) can be dropped in without touching the
// protocol or collector code.
//
// The package also owns the two genuinely shared measurement services every
// substrate must provide — the simulated tick Clock and the Stats counter
// registry — both safe for concurrent use.
package transport

import (
	"fmt"

	"bmx/internal/addr"
	"bmx/internal/obs"
)

// Class attributes a message to the application or to the collector.
type Class int

const (
	// ClassApp marks consistency-protocol traffic performed on behalf of
	// applications (token requests, grants, invalidations).
	ClassApp Class = iota
	// ClassGC marks traffic that exists only for garbage collection
	// (table messages, scion-messages, address-change rounds).
	ClassGC
)

// String names the class for stats keys.
func (c Class) String() string {
	switch c {
	case ClassApp:
		return "app"
	case ClassGC:
		return "gc"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Valid reports whether c is one of the defined classes. Decoders of
// outside input check it: handlers and the §4.4 probes branch on the class,
// so an undefined value must never reach them.
func (c Class) Valid() bool { return c == ClassApp || c == ClassGC }

// Msg is one message on the transport.
type Msg struct {
	From, To  addr.NodeID
	Kind      string // protocol-level message kind, e.g. "dsm.acquireWrite"
	Class     Class
	Seq       uint64 // per (From,To) stream sequence number
	Payload   any
	Bytes     int // simulated payload size in bytes
	Piggyback int // bytes of GC information riding on an app message

	// Span is the causal span riding the message (obs/span.go). Senders
	// normally leave it zero: with tracing enabled the transport stamps the
	// sender's current span before the message leaves, and the serving side
	// starts a child span under it. An explicitly set non-zero Span is
	// preserved verbatim. With tracing off it stays zero and costs nothing
	// on the wire (the TCP codec omits the zero span byte-for-byte).
	Span obs.SpanContext
}

// Handler consumes an asynchronous message.
type Handler func(Msg)

// CallHandler serves a synchronous request and produces a reply payload.
// The returned reply size is the simulated size in bytes of the reply.
type CallHandler func(Msg) (reply any, replyBytes int, err error)

// Transport is what the protocol layers require of a communication
// substrate:
//
//   - Send enqueues an asynchronous, possibly unreliable, per-pair-FIFO
//     message (the scion cleaner requires FIFO, §6.1; loss tolerance is a
//     design property of the tables). It reports whether the message was
//     accepted (false when dropped by loss injection).
//   - Call performs a reliable synchronous request/reply exchange with the
//     destination's call handler. Handlers may themselves Send and Call.
//   - Register installs a node's handlers; it must be called once per node
//     before any traffic involves that node.
//   - Clock and Stats expose the shared tick clock and counter registry the
//     cost model and the paper's measured claims are built on.
//
// Implementations must be safe for concurrent use by multiple nodes and
// must invoke handlers without internal transport locks held, so that a
// handler can freely send and call.
type Transport interface {
	Send(m Msg) bool
	Call(m Msg) (any, error)
	Register(id addr.NodeID, h Handler, c CallHandler)
	Clock() *Clock
	Stats() *Stats
}

// Network extends Transport with the explicit delivery control a simulated
// (or otherwise driver-paced) substrate offers the cluster driver. A real
// network would deliver continuously and implement these as no-ops.
type Network interface {
	Transport

	// Step delivers one pending asynchronous message, chosen in a
	// deterministic order, and reports whether anything was delivered.
	Step() bool
	// StepFor delivers the oldest pending asynchronous message destined to
	// dst, and reports whether anything was delivered. With one consumer
	// per destination it preserves per-pair FIFO under concurrent drains.
	StepFor(dst addr.NodeID) bool
	// Run delivers pending messages until none remain (limit <= 0) or
	// limit deliveries were made, returning the count.
	Run(limit int) int
	// Pending reports the number of undelivered asynchronous messages.
	Pending() int
	// SetLossRate changes the asynchronous drop probability at runtime.
	// The rate is clamped to [0, 1] (NaN and negative values become 0) and
	// the effective rate actually installed is returned.
	SetLossRate(p float64) float64
	// SetFaultPlan installs a fault-injection plan (drop/duplicate/delay
	// rates and node-pair partitions). The plan is sanitized and copied;
	// installing the zero FaultPlan disables injection entirely and must
	// leave deterministic runs byte-for-byte identical to runs that never
	// installed a plan.
	SetFaultPlan(fp FaultPlan)
	// Faults returns a copy of the currently installed fault plan.
	Faults() FaultPlan
}
