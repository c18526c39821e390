// Package obs is the BMX flight recorder: a concurrency-safe, per-node
// structured event recorder plus latency/size histograms. It extends — it
// does not replace — the flat counters of transport.Stats: counters answer
// "how many", the event stream answers "in what order, between whom, and on
// whose critical path", which is what the paper's structural claims (§5: the
// collector acquires no token, ever; GC information rides on consistency
// messages, adding no message to the application's critical path) and the
// diagnosis of routing anomalies (a repeating node sequence in an ownerPtr
// chain) actually need.
//
// Recording is off by default and gated by one atomic flag: the disabled
// fast path is a single atomic load and no allocation, so instrumentation
// can stay compiled into every hot path (see BenchmarkTraceOverhead).
// Each node owns a fixed-size ring buffer; when the ring wraps, the oldest
// events are overwritten — exactly the semantics of a flight recorder, which
// keeps the recent window, not the full history.
package obs

import (
	"fmt"

	"bmx/internal/addr"
)

// Kind classifies an event. The taxonomy mirrors the system's layers:
// dsm.* for the consistency protocol, net.* for the transport, gc.* for the
// collector phases, cl.* for cluster assembly operations.
type Kind uint8

// Event kinds.
const (
	KNone Kind = iota

	// DSM protocol (internal/dsm).
	KAcquireStart  // node wants a token: OID, A=mode (1 r, 2 w)
	KAcquireHop    // a node forwards an acquire along its ownerPtr: From=requester, To=next hop, A=hop index
	KAcquireGrant  // token granted at this node: From=requester, A=mode, B=hops travelled
	KAcquireDone   // requester completed: A=mode, B=elapsed ticks
	KAcquireLocal  // requester completed on the local fast path (cached token)
	KReroute       // chain failed; retry through the manager's hint: To=hint
	KMaxHops       // ownerPtr chain exceeded the hop bound (fatal): A=hops
	KInvalidate    // read copy invalidated here: From=writer side
	KRelease       // critical section ended
	KOwnerTransfer // this node became owner: OID
	KRouteDangling // acquire found no route (fatal): OID
	KRouteCycle    // stale ownerPtr pointed back into the chain; routed around: From=stale target, To=chosen candidate
	KReestablish   // object proven unowned everywhere; re-created here as owner: A=mode

	// Transport (internal/simnet).
	KSend      // async message enqueued: From, To, A=bytes, B=piggyback bytes
	KDeliver   // async message delivered at Node: From, A=bytes
	KDrop      // async message dropped by loss/fault injection
	KDup       // async message duplicated in flight
	KDelay     // async message held for B ticks
	KPartition // message severed by a partition
	KCall      // synchronous call issued: From, To, A=bytes, B=piggyback bytes
	KCallReply // synchronous reply received: A=reply bytes

	// Collector (internal/core).
	KGCStart    // collection begins: A=bunches, B=1 if group collection
	KGCRoots    // flip pause 1 done: A=root count, B=pause ticks
	KGCTrace    // trace done: A=objects scanned
	KGCCopy     // one object evacuated: OID, A=words, owned flag set
	KGCFlip     // flip pause 2 done: A=log entries replayed, B=pause ticks
	KGCReclaim  // one object reclaimed: OID, owned flag = owner-side reclaim
	KGCTables   // reachability tables sent: A=destinations
	KGCDone     // collection ends: A=dead, B=total ticks
	KScionClean // scion cleaner applied a table: From=sender, A=generation, B=deletions
	KReclaimSeg // from-space segment freed: A=words

	// Cluster assembly (internal/cluster).
	KMapBunch // bunch replica adopted here: From=serving node, A=bunch, B=segments fetched
	KSnapshot // observer snapshot taken (marks where a dump was cut)
	KFatal    // fatal protocol error; the flight-recorder window was dumped

	// Causal span tracing (see span.go). Span events carry the span identity
	// in the Trace/Span/SParent fields and the operation in Op.
	KSpanBegin // span opened: Op says what it measures
	KSpanEnd   // span closed: B=elapsed simulated ticks
)

var kindNames = [...]string{
	KNone:          "none",
	KAcquireStart:  "dsm.acquire.start",
	KAcquireHop:    "dsm.acquire.hop",
	KAcquireGrant:  "dsm.acquire.grant",
	KAcquireDone:   "dsm.acquire.done",
	KAcquireLocal:  "dsm.acquire.local",
	KReroute:       "dsm.reroute",
	KMaxHops:       "dsm.maxHops",
	KInvalidate:    "dsm.invalidate",
	KRelease:       "dsm.release",
	KOwnerTransfer: "dsm.ownerTransfer",
	KRouteDangling: "dsm.routeDangling",
	KRouteCycle:    "dsm.route.cycle",
	KReestablish:   "dsm.reestablish",
	KSend:          "net.send",
	KDeliver:       "net.deliver",
	KDrop:          "net.drop",
	KDup:           "net.dup",
	KDelay:         "net.delay",
	KPartition:     "net.partition",
	KCall:          "net.call",
	KCallReply:     "net.callReply",
	KGCStart:       "gc.start",
	KGCRoots:       "gc.roots",
	KGCTrace:       "gc.trace",
	KGCCopy:        "gc.copy",
	KGCFlip:        "gc.flip",
	KGCReclaim:     "gc.reclaim",
	KGCTables:      "gc.tables",
	KGCDone:        "gc.done",
	KScionClean:    "gc.scionClean",
	KReclaimSeg:    "gc.reclaimSeg",
	KMapBunch:      "cl.mapBunch",
	KSnapshot:      "cl.snapshot",
	KFatal:         "fatal",
	KSpanBegin:     "span.begin",
	KSpanEnd:       "span.end",
}

// kindPeers marks the kinds whose From/To fields carry meaning; for every
// other kind the peer fields are ignored when rendering (the Event zero
// value would otherwise claim a real node as both peers, since NodeID's
// zero value is node N1, not NoNode).
var kindPeers = [...]bool{
	KAcquireHop:    true,
	KAcquireGrant:  true,
	KReroute:       true,
	KInvalidate:    true,
	KOwnerTransfer: true,
	KRouteCycle:    true,
	KSend:          true,
	KDeliver:       true,
	KDrop:          true,
	KDup:           true,
	KDelay:         true,
	KPartition:     true,
	KCall:          true,
	KCallReply:     true,
	KScionClean:    true,
	KMapBunch:      true,
}

func (k Kind) hasPeers() bool { return int(k) < len(kindPeers) && kindPeers[k] }

// String names the kind with its layer prefix.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Class attributes an event to application or collector traffic. It mirrors
// transport.Class without importing it (transport imports obs, not the
// reverse); ClassNone marks events that are not messages.
type Class uint8

// Event classes.
const (
	ClassApp  Class = 0
	ClassGC   Class = 1
	ClassNone Class = 255
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassApp:
		return "app"
	case ClassGC:
		return "gc"
	case ClassNone:
		return "-"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// MsgKind compactly identifies the wire-message kind a net.* event carries,
// so probes can tell messages apart without strings in the fixed-size Event
// (e.g. the write barrier's scion-message, the one sanctioned GC-class
// message on the mutator's critical path, §3.2).
type MsgKind uint8

// Wire-message kinds (the transport kind strings, interned).
const (
	MsgNone MsgKind = iota // not a message event
	MsgAcquire
	MsgInvalidate
	MsgLocBatch
	MsgScion
	MsgTable
	MsgLocFlush
	MsgCopyOut
	MsgAddrChange
	MsgDeadNotice
	MsgMapBunch
	MsgOther // a kind string this table does not know
)

var msgNames = [...]string{
	MsgNone:       "-",
	MsgAcquire:    "dsm.acquire",
	MsgInvalidate: "dsm.invalidate",
	MsgLocBatch:   "dsm.locBatch",
	MsgScion:      "gc.scion",
	MsgTable:      "gc.table",
	MsgLocFlush:   "gc.locFlush",
	MsgCopyOut:    "gc.copyOut",
	MsgAddrChange: "gc.addrChange",
	MsgDeadNotice: "gc.deadNotice",
	MsgMapBunch:   "cl.mapBunch",
	MsgOther:      "other",
}

// MsgKindOf interns a transport kind string.
func MsgKindOf(kind string) MsgKind {
	for m, name := range msgNames {
		if m != int(MsgNone) && m != int(MsgOther) && name == kind {
			return MsgKind(m)
		}
	}
	return MsgOther
}

// String names the wire-message kind.
func (m MsgKind) String() string {
	if int(m) < len(msgNames) {
		return msgNames[m]
	}
	return fmt.Sprintf("msg(%d)", uint8(m))
}

// Event flags.
const (
	// FlagCritical marks an event emitted while its node was on the
	// application's critical path: inside a mutator operation, or serving a
	// synchronous application-class call (which a remote mutator is blocked
	// on). The paper's "no extra messages" claim is a statement about
	// exactly these events.
	FlagCritical uint8 = 1 << iota
	// FlagOwned marks a collector event concerning an object this node
	// owned at the time (the owner moves objects; replicas only scan).
	FlagOwned
	// FlagGroup marks a group (GGC) rather than bunch (BGC) collection.
	FlagGroup
)

// Event is one recorded occurrence. The struct is fixed-size — no pointers,
// no strings — so emitting one is a handful of word stores into a
// preallocated ring slot: no allocation on the hot path.
type Event struct {
	Seq   uint64      // observer-global emission order
	Tick  uint64      // simulated time at emission
	Node  addr.NodeID // emitting node
	Kind  Kind
	Class Class
	Flags uint8
	Msg   MsgKind     // wire-message kind for net.* events, MsgNone otherwise
	OID   addr.OID    // object concerned, 0 if none
	From  addr.NodeID // kind-specific peer (sender, requester), NoNode if none
	To    addr.NodeID // kind-specific peer (destination, next hop), NoNode if none
	A, B  int64       // kind-specific scalars (see the kind constants)

	// Span attribution (see span.go). For span.begin/span.end events these
	// identify the span itself; for every other kind they name the span the
	// event occurred inside (the emitting node's innermost open span, or the
	// span carried on the wire message for net.* events). All zero when the
	// event happened outside any span.
	Trace   uint64
	Span    uint64
	SParent uint64
	Op      SpanOp // what a span event measures, OpNone otherwise
}

// Critical reports whether the event was emitted on the application's
// critical path.
func (e Event) Critical() bool { return e.Flags&FlagCritical != 0 }

// Owned reports whether the event concerns an object owned by the emitting
// node.
func (e Event) Owned() bool { return e.Flags&FlagOwned != 0 }

// String renders the event as one line of a flight-recorder dump.
func (e Event) String() string {
	s := fmt.Sprintf("%8d %6d %-4v %-18s", e.Seq, e.Tick, e.Node, e.Kind)
	if e.Class != ClassNone {
		s += fmt.Sprintf(" %-3s", e.Class)
	} else {
		s += "  - "
	}
	if !e.OID.IsNil() {
		s += fmt.Sprintf(" %-6v", e.OID)
	} else {
		s += " -     "
	}
	if e.Kind.hasPeers() && (e.From != addr.NoNode || e.To != addr.NoNode) {
		s += fmt.Sprintf(" %v->%v", e.From, e.To)
	}
	if e.Msg != MsgNone {
		s += fmt.Sprintf(" msg=%v", e.Msg)
	}
	if e.A != 0 || e.B != 0 {
		s += fmt.Sprintf(" a=%d b=%d", e.A, e.B)
	}
	if e.Op != OpNone {
		s += fmt.Sprintf(" op=%v", e.Op)
	}
	if e.Span != 0 {
		s += fmt.Sprintf(" trace=%x span=%x", e.Trace, e.Span)
		if e.SParent != 0 {
			s += fmt.Sprintf(" parent=%x", e.SParent)
		}
	}
	if e.Critical() {
		s += " [crit]"
	}
	if e.Owned() {
		s += " [owned]"
	}
	if e.Flags&FlagGroup != 0 {
		s += " [group]"
	}
	return s
}
