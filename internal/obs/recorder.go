package obs

import (
	"sync"
	"sync/atomic"

	"bmx/internal/addr"
)

// DefaultRingSize is the per-node event window kept when tracing is enabled.
const DefaultRingSize = 4096

// Recorder is one node's flight recorder: a fixed-size ring of events. It is
// safe for concurrent use. When recording is disabled the Emit fast path is
// a single atomic load; when enabled it is a mutex and a struct store into a
// preallocated slot — no allocation either way.
type Recorder struct {
	o    *Observer
	node addr.NodeID

	// crit counts how deep this node currently is in application critical
	// sections (mutator operations plus app-class calls being served). It
	// is tracked even while recording is disabled, so enabling tracing
	// mid-run flags events correctly from the first one.
	crit atomic.Int64

	mu    sync.Mutex
	buf   []Event
	total uint64 // events ever emitted (buf holds the last len(buf) of them)
	// spans is the node's stack of open spans (see span.go): the top is the
	// current span, stamped onto outgoing messages and onto events emitted
	// without explicit span attribution. Only touched while enabled.
	spans []SpanContext
	// spanGids runs parallel to spans; while the observer is strict it
	// holds the ID of the goroutine that opened each span, so a second
	// concurrent mutator goroutine on one node fails loudly (strict.go)
	// instead of silently corrupting span attribution.
	spanGids []int64
}

// EnterCritical marks the start of an application critical-path section on
// this node; events emitted until the matching ExitCritical carry
// FlagCritical, whatever layer emits them through this recorder (a node
// serving an application-class call opens a section of its own, so the
// serving side is marked too). Sections nest. The
// depth is tracked even while recording is disabled (one atomic add each
// way), so enabling recording in the middle of a run is sound: the first
// events recorded already see the right depth.
func (r *Recorder) EnterCritical() {
	if r != nil {
		r.crit.Add(1)
	}
}

// ExitCritical ends the innermost critical-path section.
func (r *Recorder) ExitCritical() {
	if r != nil {
		r.crit.Add(-1)
	}
}

// Emit records e, stamping its sequence number, simulated tick, node and
// critical-path flag. It is a no-op (one atomic load) while recording is
// disabled, and never allocates once the ring exists.
func (r *Recorder) Emit(e Event) {
	if r == nil || !r.o.enabled.Load() {
		return
	}
	e.Node = r.node
	e.Seq = r.o.seq.Add(1)
	e.Tick = r.o.now()
	if r.crit.Load() > 0 {
		e.Flags |= FlagCritical
	}
	r.mu.Lock()
	// Attribute the event to the node's current span unless the caller
	// already set one (span.begin/end carry their own identity; transports
	// stamp net.* events with the span that rode the message).
	if e.Span == 0 && len(r.spans) > 0 {
		top := r.spans[len(r.spans)-1]
		e.Trace, e.Span = top.Trace, top.Span
	}
	if r.buf == nil {
		r.buf = make([]Event, r.o.ringSize())
	}
	r.buf[r.total%uint64(len(r.buf))] = e
	r.total++
	r.mu.Unlock()
}

// Window returns the retained events in emission order (oldest first). The
// slice is a copy; the recorder keeps running.
func (r *Recorder) Window() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.buf == nil || r.total == 0 {
		return nil
	}
	n := uint64(len(r.buf))
	if r.total < n {
		out := make([]Event, r.total)
		copy(out, r.buf[:r.total])
		return out
	}
	out := make([]Event, 0, n)
	start := r.total % n
	out = append(out, r.buf[start:]...)
	out = append(out, r.buf[:start]...)
	return out
}
