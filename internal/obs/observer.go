package obs

import (
	"cmp"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"bmx/internal/addr"
)

// Observer is the cluster-wide observability registry: one flight recorder
// per node, a set of named histograms, the global enable flag and the global
// event sequence. One Observer is attached to every transport.Stats, so any
// layer holding a Transport can reach it without new plumbing — exactly the
// way the flat counters already travel.
type Observer struct {
	enabled atomic.Bool
	seq     atomic.Uint64
	tick    atomic.Pointer[func() uint64]

	// Span machinery (span.go): the cluster-wide span ID sequence and the
	// per-op latency histogram cache (so closing a span skips the registry
	// lock).
	spanSeq   atomic.Uint64
	spanHists [numSpanOps]atomic.Pointer[Histogram]

	mu    sync.Mutex
	recs  map[addr.NodeID]*Recorder
	hists map[string]*Histogram
	ring  int
	fatal io.Writer

	// strict arms the debug asserts (span-stack goroutine checks, span.go).
	strict atomic.Bool

	fatalMu     sync.Mutex
	fatalDumped bool
}

// NewObserver returns a disabled observer with the default ring size.
// BMX_OBS_STRICT=1 in the environment arms the debug asserts from birth.
func NewObserver() *Observer {
	o := &Observer{
		recs:  make(map[addr.NodeID]*Recorder),
		hists: make(map[string]*Histogram),
		ring:  DefaultRingSize,
	}
	if v := os.Getenv("BMX_OBS_STRICT"); v != "" && v != "0" {
		o.strict.Store(true)
	}
	return o
}

// SetStrict arms (or disarms) the strict debug asserts: span attribution
// fails loudly instead of silently corrupting when the single-mutator-
// goroutine-per-node contract is broken. Also settable via BMX_OBS_STRICT.
func (o *Observer) SetStrict(on bool) {
	if o != nil {
		o.strict.Store(on)
	}
}

// Enable turns event recording on. Instrumentation is always compiled in;
// this flips the one atomic every fast path checks.
func (o *Observer) Enable() { o.enabled.Store(true) }

// Enabled reports whether events are being recorded.
func (o *Observer) Enabled() bool { return o != nil && o.enabled.Load() }

// SetTickSource installs the simulated-clock reader used to stamp events.
// Without one, events carry tick 0.
func (o *Observer) SetTickSource(f func() uint64) { o.tick.Store(&f) }

func (o *Observer) now() uint64 {
	if f := o.tick.Load(); f != nil {
		return (*f)()
	}
	return 0
}

// SetRingSize sets the per-node window size for rings not yet allocated
// (rings allocate lazily on each node's first recorded event).
func (o *Observer) SetRingSize(n int) {
	if n <= 0 {
		n = DefaultRingSize
	}
	o.mu.Lock()
	o.ring = n
	o.mu.Unlock()
}

func (o *Observer) ringSize() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.ring
}

// Recorder returns node id's flight recorder, creating it on first use.
// Layers cache the pointer; Emit on it is then lock-free while disabled.
// A nil Observer returns a nil Recorder, whose methods are all no-ops.
func (o *Observer) Recorder(id addr.NodeID) *Recorder {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	r, ok := o.recs[id]
	if !ok {
		r = &Recorder{o: o, node: id}
		o.recs[id] = r
	}
	return r
}

// Hist returns the named histogram, creating it on first use. Histograms
// record regardless of the event-recording flag (they are aggregates, like
// Stats counters, not a window). A nil Observer returns a nil Histogram,
// whose Observe is a no-op.
func (o *Observer) Hist(name string) *Histogram {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	h, ok := o.hists[name]
	if !ok {
		h = &Histogram{name: name}
		o.hists[name] = h
	}
	return h
}

// Histograms returns every registered histogram sorted by name.
func (o *Observer) Histograms() []*Histogram {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]*Histogram, 0, len(o.hists))
	for _, h := range o.hists {
		out = append(out, h)
	}
	slices.SortFunc(out, func(a, b *Histogram) int { return cmp.Compare(a.name, b.name) })
	return out
}

// recorders returns the current recorders, sorted by node.
func (o *Observer) recorders() []*Recorder {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]*Recorder, 0, len(o.recs))
	for _, r := range o.recs {
		out = append(out, r)
	}
	slices.SortFunc(out, func(a, b *Recorder) int { return cmp.Compare(a.node, b.node) })
	return out
}

// Events merges every node's retained window into one stream ordered by
// global emission sequence — the cluster-wide flight-recorder picture.
func (o *Observer) Events() []Event {
	var out []Event
	for _, r := range o.recorders() {
		out = append(out, r.Window()...)
	}
	slices.SortFunc(out, func(a, b Event) int { return cmp.Compare(a.Seq, b.Seq) })
	return out
}

// SetFatalSink directs fatal flight-recorder dumps to w (default: stderr).
func (o *Observer) SetFatalSink(w io.Writer) {
	o.mu.Lock()
	o.fatal = w
	o.mu.Unlock()
}

func (o *Observer) fatalSink() io.Writer {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.fatal == nil {
		return os.Stderr
	}
	return o.fatal
}

// Fatal records a fatal protocol error at node id and, if recording is
// enabled, dumps the cluster-wide recent event window to the fatal sink —
// the flight recorder's black-box readout. The dump is written once per
// process unless ResetFatalOnce is called (a cascade of errors from one
// root cause should not bury the first window under later ones).
func (o *Observer) Fatal(id addr.NodeID, reason string) {
	if o == nil {
		return
	}
	o.Recorder(id).Emit(Event{Kind: KFatal, Class: ClassNone})
	if !o.enabled.Load() {
		return
	}
	o.fatalMu.Lock()
	defer o.fatalMu.Unlock()
	if o.fatalDumped {
		return
	}
	o.fatalDumped = true
	w := o.fatalSink()
	fmt.Fprintf(w, "\n==== flight recorder: fatal at %v: %s ====\n", id, reason)
	Dump(w, o.Events())
	fmt.Fprintf(w, "==== end flight recorder ====\n")
}

// ResetFatalOnce re-arms the one-dump-per-process latch (tests).
func (o *Observer) ResetFatalOnce() {
	o.fatalMu.Lock()
	o.fatalDumped = false
	o.fatalMu.Unlock()
}
