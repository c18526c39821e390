package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Span is one timed interval at a layer boundary, recorded by the harness
// around a call into the program. Start and End are nanoseconds since the
// tracer was made; Parent is the index of the enclosing span (-1 for a
// root); Op is the index of the mutator op the span belongs to (-1 for
// background work between ops: syncs, drains, collections).
type Span struct {
	Name       uint16
	Parent, Op int32
	Start, End int64
}

// Tracer records spans into a preallocated slice and writes them out when
// the workload ends. It is used from the single client goroutine only (on
// simnet every handler runs on the caller's goroutine), so it takes no
// lock. All methods are no-ops on a nil Tracer: the untraced loop pays one
// nil check per call site.
type Tracer struct {
	t0    time.Time
	spans []Span
	stack []int32
	op    int32
	names []string
	index map[string]uint16
}

// NewTracer preallocates room for capacity spans.
func NewTracer(capacity int) *Tracer {
	return &Tracer{
		t0:    time.Now(),
		spans: make([]Span, 0, capacity),
		stack: make([]int32, 0, 16),
		op:    -1,
		index: make(map[string]uint16),
	}
}

// SetOp names the mutator op that spans begun from now on belong to.
func (t *Tracer) SetOp(op int) {
	if t != nil {
		t.op = int32(op)
	}
}

// ID interns a span name. Call sites intern their names once, before the
// loop, so Begin does no map lookup.
func (t *Tracer) ID(name string) uint16 {
	if t == nil {
		return 0
	}
	id, ok := t.index[name]
	if !ok {
		id = uint16(len(t.names))
		t.names = append(t.names, name)
		t.index[name] = id
	}
	return id
}

// Begin opens a span under whichever span is open and returns its index.
func (t *Tracer) Begin(id uint16) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, Span{Name: id, Parent: parent, Op: t.op, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, i)
	return i
}

// End closes span i, which must be the innermost open one.
func (t *Tracer) End(i int32) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// SelfTimes returns, for every span, its duration minus the time its child
// spans cover. Children of one parent never overlap: they are recorded by
// one goroutine.
func (t *Tracer) SelfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		d := s.End - s.Start
		self[i] += d
		if s.Parent >= 0 {
			self[s.Parent] -= d
		}
	}
	return self
}

// LayerTotal is the self time and span count of one span name.
type LayerTotal struct {
	Name   string `json:"name"`
	SelfNS int64  `json:"self_ns"`
	Count  int    `json:"count"`
}

// Totals sums self time by span name, in first-seen order.
func (t *Tracer) Totals() []LayerTotal {
	out := make([]LayerTotal, len(t.names))
	for i, n := range t.names {
		out[i].Name = n
	}
	for i, self := range t.SelfTimes() {
		lt := &out[t.spans[i].Name]
		lt.SelfNS += self
		lt.Count++
	}
	return out
}

// traceHeader is the first line of a trace file.
type traceHeader struct {
	Workload   string           `json:"workload"`
	Seed       int64            `json:"seed"`
	Ops        int              `json:"ops"`
	StreamHash string           `json:"stream_hash"`
	Spans      int              `json:"spans"`
	Counters   map[string]int64 `json:"counter_deltas"`
	Layers     []LayerTotal     `json:"layer_self_time"`
}

// WriteNDJSON writes a header line (run identity, Stats snapshot deltas and
// per-name self-time totals) followed by one line per span.
func (t *Tracer) WriteNDJSON(w io.Writer, hdr traceHeader) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	hdr.Spans = len(t.spans)
	hdr.Layers = t.Totals()
	line, err := json.Marshal(hdr)
	if err != nil {
		return err
	}
	bw.Write(line)
	bw.WriteByte('\n')
	for i, s := range t.spans {
		fmt.Fprintf(bw, `{"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"op":%d}`+"\n",
			i, t.names[s.Name], s.Start, s.End, s.Parent, s.Op)
	}
	return bw.Flush()
}
