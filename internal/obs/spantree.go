package obs

import (
	"cmp"
	"slices"

	"bmx/internal/addr"
)

// Cross-process span-tree reconstruction: the library half of
// `bmxstat -spans`. Input is any []Event — typically the N per-process
// NDJSON traces read back and merged by Lamport tick — and output is one
// tree per trace ID with hop-level latency attribution and the per-trace
// §4.4 verdict (every GC-class message causally inside the trace, named).

// Span is one reconstructed span: its identity, what it measured, where
// it ran, its timing, its children, and every non-span event attributed
// to it.
type Span struct {
	ID     uint64
	Parent uint64
	Trace  uint64
	Op     SpanOp
	Node   addr.NodeID
	OID    addr.OID

	Begin, End uint64 // simulated ticks at span.begin / span.end
	Elapsed    int64  // recorder-computed elapsed ticks (span.end's B)
	BeginSeq   uint64 // per-process emission order of span.begin

	HasBegin, HasEnd bool

	Children []*Span
	Events   []Event // non-span events stamped with this span
}

// SelfTicks is the span's elapsed time minus its children's — the time
// attributable to this hop alone.
func (s *Span) SelfTicks() int64 {
	self := s.Elapsed
	for _, c := range s.Children {
		self -= c.Elapsed
	}
	if self < 0 {
		self = 0
	}
	return self
}

// SpanTrace is one reconstructed trace: the forest of spans sharing a
// trace ID (normally a single root).
type SpanTrace struct {
	ID    uint64
	Roots []*Span
	Spans map[uint64]*Span
	// Orphans are spans naming a parent that never appeared in the trace —
	// a stitching gap (an event ring wrapped, or a process's dump was cut
	// mid-operation). A complete trace has none.
	Orphans []*Span
}

// Complete reports whether the trace stitched fully: every span has both
// its begin and end event, and no span is orphaned.
func (t *SpanTrace) Complete() bool {
	if len(t.Orphans) > 0 || len(t.Roots) == 0 {
		return false
	}
	for _, s := range t.Spans {
		if !s.HasBegin || !s.HasEnd {
			return false
		}
	}
	return true
}

// walk visits every span of the trace depth-first, roots first.
func (t *SpanTrace) walk(f func(*Span)) {
	var rec func(*Span)
	rec = func(s *Span) {
		f(s)
		for _, c := range s.Children {
			rec(c)
		}
	}
	for _, r := range t.Roots {
		rec(r)
	}
	for _, o := range t.Orphans {
		rec(o)
	}
}

// AcquireSpan returns the trace's outermost mutator acquire span, nil if
// the trace contains none.
func (t *SpanTrace) AcquireSpan() *Span {
	var found *Span
	t.walk(func(s *Span) {
		if found == nil && (s.Op == OpAcquireR || s.Op == OpAcquireW) {
			found = s
		}
	})
	return found
}

// CrossProcess reports whether the trace's acquire (if any) left its
// node: it contains a serve.acquire span on a different node than the
// requester — the "request → forward(s) → grant" shape.
func (t *SpanTrace) CrossProcess() bool {
	acq := t.AcquireSpan()
	if acq == nil {
		return false
	}
	cross := false
	t.walk(func(s *Span) {
		if s.Op == OpServeAcquire && s.Node != acq.Node {
			cross = true
		}
	})
	return cross
}

// TraceVerdict is the per-trace form of the paper's §4.4 claim: every
// GC-class message event causally inside the trace's critical-path
// spans, named — not just counted. Scion-messages are split out: the
// write barrier's scion-message is the one sanctioned GC-class message
// on the mutator's critical path (§3.2).
type TraceVerdict struct {
	// GCMessages holds GC-class send/call events inside critical-path
	// spans, scion-messages excluded. §4.4 demands this be empty.
	GCMessages []Event
	// ScionMessages are the sanctioned write-barrier scion sends.
	ScionMessages []Event
}

// Clean reports whether the trace upholds §4.4.
func (v TraceVerdict) Clean() bool { return len(v.GCMessages) == 0 }

// Verdict computes the trace's §4.4 verdict. A message is "causally
// inside a critical-path span" when its event was emitted on the
// application's critical path (FlagCritical) and attributed to one of
// the trace's spans.
func (t *SpanTrace) Verdict() TraceVerdict {
	var v TraceVerdict
	t.walk(func(s *Span) {
		for _, e := range s.Events {
			if e.Class != ClassGC || !e.Critical() {
				continue
			}
			if e.Kind != KSend && e.Kind != KCall {
				continue
			}
			if e.Msg == MsgScion {
				v.ScionMessages = append(v.ScionMessages, e)
			} else {
				v.GCMessages = append(v.GCMessages, e)
			}
		}
	})
	return v
}

// BuildSpanTraces reconstructs the span forest of an event stream.
// Events should already be in causal order (the Lamport-tick merge
// bmxstat performs across per-process traces); intra-trace children are
// ordered by begin tick, then per-process sequence.
func BuildSpanTraces(evs []Event) []*SpanTrace {
	traces := map[uint64]*SpanTrace{}
	trace := func(id uint64) *SpanTrace {
		t := traces[id]
		if t == nil {
			t = &SpanTrace{ID: id, Spans: map[uint64]*Span{}}
			traces[id] = t
		}
		return t
	}
	span := func(t *SpanTrace, id uint64) *Span {
		s := t.Spans[id]
		if s == nil {
			s = &Span{ID: id, Trace: t.ID}
			t.Spans[id] = s
		}
		return s
	}
	for _, e := range evs {
		if e.Span == 0 {
			continue
		}
		t := trace(e.Trace)
		s := span(t, e.Span)
		switch e.Kind {
		case KSpanBegin:
			s.HasBegin = true
			s.Parent = e.SParent
			s.Op = e.Op
			s.Node = e.Node
			s.OID = e.OID
			s.Begin = e.Tick
			s.BeginSeq = e.Seq
		case KSpanEnd:
			s.HasEnd = true
			s.End = e.Tick
			s.Elapsed = e.B
			if s.Parent == 0 {
				s.Parent = e.SParent
			}
			if s.Op == OpNone {
				s.Op = e.Op
			}
		default:
			s.Events = append(s.Events, e)
		}
	}
	out := make([]*SpanTrace, 0, len(traces))
	for _, t := range traces {
		for _, s := range t.Spans {
			switch p := t.Spans[s.Parent]; {
			case s.Parent == 0:
				t.Roots = append(t.Roots, s)
			case p != nil:
				p.Children = append(p.Children, s)
			default:
				t.Orphans = append(t.Orphans, s)
			}
		}
		byStart := func(a, b *Span) int {
			if c := cmp.Compare(a.Begin, b.Begin); c != 0 {
				return c
			}
			if c := cmp.Compare(a.BeginSeq, b.BeginSeq); c != 0 {
				return c
			}
			return cmp.Compare(a.ID, b.ID)
		}
		for _, s := range t.Spans {
			slices.SortFunc(s.Children, byStart)
		}
		slices.SortFunc(t.Roots, byStart)
		slices.SortFunc(t.Orphans, byStart)
		out = append(out, t)
	}
	slices.SortFunc(out, func(a, b *SpanTrace) int {
		aT, bT := traceStart(a), traceStart(b)
		if c := cmp.Compare(aT, bT); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return out
}

func traceStart(t *SpanTrace) uint64 {
	if len(t.Roots) > 0 {
		return t.Roots[0].Begin
	}
	if len(t.Orphans) > 0 {
		return t.Orphans[0].Begin
	}
	return 0
}

// SpanOpStats aggregates per-op span latency across traces — the text
// flamegraph's per-operation-kind breakdown.
type SpanOpStats struct {
	Op    SpanOp
	Count int
	Ticks HistSnapshot
	Self  int64 // summed self ticks (elapsed minus children)
}

// SpanOpsOf condenses per-op latency attribution over a trace forest.
func SpanOpsOf(traces []*SpanTrace) []SpanOpStats {
	hists := map[SpanOp]*Histogram{}
	self := map[SpanOp]int64{}
	count := map[SpanOp]int{}
	for _, t := range traces {
		t.walk(func(s *Span) {
			if !s.HasEnd {
				return
			}
			h := hists[s.Op]
			if h == nil {
				h = &Histogram{name: "span.ticks." + s.Op.String()}
				hists[s.Op] = h
			}
			h.Observe(s.Elapsed)
			self[s.Op] += s.SelfTicks()
			count[s.Op]++
		})
	}
	out := make([]SpanOpStats, 0, len(hists))
	for op, h := range hists {
		out = append(out, SpanOpStats{Op: op, Count: count[op], Ticks: h.Snapshot(), Self: self[op]})
	}
	slices.SortFunc(out, func(a, b SpanOpStats) int {
		if c := cmp.Compare(b.Ticks.Sum, a.Ticks.Sum); c != 0 {
			return c
		}
		return cmp.Compare(a.Op, b.Op)
	})
	return out
}

// SlowestAcquires returns the k slowest completed mutator acquire spans
// (with their traces, so the caller can render the hop-by-hop subtree),
// slowest first.
func SlowestAcquires(traces []*SpanTrace, k int) []struct {
	Span  *Span
	Trace *SpanTrace
} {
	type sa = struct {
		Span  *Span
		Trace *SpanTrace
	}
	var all []sa
	for _, t := range traces {
		t.walk(func(s *Span) {
			if (s.Op == OpAcquireR || s.Op == OpAcquireW) && s.HasEnd {
				all = append(all, sa{s, t})
			}
		})
	}
	slices.SortFunc(all, func(a, b sa) int {
		if c := cmp.Compare(b.Span.Elapsed, a.Span.Elapsed); c != 0 {
			return c
		}
		return cmp.Compare(a.Span.ID, b.Span.ID)
	})
	if k > 0 && len(all) > k {
		all = all[:k]
	}
	return all
}
