package obs

import (
	"bytes"
	"testing"

	"bmx/internal/addr"
)

func TestSpanNestingAndStamping(t *testing.T) {
	o := NewObserver()
	o.Enable()
	r := o.Recorder(1)

	root := r.StartSpan(OpAcquireW, addr.OID(7))
	if !root.sc.Valid() {
		t.Fatal("enabled StartSpan returned an invalid scope")
	}
	if got := r.CurrentSpan(); got != root.sc {
		t.Fatalf("CurrentSpan = %+v, want root %+v", got, root.sc)
	}
	if root.sc.Trace != root.sc.Span {
		t.Fatalf("root span should name its trace after itself: %+v", root.sc)
	}

	// An event emitted inside the span is stamped with it.
	r.Emit(Event{Kind: KSend, Class: ClassApp})

	child := r.StartSpan(OpWriteRef, addr.OID(8))
	cc := child.sc
	if cc.Parent != root.sc.Span || cc.Trace != root.sc.Trace {
		t.Fatalf("child should nest under root: child %+v root %+v", cc, root.sc)
	}
	child.End()
	if got := r.CurrentSpan(); got != root.sc {
		t.Fatalf("after child End, CurrentSpan = %+v, want root", got)
	}
	root.End()
	if got := r.CurrentSpan(); got.Valid() {
		t.Fatalf("after root End, CurrentSpan = %+v, want zero", got)
	}

	evs := o.Events()
	var begins, ends int
	stamped := false
	for _, e := range evs {
		switch e.Kind {
		case KSpanBegin:
			begins++
		case KSpanEnd:
			ends++
		case KSend:
			if e.Span == root.sc.Span && e.Trace == root.sc.Trace {
				stamped = true
			}
		}
	}
	if begins != 2 || ends != 2 {
		t.Fatalf("got %d begins, %d ends, want 2/2", begins, ends)
	}
	if !stamped {
		t.Fatal("emitted event was not stamped with the enclosing span")
	}
}

func TestServerSpanParentsUnderRemote(t *testing.T) {
	o := NewObserver()
	o.Enable()
	client := o.Recorder(1)
	server := o.Recorder(2)

	cs := client.StartSpan(OpAcquireW, addr.OID(3))
	remote := cs.sc // what the transport carries on the wire
	ss := server.StartServerSpan(OpServeAcquire, addr.OID(3), remote)
	if got := ss.sc; got.Parent != remote.Span || got.Trace != remote.Trace {
		t.Fatalf("server span %+v does not parent under remote %+v", got, remote)
	}
	ss.End()
	cs.End()

	// A zero remote context roots a fresh trace.
	fresh := server.StartServerSpan(OpServeTable, addr.NilOID, SpanContext{})
	if got := fresh.sc; got.Parent != 0 || got.Trace != got.Span {
		t.Fatalf("zero remote should root a fresh trace, got %+v", got)
	}
	fresh.End()
}

func TestSpanDisabledIsInert(t *testing.T) {
	o := NewObserver()
	r := o.Recorder(1)
	s := r.StartSpan(OpAlloc, addr.NilOID)
	if s != (SpanScope{}) {
		t.Fatalf("disabled StartSpan returned non-zero scope %+v", s)
	}
	s.End() // must not panic or emit
	if got := r.CurrentSpan(); got.Valid() {
		t.Fatalf("disabled CurrentSpan = %+v, want zero", got)
	}
	if evs := o.Events(); len(evs) != 0 {
		t.Fatalf("disabled span path emitted %d events", len(evs))
	}
}

func TestSpanEventsNDJSONRoundTrip(t *testing.T) {
	o := NewObserver()
	o.Enable()
	r := o.Recorder(1)
	sp := r.StartSpan(OpAcquireR, addr.OID(11))
	r.Emit(Event{Kind: KSend, Class: ClassGC, Msg: MsgScion})
	sp.End()

	var buf bytes.Buffer
	if err := WriteStream(&buf, Stream{Events: o.Events()}); err != nil {
		t.Fatal(err)
	}
	s, err := ReadStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back := s.Events
	if len(back) != len(o.Events()) {
		t.Fatalf("round trip lost events: %d vs %d", len(back), len(o.Events()))
	}
	for i, e := range o.Events() {
		b := back[i]
		if b.Trace != e.Trace || b.Span != e.Span || b.SParent != e.SParent || b.Op != e.Op {
			t.Fatalf("event %d span fields changed: %+v vs %+v", i, b, e)
		}
	}
}

func TestBuildSpanTracesCrossProcess(t *testing.T) {
	o := NewObserver()
	o.Enable()
	client := o.Recorder(1)
	server := o.Recorder(2)

	// Client acquire → wire → server serve (child span on another node),
	// with one sanctioned scion send and one GC-table violation inside the
	// serve span, both on the critical path.
	acq := client.StartSpan(OpAcquireW, addr.OID(5))
	srv := server.StartServerSpan(OpServeAcquire, addr.OID(5), acq.sc)
	server.EnterCritical()
	server.Emit(Event{Kind: KSend, Class: ClassGC, Msg: MsgScion})
	server.Emit(Event{Kind: KSend, Class: ClassGC, Msg: MsgTable})
	server.ExitCritical()
	srv.End()
	acq.End()

	traces := BuildSpanTraces(o.Events())
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if !tr.Complete() {
		t.Fatalf("trace incomplete: %d orphans, %d spans", len(tr.Orphans), len(tr.Spans))
	}
	if !tr.CrossProcess() {
		t.Fatal("trace should be cross-process (serve.acquire on another node)")
	}
	if got := tr.AcquireSpan(); got == nil || got.Op != OpAcquireW {
		t.Fatalf("AcquireSpan = %+v", got)
	}
	v := tr.Verdict()
	if len(v.ScionMessages) != 1 {
		t.Fatalf("got %d scion messages, want 1", len(v.ScionMessages))
	}
	if len(v.GCMessages) != 1 || v.Clean() {
		t.Fatalf("the table send should be a named §4.4 violation: %+v", v.GCMessages)
	}

	ops := SpanOpsOf(traces)
	if len(ops) != 2 {
		t.Fatalf("got %d op rows, want 2", len(ops))
	}
	slow := SlowestAcquires(traces, 5)
	if len(slow) != 1 || slow[0].Span.Op != OpAcquireW {
		t.Fatalf("SlowestAcquires = %+v", slow)
	}
}

func TestBuildSpanTracesOrphan(t *testing.T) {
	evs := []Event{
		{Kind: KSpanBegin, Node: 1, Trace: 100, Span: 101, SParent: 99, Op: OpServeAcquire},
		{Kind: KSpanEnd, Node: 1, Trace: 100, Span: 101, SParent: 99, Op: OpServeAcquire},
	}
	traces := BuildSpanTraces(evs)
	if len(traces) != 1 {
		t.Fatalf("got %d traces", len(traces))
	}
	if traces[0].Complete() {
		t.Fatal("a span naming a missing parent must not count as complete")
	}
	if len(traces[0].Orphans) != 1 {
		t.Fatalf("got %d orphans, want 1", len(traces[0].Orphans))
	}
}
