package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"bmx/internal/addr"
)

func TestDisabledRecorderKeepsNothing(t *testing.T) {
	o := NewObserver()
	r := o.Recorder(0)
	for i := 0; i < 100; i++ {
		r.Emit(Event{Kind: KSend})
	}
	if got := r.total; got != 0 {
		t.Fatalf("disabled recorder kept %d events", got)
	}
	if w := r.Window(); w != nil {
		t.Fatalf("disabled recorder window = %v", w)
	}
}

func TestRingKeepsTheRecentWindow(t *testing.T) {
	o := NewObserver()
	o.SetRingSize(8)
	o.Enable()
	r := o.Recorder(3)
	for i := 0; i < 20; i++ {
		r.Emit(Event{Kind: KSend, A: int64(i)})
	}
	w := r.Window()
	if len(w) != 8 {
		t.Fatalf("window length = %d, want 8", len(w))
	}
	for i, e := range w {
		if want := int64(12 + i); e.A != want {
			t.Errorf("window[%d].A = %d, want %d", i, e.A, want)
		}
		if e.Node != 3 {
			t.Errorf("window[%d].Node = %v, want N3", i, e.Node)
		}
	}
	if r.total != 20 {
		t.Errorf("Total = %d, want 20", r.total)
	}
}

func TestEventsMergeInEmissionOrder(t *testing.T) {
	o := NewObserver()
	o.Enable()
	a, b := o.Recorder(0), o.Recorder(1)
	a.Emit(Event{Kind: KSend})
	b.Emit(Event{Kind: KDeliver})
	a.Emit(Event{Kind: KCall})
	evs := o.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	want := []Kind{KSend, KDeliver, KCall}
	for i, e := range evs {
		if e.Kind != want[i] {
			t.Errorf("events[%d].Kind = %v, want %v", i, e.Kind, want[i])
		}
		if e.Seq != uint64(i+1) {
			t.Errorf("events[%d].Seq = %d, want %d", i, e.Seq, i+1)
		}
	}
}

func TestCriticalFlagTracksDepth(t *testing.T) {
	o := NewObserver()
	o.Enable()
	r := o.Recorder(0)
	r.Emit(Event{Kind: KSend})
	r.EnterCritical()
	r.Emit(Event{Kind: KCall})
	r.EnterCritical() // nested
	r.Emit(Event{Kind: KSend})
	r.ExitCritical()
	r.Emit(Event{Kind: KDeliver})
	r.ExitCritical()
	r.Emit(Event{Kind: KDrop})
	w := r.Window()
	wantCrit := []bool{false, true, true, true, false}
	for i, e := range w {
		if e.Critical() != wantCrit[i] {
			t.Errorf("event %d (%v): critical = %v, want %v", i, e.Kind, e.Critical(), wantCrit[i])
		}
	}
}

func TestCriticalDepthSurvivesDisabledPeriods(t *testing.T) {
	o := NewObserver()
	r := o.Recorder(0)
	r.EnterCritical() // while disabled
	o.Enable()
	r.Emit(Event{Kind: KSend})
	if !r.Window()[0].Critical() {
		t.Fatal("critical depth entered while disabled was lost")
	}
}

func TestConcurrentEmitIsSafe(t *testing.T) {
	o := NewObserver()
	o.SetRingSize(64)
	o.Enable()
	var wg sync.WaitGroup
	for n := 0; n < 4; n++ {
		r := o.Recorder(addr.NodeID(n))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Emit(Event{Kind: KSend, A: int64(i)})
				r.EnterCritical()
				r.Emit(Event{Kind: KCall})
				r.ExitCritical()
			}
		}()
	}
	wg.Wait()
	if got := len(o.Events()); got != 4*64 {
		t.Fatalf("merged window = %d events, want %d", got, 4*64)
	}
}

func TestHistogramSummary(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	s := h.Summary()
	if s.Count != 100 || s.Sum != 5050 || s.Min != 1 || s.Max != 100 {
		t.Fatalf("summary = %+v", s)
	}
	// p50 of 1..100 lies in bucket 32..63 → conservative upper bound 63.
	if s.P50 != 63 {
		t.Errorf("P50 = %d, want 63", s.P50)
	}
	// p99 lies in bucket 64..127, capped at the observed max.
	if s.P99 != 100 {
		t.Errorf("P99 = %d, want 100", s.P99)
	}
	h.Observe(-5)
	if h.Summary().Min != 0 {
		t.Errorf("negative observation should clamp to 0")
	}
}

func TestHistogramZero(t *testing.T) {
	var h Histogram
	h.Observe(0)
	s := h.Summary()
	if s.Count != 1 || s.Min != 0 || s.Max != 0 || s.P99 != 0 {
		t.Fatalf("summary of {0} = %+v", s)
	}
}

func TestProbesFlagForbiddenEvents(t *testing.T) {
	evs := []Event{
		{Kind: KAcquireStart, Class: ClassApp},
		{Kind: KAcquireStart, Class: ClassGC, OID: 7},
		{Kind: KSend, Class: ClassGC},                       // background GC message: allowed
		{Kind: KSend, Class: ClassGC, Flags: FlagCritical},  // forbidden
		{Kind: KCall, Class: ClassApp, Flags: FlagCritical}, // app call on app path: fine
		{Kind: KInvalidate, Class: ClassGC},                 // collector-caused invalidation
	}
	if got := CollectorAcquires(evs); len(got) != 1 || got[0].OID != 7 {
		t.Errorf("CollectorAcquires = %v", got)
	}
	if got := CriticalGCMessages(evs); len(got) != 1 || got[0].Kind != KSend {
		t.Errorf("CriticalGCMessages = %v", got)
	}
	if got := CollectorInvalidations(evs); len(got) != 1 {
		t.Errorf("CollectorInvalidations = %v", got)
	}
}

func TestHopTrailAndCycle(t *testing.T) {
	mk := func(node addr.NodeID, hop int64) Event {
		return Event{Kind: KAcquireHop, OID: 36, Node: node, A: hop}
	}
	evs := []Event{
		mk(0, 0), mk(2, 1), // an earlier, completed chain
		mk(1, 0), mk(2, 1), mk(1, 2), mk(2, 3), mk(1, 4), mk(2, 5),
		{Kind: KAcquireHop, OID: 99, Node: 9, A: 0}, // different object: ignored
	}
	trail := HopTrail(evs, 36)
	want := []addr.NodeID{1, 2, 1, 2, 1, 2}
	if len(trail) != len(want) {
		t.Fatalf("trail = %v, want %v", trail, want)
	}
	for i := range want {
		if trail[i] != want[i] {
			t.Fatalf("trail = %v, want %v", trail, want)
		}
	}
	cyc := CycleIn(trail)
	if len(cyc) != 2 || cyc[0] != 1 || cyc[1] != 2 {
		t.Errorf("CycleIn = %v, want [N1 N2]", cyc)
	}
	if c := CycleIn([]addr.NodeID{0, 1, 2, 3}); c != nil {
		t.Errorf("CycleIn(no cycle) = %v", c)
	}
}

func TestDumpJSONIsNDJSON(t *testing.T) {
	o := NewObserver()
	o.Enable()
	r := o.Recorder(2)
	r.Emit(Event{Kind: KAcquireHop, Class: ClassApp, OID: 36, From: 0, To: 1, A: 3})
	r.Emit(Event{Kind: KGCCopy, Class: ClassGC, OID: 4, From: addr.NoNode, To: addr.NoNode, Flags: FlagOwned, A: 8})
	var buf bytes.Buffer
	if err := WriteStream(&buf, Stream{Events: o.Events()}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines: %q", len(lines), buf.String())
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 1 is not JSON: %v", err)
	}
	if first["rec"] != "event" || first["kind"] != "dsm.acquire.hop" || first["oid"] != float64(36) {
		t.Errorf("line 1 = %v", first)
	}
	var second map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	if second["owned"] != true {
		t.Errorf("line 2 lost the owned flag: %v", second)
	}
	if _, has := second["from"]; has {
		t.Errorf("NoNode peer serialized: %v", second)
	}
}

func TestFatalDumpsOnce(t *testing.T) {
	o := NewObserver()
	o.Enable()
	var buf bytes.Buffer
	o.SetFatalSink(&buf)
	o.Recorder(1).Emit(Event{Kind: KAcquireHop, OID: 36, A: 0})
	o.Fatal(1, "ownerPtr chain for O36 exceeded 10 hops")
	if !strings.Contains(buf.String(), "fatal at N2") || !strings.Contains(buf.String(), "dsm.acquire.hop") {
		t.Fatalf("dump missing content:\n%s", buf.String())
	}
	n := buf.Len()
	o.Fatal(1, "again")
	if buf.Len() != n {
		t.Error("second Fatal dumped again; the first window should be preserved alone")
	}
	o.ResetFatalOnce()
	o.Fatal(1, "after re-arm")
	if buf.Len() == n {
		t.Error("ResetFatalOnce did not re-arm the dump")
	}
}
