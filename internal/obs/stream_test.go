package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"bmx/internal/addr"
	"bmx/internal/obs/heat"
)

// TestStreamRoundTripsEveryKind writes one record of every kind and reads
// each back equal: an event carrying span fields and peers, a heat row, a
// bare ownership mark, a sample and a histogram summary.
func TestStreamRoundTripsEveryKind(t *testing.T) {
	owner := int32(2)
	h := &Histogram{name: "dsm.acquire.hops"}
	for _, v := range []int64{0, 1, 3, 9} {
		h.Observe(v)
	}
	want := Stream{
		Events: []Event{{
			Seq: 7, Tick: 41, Node: 1, Kind: KCall, Class: ClassGC, Msg: MsgScion,
			Flags: FlagCritical, OID: 36, From: 1, To: 2, A: 24, B: 8,
			Trace: 0x10, Span: 0x11, SParent: 0x12, Op: OpAcquireW,
		}},
		Heat: []heat.Row{
			{OID: 36, Bunch: 1, Node: 1, Reads: 3, Writes: 2, Acquires: 4, Remote: 1, Hops: 2, Owner: &owner, OwnerTick: 40},
			{OID: 37, Node: 2, Owner: &owner, OwnerTick: 12},
		},
		Samples: []Sample{{
			Seq: 3, Tick: 50, DTick: 10,
			Deltas: map[string]int64{"msg.sent.app": 5},
			Hists:  map[string]HistSummary{h.Name(): h.Summary()},
		}},
		Hists: []HistSummary{h.Summary()},
	}
	var buf bytes.Buffer
	if err := WriteStream(&buf, want); err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if !strings.HasPrefix(line, `{"rec":"`) {
			t.Fatalf("line %d carries no leading tag: %s", i+1, line)
		}
	}
	got, err := ReadStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the stream:\n got %+v\nwant %+v", got, want)
	}
}

// TestReadStreamFailsNamingEveryBadLine feeds a stream with one truncated
// line and one line of an unknown kind between good records: the reader
// must fail and name both lines, not skip them.
func TestReadStreamFailsNamingEveryBadLine(t *testing.T) {
	var buf bytes.Buffer
	evs := []Event{
		{Seq: 1, Tick: 1, Kind: KGCStart, Class: ClassGC, From: addr.NoNode, To: addr.NoNode},
		{Seq: 2, Tick: 2, Kind: KGCDone, Class: ClassGC, From: addr.NoNode, To: addr.NoNode},
	}
	if err := WriteStream(&buf, Stream{Events: evs}); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	in := lines[0] + lines[1][:len(lines[1])/2] + "\n" + `{"rec":"gauge","name":"x"}` + "\n" + lines[1]
	s, err := ReadStream(strings.NewReader(in))
	if err == nil {
		t.Fatal("a truncated line and an unknown kind read without error")
	}
	for _, want := range []string{"line 2:", "line 3:", `unknown record kind "gauge"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error does not name %s:\n%v", want, err)
		}
	}
	if len(s.Events) != 2 {
		t.Errorf("the good lines around the bad ones gave %d events, want 2", len(s.Events))
	}
}
