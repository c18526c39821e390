package heat_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"bmx/internal/addr"
	"bmx/internal/obs"
	"bmx/internal/obs/heat"
)

// table builds node's enabled heat table on a Lamport clock the test
// controls.
func table(node addr.NodeID) (*heat.Table, *uint64) {
	tick := new(uint64)
	tb := heat.New(node, func() uint64 { return *tick })
	tb.Enable()
	return tb, tick
}

func TestWireRoundTripThroughMixedStream(t *testing.T) {
	t0, _ := table(0)
	t1, tick := table(1)
	t0.NoteWrite(10, 1)
	t1.NoteAcquire(10, 1, true, 2)
	*tick = 3
	t1.NoteOwner(10)
	want := heat.Merge(t0.Snapshot(), t1.Snapshot())

	// Heat rows cohabit a stream with event records; the reader must hand
	// back exactly the rows.
	var buf bytes.Buffer
	in := obs.Stream{
		Events: []obs.Event{{Seq: 1, Tick: 2, Kind: obs.KSpanBegin, Class: obs.ClassNone, From: addr.NoNode, To: addr.NoNode}},
		Heat:   want,
	}
	if err := obs.WriteStream(&buf, in); err != nil {
		t.Fatal(err)
	}
	got, err := obs.ReadStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Heat, want) {
		t.Fatalf("round trip changed the rows:\n%+v\nvs\n%+v", got.Heat, want)
	}
	if len(got.Events) != 1 {
		t.Fatalf("the event beside the rows came back as %d events", len(got.Events))
	}
}

func TestVersionMarkerOnEveryRow(t *testing.T) {
	tb, _ := table(0)
	tb.NoteWrite(1, 1)
	tb.NoteOwner(2) // a bare ownership mark is a row too
	var buf bytes.Buffer
	if err := obs.WriteStream(&buf, obs.Stream{Heat: tb.Snapshot()}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %s", len(lines), buf.String())
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, `{"rec":"heat",`) {
			t.Fatalf("serialized row misses the heat tag: %s", line)
		}
	}
}
