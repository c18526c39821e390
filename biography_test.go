package bmx_test

import (
	"bytes"
	"testing"

	"bmx"
	"bmx/internal/addr"
	"bmx/internal/obs"
)

// TestBiographyReconstructsOwnershipTransfers is the analyzer acceptance
// test: a scripted ownership-transfer scenario is run with tracing on, the
// event window is dumped to NDJSON (the bmxstat input format), parsed back,
// and the reconstructed biography must name the owner sequence exactly —
// proving the offline path (file → events → biography) agrees with what the
// cluster actually did.
func TestBiographyReconstructsOwnershipTransfers(t *testing.T) {
	cl := bmx.New(bmx.Config{Nodes: 3, SegWords: 256, Seed: 1, SendLatency: 1, CallLatency: 1})
	cl.EnableTracing()
	n1, n2, n3 := cl.Node(0), cl.Node(1), cl.Node(2)

	b := n1.NewBunch()
	o := n1.MustAlloc(b, 2)
	n1.AddRoot(o)
	if err := n1.WriteWord(o, 0, 1); err != nil {
		t.Fatal(err)
	}
	// Scripted transfers: N1 (creator) -> N2 -> N3 -> back to N1, with a
	// read copy at N2 in between (reads must NOT appear as ownership).
	if err := n2.AcquireWrite(o); err != nil {
		t.Fatal(err)
	}
	n2.Release(o)
	if err := n3.AcquireWrite(o); err != nil {
		t.Fatal(err)
	}
	n3.Release(o)
	if err := n2.AcquireRead(o); err != nil {
		t.Fatal(err)
	}
	n2.Release(o)
	if err := n1.AcquireWrite(o); err != nil {
		t.Fatal(err)
	}
	n1.Release(o)
	cl.Run(0)

	// Offline round trip: write the window as a telemetry stream, read it
	// back.
	var buf bytes.Buffer
	if err := obs.WriteStream(&buf, obs.Stream{Events: cl.Observer().Events()}); err != nil {
		t.Fatal(err)
	}
	st, err := obs.ReadStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	evs := st.Events

	bio := obs.BiographyOf(evs, o.OID)
	if len(bio.Entries) == 0 {
		t.Fatal("biography empty after round trip")
	}
	want := []addr.NodeID{n2.ID(), n3.ID(), n1.ID()}
	if len(bio.Owners) != len(want) {
		t.Fatalf("ownership timeline = %v, want %v", bio.Owners, want)
	}
	for i := range want {
		if bio.Owners[i] != want[i] {
			t.Fatalf("ownership timeline = %v, want %v", bio.Owners, want)
		}
	}
	if len(bio.Cycle) != 0 {
		t.Fatalf("healthy run flagged a routing cycle: %v", bio.Cycle)
	}
	// The read acquire is in the story but not in the ownership timeline.
	sawRead := false
	for _, en := range bio.Entries {
		if en.Event.Kind == obs.KAcquireGrant && en.Event.A == 1 {
			sawRead = true
		}
	}
	if !sawRead {
		t.Fatal("read grant missing from the biography")
	}
}
