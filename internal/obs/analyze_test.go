package obs

import (
	"bytes"
	"strings"
	"testing"

	"bmx/internal/addr"
)

// synthetic trace: O7 is requested by N2, forwarded once, granted by N1,
// ownership moves, then the object dies globally and is reestablished.
func syntheticTrace() []Event {
	return []Event{
		{Seq: 1, Tick: 10, Node: 1, Kind: KAcquireStart, Class: ClassApp, OID: 7, A: 2, Flags: FlagCritical},
		{Seq: 2, Tick: 11, Node: 1, Kind: KCall, Class: ClassApp, Msg: MsgAcquire, From: 1, To: 0, A: 32, Flags: FlagCritical},
		{Seq: 3, Tick: 12, Node: 0, Kind: KAcquireHop, Class: ClassApp, OID: 7, From: 1, To: 2, A: 1},
		{Seq: 4, Tick: 13, Node: 2, Kind: KAcquireGrant, Class: ClassApp, OID: 7, From: 1, A: 2, B: 1},
		{Seq: 5, Tick: 14, Node: 1, Kind: KOwnerTransfer, Class: ClassApp, OID: 7, From: 2},
		{Seq: 6, Tick: 15, Node: 1, Kind: KAcquireDone, Class: ClassApp, OID: 7, A: 2, B: 5},
		{Seq: 7, Tick: 20, Node: 1, Kind: KGCStart, Class: ClassGC, A: 1},
		{Seq: 8, Tick: 21, Node: 1, Kind: KGCRoots, Class: ClassGC, B: 2},
		{Seq: 9, Tick: 22, Node: 1, Kind: KGCCopy, Class: ClassGC, OID: 7, A: 3, Flags: FlagOwned},
		{Seq: 10, Tick: 23, Node: 1, Kind: KGCReclaim, Class: ClassGC, OID: 7, Flags: FlagOwned},
		{Seq: 11, Tick: 24, Node: 1, Kind: KGCDone, Class: ClassGC, A: 1, B: 4},
		{Seq: 12, Tick: 30, Node: 0, Kind: KReestablish, Class: ClassApp, OID: 7, A: 2},
		{Seq: 13, Tick: 31, Node: 0, Kind: KSend, Class: ClassGC, Msg: MsgScion, From: 0, To: 1, A: 8, Flags: FlagCritical},
	}
}

func TestEventNDJSONRoundTrip(t *testing.T) {
	evs := syntheticTrace()
	var buf bytes.Buffer
	if err := WriteStream(&buf, Stream{Events: evs}); err != nil {
		t.Fatal(err)
	}
	s, err := ReadStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back := s.Events
	if len(back) != len(evs) {
		t.Fatalf("round-trip lost events: %d of %d", len(back), len(evs))
	}
	for i := range evs {
		want, got := evs[i], back[i]
		// Peer fields only survive for kinds that declare them (the dump
		// omits meaningless peers by design); normalize before comparing.
		if !want.Kind.hasPeers() {
			want.From, want.To = addr.NoNode, addr.NoNode
		}
		if got != want {
			t.Fatalf("event %d mismatch:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

func TestBiographyOfSyntheticTrace(t *testing.T) {
	evs := syntheticTrace()
	bio := BiographyOf(evs, 7)
	if len(bio.Entries) != 8 {
		t.Fatalf("biography has %d entries, want 8: %+v", len(bio.Entries), bio.Entries)
	}
	// Ownership timeline: the transfer to N2 (node index 1), then the
	// reestablish at N1 (node index 0) after the global death.
	if len(bio.Owners) != 2 || bio.Owners[0] != 1 || bio.Owners[1] != 0 {
		t.Fatalf("owners = %v, want [N2 N1]", bio.Owners)
	}
	// The owner-side reclaim must read as a global death.
	found := false
	for _, en := range bio.Entries {
		if en.Event.Kind == KGCReclaim && en.Event.Owned() {
			found = true
			if want := "global death"; !contains(en.What, want) {
				t.Fatalf("owned reclaim rendered as %q", en.What)
			}
		}
	}
	if !found {
		t.Fatal("owned reclaim missing from biography")
	}
	if len(bio.Cycle) != 0 {
		t.Fatalf("acyclic trail flagged a cycle: %v", bio.Cycle)
	}
}

func contains(s, sub string) bool {
	return bytes.Contains([]byte(s), []byte(sub))
}

func TestHotObjectsRanking(t *testing.T) {
	evs := syntheticTrace()
	// O9 gets two acquires to O7's one.
	evs = append(evs,
		Event{Seq: 20, Node: 0, Kind: KAcquireStart, OID: 9, A: 1},
		Event{Seq: 21, Node: 0, Kind: KAcquireGrant, OID: 9, From: 0, A: 1, B: 3},
		Event{Seq: 22, Node: 2, Kind: KAcquireStart, OID: 9, A: 2},
	)
	hot := HotObjects(evs, 10)
	if len(hot) != 2 {
		t.Fatalf("hot objects = %+v", hot)
	}
	if hot[0].OID != 9 || hot[0].Acquires != 2 || hot[0].Hops != 3 {
		t.Fatalf("top object = %+v, want O9 with 2 acquires", hot[0])
	}
	if hot[1].OID != 7 || hot[1].Transfers != 1 {
		t.Fatalf("second object = %+v", hot[1])
	}
	if got := HotObjects(evs, 1); len(got) != 1 || got[0].OID != 9 {
		t.Fatalf("top-1 = %+v", got)
	}
}

func TestHopCritAndGCBreakdowns(t *testing.T) {
	evs := syntheticTrace()
	hops := HopsOf(evs)
	if hops.Grants != 1 || hops.Hops.Count != 1 || hops.Hops.Sum != 1 {
		t.Fatalf("hop stats = %+v", hops)
	}
	crit := CritOf(evs)
	if crit.AppCalls != 1 || crit.GCSends != 1 || crit.GCScion != 1 {
		t.Fatalf("crit stats = %+v", crit)
	}
	gc := GCOf(evs)
	if gc.Runs != 1 || gc.CopiedObjects != 1 || gc.CopiedWords != 3 {
		t.Fatalf("gc stats = %+v", gc)
	}
	if gc.OwnedReclaims != 1 || gc.Reclaimed != 1 || gc.Dead != 1 || gc.TotalTicks != 4 {
		t.Fatalf("gc stats = %+v", gc)
	}
	if gc.RootsPause.Count != 1 || gc.RootsPause.Sum != 2 {
		t.Fatalf("roots pause = %+v", gc.RootsPause)
	}
}

func TestReadEventsRejectsUnknownKind(t *testing.T) {
	in := bytes.NewBufferString(`{"rec":"event","seq":1,"tick":1,"node":0,"kind":"no.such.kind","class":"app"}` + "\n")
	s, err := ReadStream(in)
	if err == nil || len(s.Events) != 0 {
		t.Fatalf("unknown kind parsed as %v, %v; want it rejected", s.Events, err)
	}
	if !strings.Contains(err.Error(), "line 1") || !strings.Contains(err.Error(), "no.such.kind") {
		t.Fatalf("error %q does not name the line and the kind", err)
	}
}
