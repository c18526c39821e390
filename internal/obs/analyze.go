package obs

import (
	"cmp"
	"fmt"
	"slices"

	"bmx/internal/addr"
)

// Offline trace analysis: the library half of cmd/bmxstat. Everything here
// works on a plain []Event, whether it came from a live Observer or was read
// back from an NDJSON dump with ReadEventsNDJSONLoose.

func modeName(a int64) string {
	switch a {
	case 1:
		return "read"
	case 2:
		return "write"
	default:
		return fmt.Sprintf("mode(%d)", a)
	}
}

// BioEntry is one line of an object biography: the raw event plus a
// human-readable rendering of what it meant for the object.
type BioEntry struct {
	Event Event
	What  string
}

// Biography is the reconstructed life of one object: everything the trace
// says happened to it, its ownership timeline, and — when the routing layer
// misbehaved — the ownerPtr walk with any repeating cycle called out.
type Biography struct {
	OID     addr.OID
	Entries []BioEntry
	// Owners is the ownership timeline: every node that became the object's
	// owner, in order (token grants to a new owner, and reestablishes).
	Owners []addr.NodeID
	// Trail is the ownerPtr hop trail (the forwarding nodes, in order);
	// Cycle is the shortest repeating suffix pattern found in it, empty when
	// routing stayed acyclic.
	Trail []addr.NodeID
	Cycle []addr.NodeID
}

func bioWhat(e Event) string {
	switch e.Kind {
	case KAcquireStart:
		return fmt.Sprintf("%v requests the %s token", e.Node, modeName(e.A))
	case KAcquireHop:
		return fmt.Sprintf("%v forwards the chain to %v (hop %d)", e.Node, e.To, e.A)
	case KAcquireGrant:
		return fmt.Sprintf("%v grants the %s token to %v after %d hops", e.Node, modeName(e.A), e.From, e.B)
	case KAcquireLocal:
		return fmt.Sprintf("%v acquires on the local fast path", e.Node)
	case KAcquireDone:
		return fmt.Sprintf("%v completes the %s acquire in %d ticks", e.Node, modeName(e.A), e.B)
	case KOwnerTransfer:
		return fmt.Sprintf("ownership arrives at %v", e.Node)
	case KInvalidate:
		return fmt.Sprintf("read copy invalidated at %v", e.Node)
	case KRelease:
		return fmt.Sprintf("%v leaves the critical section", e.Node)
	case KReroute:
		return fmt.Sprintf("%v retries through the manager hint %v", e.Node, e.To)
	case KRouteCycle:
		return fmt.Sprintf("%v spots a stale route back to %v and routes around to %v", e.Node, e.From, e.To)
	case KRouteDangling:
		return fmt.Sprintf("%v finds no route at all (dangling handle)", e.Node)
	case KReestablish:
		return fmt.Sprintf("proven unowned everywhere; %v faults it back in as owner (%s)", e.Node, modeName(e.A))
	case KMaxHops:
		return fmt.Sprintf("FATAL: ownerPtr chain exceeded the hop bound at %v (%d hops)", e.Node, e.A)
	case KGCCopy:
		side := "replica"
		if e.Owned() {
			side = "owner"
		}
		return fmt.Sprintf("%v evacuates it (%s copy, %d words)", e.Node, side, e.A)
	case KGCReclaim:
		if e.Owned() {
			return fmt.Sprintf("%v reclaims it OWNER-SIDE — global death", e.Node)
		}
		return fmt.Sprintf("%v reclaims its replica", e.Node)
	default:
		return e.Kind.String()
	}
}

// BiographyOf reconstructs the life of one object from the event stream.
func BiographyOf(evs []Event, o addr.OID) Biography {
	bio := Biography{OID: o}
	for _, e := range evs {
		if e.OID != o {
			continue
		}
		bio.Entries = append(bio.Entries, BioEntry{Event: e, What: bioWhat(e)})
		if e.Kind == KOwnerTransfer || e.Kind == KReestablish {
			if n := len(bio.Owners); n == 0 || bio.Owners[n-1] != e.Node {
				bio.Owners = append(bio.Owners, e.Node)
			}
		}
	}
	bio.Trail = HopTrail(evs, o)
	bio.Cycle = CycleIn(bio.Trail)
	return bio
}

// HotObject aggregates per-object protocol activity for the top-N report.
type HotObject struct {
	OID       addr.OID
	Events    int   // all events naming the object
	Acquires  int   // token requests started
	Hops      int64 // total ownerPtr hops spent granting its tokens
	Transfers int   // times ownership moved
}

// HotObjects returns the n objects with the most token traffic, sorted by
// acquire count, then total hops, then event count.
func HotObjects(evs []Event, n int) []HotObject {
	agg := map[addr.OID]*HotObject{}
	for _, e := range evs {
		if e.OID.IsNil() {
			continue
		}
		h := agg[e.OID]
		if h == nil {
			h = &HotObject{OID: e.OID}
			agg[e.OID] = h
		}
		h.Events++
		switch e.Kind {
		case KAcquireStart:
			h.Acquires++
		case KAcquireGrant:
			h.Hops += e.B
		case KOwnerTransfer:
			h.Transfers++
		}
	}
	out := make([]HotObject, 0, len(agg))
	for _, h := range agg {
		out = append(out, *h)
	}
	slices.SortFunc(out, func(a, b HotObject) int {
		if c := cmp.Compare(b.Acquires, a.Acquires); c != 0 {
			return c
		}
		if c := cmp.Compare(b.Hops, a.Hops); c != 0 {
			return c
		}
		if c := cmp.Compare(b.Events, a.Events); c != 0 {
			return c
		}
		return cmp.Compare(a.OID, b.OID)
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// HopStats is the acquire-path breakdown: how many acquires took the local
// fast path versus a remote chain, and the hop distribution of the chains.
type HopStats struct {
	Grants    int
	LocalFast int
	Reroutes  int
	Cycles    int // stale routes avoided
	Hops      HistSnapshot
}

// HopsOf condenses the acquire-path behavior of a trace.
func HopsOf(evs []Event) HopStats {
	var st HopStats
	h := &Histogram{name: "acquire.hops"}
	for _, e := range evs {
		switch e.Kind {
		case KAcquireGrant:
			st.Grants++
			h.Observe(e.B)
		case KAcquireLocal:
			st.LocalFast++
		case KReroute:
			st.Reroutes++
		case KRouteCycle:
			st.Cycles++
		}
	}
	st.Hops = h.Snapshot()
	return st
}

// CritStats is the critical-path breakdown: message traffic emitted while a
// mutator was blocked, split by class — the observable form of the paper's
// §4.4 claim (the only GC-class entry should be the write barrier's
// scion-message).
type CritStats struct {
	AppCalls int
	AppSends int
	GCCalls  int
	GCSends  int
	GCScion  int // how many of the GC-class entries were scion-messages
}

// CritOf condenses the critical-path traffic of a trace.
func CritOf(evs []Event) CritStats {
	var st CritStats
	for _, e := range evs {
		if !e.Critical() {
			continue
		}
		isCall := e.Kind == KCall
		isSend := e.Kind == KSend
		if !isCall && !isSend {
			continue
		}
		switch e.Class {
		case ClassApp:
			if isCall {
				st.AppCalls++
			} else {
				st.AppSends++
			}
		case ClassGC:
			if isCall {
				st.GCCalls++
			} else {
				st.GCSends++
			}
			if e.Msg == MsgScion {
				st.GCScion++
			}
		}
	}
	return st
}

// GCStats is the per-phase collector cost breakdown over a trace.
type GCStats struct {
	Runs          int
	GroupRuns     int
	RootsPause    HistSnapshot // flip pause 1, ticks per run
	FlipPause     HistSnapshot // flip pause 2, ticks per run
	TraceScanned  int64        // objects scanned across runs
	CopiedObjects int
	CopiedWords   int64
	Reclaimed     int
	OwnedReclaims int // owner-side reclaims (global deaths)
	SegWordsFreed int64
	Dead          int64 // objects declared dead by completed runs
	TotalTicks    int64 // summed run durations
}

// GCOf condenses the collector activity of a trace.
func GCOf(evs []Event) GCStats {
	var st GCStats
	roots := &Histogram{name: "gc.roots.pause"}
	flip := &Histogram{name: "gc.flip.pause"}
	for _, e := range evs {
		switch e.Kind {
		case KGCStart:
			st.Runs++
			if e.Flags&FlagGroup != 0 {
				st.GroupRuns++
			}
		case KGCRoots:
			roots.Observe(e.B)
		case KGCFlip:
			flip.Observe(e.B)
		case KGCTrace:
			st.TraceScanned += e.A
		case KGCCopy:
			st.CopiedObjects++
			st.CopiedWords += e.A
		case KGCReclaim:
			st.Reclaimed++
			if e.Owned() {
				st.OwnedReclaims++
			}
		case KReclaimSeg:
			st.SegWordsFreed += e.A
		case KGCDone:
			st.Dead += e.A
			st.TotalTicks += e.B
		}
	}
	st.RootsPause = roots.Snapshot()
	st.FlipPause = flip.Snapshot()
	return st
}
