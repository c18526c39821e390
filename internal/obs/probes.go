package obs

import "bmx/internal/addr"

// Probes assert the paper's structural claims directly from the event
// stream — not from counters. A counter proves a total; the stream proves
// the total AND that no event of the forbidden shape occurred anywhere in
// the retained window, with the offending events returned as evidence when
// one did.

// CollectorAcquires returns every token-acquire initiation attributed to
// the collector. The paper's central claim (§5: the BGC "acquires no read
// or write token, ever") holds iff this is empty for any run of the real
// collector; the baseline token-acquiring collectors make it non-empty,
// which is what the probe's own tests use as the positive control.
func CollectorAcquires(evs []Event) []Event {
	var out []Event
	for _, e := range evs {
		if e.Kind == KAcquireStart && e.Class == ClassGC {
			out = append(out, e)
		}
	}
	return out
}

// CriticalGCMessages returns every GC-class message (asynchronous send or
// synchronous call) emitted on the application's critical path — inside a
// mutator operation or while serving an application-class call. The §4.4
// claim that GC information travels as piggyback "costing no extra message"
// holds iff this is empty: piggybacked bytes ride app-class messages and
// are therefore never reported here, while a standalone GC message issued
// while an application operation is blocked would be.
//
// The one sanctioned exception is the write barrier's scion-message (§3.2,
// "one of the few genuine GC messages"): it is synchronous, GC-class and on
// the mutator's store path by design. Events carry the wire-message kind in
// Msg, so callers probing a workload that creates inter-bunch references
// filter with `e.Msg == MsgScion` (or use NonScion) and assert on the
// remainder.
func CriticalGCMessages(evs []Event) []Event {
	var out []Event
	for _, e := range evs {
		if gc, _ := critGCMessage(e); gc {
			out = append(out, e)
		}
	}
	return out
}

// NonScion filters out scion-messages — the §3.2 sanctioned exception —
// leaving the events the "no extra messages" claim must prove empty.
func NonScion(evs []Event) []Event {
	var out []Event
	for _, e := range evs {
		if _, scion := critGCMessage(e); !scion {
			out = append(out, e)
		}
	}
	return out
}

// critGCMessage is the §4.4 rule every probe of it applies: gc reports a
// GC-class message (asynchronous send or synchronous call) emitted on the
// application's critical path, and scion whether that message is the
// write barrier's scion-message, the §3.2 exception counted apart.
func critGCMessage(e Event) (gc, scion bool) {
	gc = (e.Kind == KSend || e.Kind == KCall) && e.Class == ClassGC && e.Critical()
	return gc, gc && e.Msg == MsgScion
}

// CollectorInvalidations returns every invalidation performed on behalf of
// the collector (the baseline collectors cause them; the BGC never does).
func CollectorInvalidations(evs []Event) []Event {
	var out []Event
	for _, e := range evs {
		if e.Kind == KInvalidate && e.Class == ClassGC {
			out = append(out, e)
		}
	}
	return out
}

// HopTrail reconstructs the ownerPtr chain an acquire of o travelled from
// the retained hop events: the sequence of nodes that forwarded the
// request, in hop order, for the most recent acquire of o in the window
// (hop events carry the hop index in A; a fresh acquire restarts at 0).
func HopTrail(evs []Event, o addr.OID) []addr.NodeID {
	var trail []addr.NodeID
	for _, e := range evs {
		if e.Kind != KAcquireHop || e.OID != o {
			continue
		}
		if e.A == 0 {
			trail = trail[:0] // a new chain for this object begins
		}
		trail = append(trail, e.Node)
	}
	return trail
}

// CycleIn returns the shortest node sequence that repeats at the tail of a
// hop trail, or nil if the tail is cycle-free — the signature of a routing
// loop: the same nodes forwarding the same request to each other until the
// hop bound fires.
func CycleIn(trail []addr.NodeID) []addr.NodeID {
	n := len(trail)
	for period := 1; period <= n/2; period++ {
		ok := true
		// The last `period` nodes must repeat the `period` before them.
		for i := 0; i < period; i++ {
			if trail[n-1-i] != trail[n-1-i-period] {
				ok = false
				break
			}
		}
		if ok {
			return trail[n-period:]
		}
	}
	return nil
}
