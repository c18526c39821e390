package baseline

import (
	"fmt"
	"slices"

	"bmx/internal/addr"
	"bmx/internal/simnet"
)

// RefCountSystem is a minimal Bevan-style distributed reference-counting
// collector: every object has a home node holding its count; creating a
// remote reference sends an increment message to the home; deleting one
// sends a decrement; the home frees the object when the count reaches zero.
// Unlike the paper's idempotent table messages (§6.1), inc/dec messages are
// not idempotent: a lost increment lets the count reach zero while a
// reference still exists (premature free), and a lost decrement leaks the
// object forever. The experiments run the same reference workload over this
// system and over BMX to quantify the difference.
type RefCountSystem struct {
	net   *simnet.Network
	homes []*rcHome
	// refs tracks ground truth: which remote references actually exist.
	refs map[rcRef]bool
}

type rcRef struct {
	Node addr.NodeID
	OID  addr.OID
}

type rcHome struct {
	id     addr.NodeID
	counts map[addr.OID]int
	freed  map[addr.OID]bool
}

type rcMsg struct {
	OID   addr.OID
	Delta int
}

// Message kinds on the simulated network.
const kindRC = "rc.delta"

// NewRefCountSystem builds a reference-counting cluster of n nodes over a
// network with the given seed and loss rate.
func NewRefCountSystem(n int, seed int64, loss float64) *RefCountSystem {
	sys := &RefCountSystem{
		net:  simnet.New(simnet.Options{Seed: seed, Faults: simnet.FaultPlan{Default: simnet.FaultRates{Drop: loss}}}),
		refs: make(map[rcRef]bool),
	}
	for i := 0; i < n; i++ {
		h := &rcHome{
			id:     addr.NodeID(i),
			counts: make(map[addr.OID]int),
			freed:  make(map[addr.OID]bool),
		}
		sys.homes = append(sys.homes, h)
		sys.net.Register(h.id, func(m simnet.Msg) {
			if m.Kind != kindRC {
				return
			}
			d := m.Payload.(rcMsg)
			if h.freed[d.OID] {
				return // decrement for an already-freed object
			}
			h.counts[d.OID] += d.Delta
			if h.counts[d.OID] <= 0 {
				h.freed[d.OID] = true
				delete(h.counts, d.OID)
			}
		}, nil)
	}
	return sys
}

// Create registers an object at its home with the creator's reference
// (count 1).
func (sys *RefCountSystem) Create(home addr.NodeID, o addr.OID) {
	sys.homes[home].counts[o] = 1
	sys.refs[rcRef{home, o}] = true
}

// AddRef records that node now references o (an increment message to the
// home, which may be lost).
func (sys *RefCountSystem) AddRef(node, home addr.NodeID, o addr.OID) {
	sys.refs[rcRef{node, o}] = true
	sys.net.Send(simnet.Msg{
		From: node, To: home, Kind: kindRC, Class: simnet.ClassGC,
		Payload: rcMsg{OID: o, Delta: +1}, Bytes: 16,
	})
}

// DropRef records that node no longer references o (a decrement message).
func (sys *RefCountSystem) DropRef(node, home addr.NodeID, o addr.OID) {
	delete(sys.refs, rcRef{node, o})
	sys.net.Send(simnet.Msg{
		From: node, To: home, Kind: kindRC, Class: simnet.ClassGC,
		Payload: rcMsg{OID: o, Delta: -1}, Bytes: 16,
	})
}

// Deliver drains the message queues.
func (sys *RefCountSystem) Deliver() { sys.net.Run(0) }

// Audit compares the homes' decisions against ground truth and returns the
// number of premature frees (object freed while a reference exists) and
// leaks (object unreferenced but never freed).
func (sys *RefCountSystem) Audit() (earlyFrees, leaks int) {
	referenced := make(map[addr.OID]bool)
	for r := range sys.refs {
		referenced[r.OID] = true
	}
	for _, h := range sys.homes {
		var oids []addr.OID
		for o := range h.freed {
			oids = append(oids, o)
		}
		for o := range h.counts {
			oids = append(oids, o)
		}
		slices.Sort(oids)
		for _, o := range oids {
			switch {
			case h.freed[o] && referenced[o]:
				earlyFrees++
			case !h.freed[o] && !referenced[o]:
				leaks++
			}
		}
	}
	return earlyFrees, leaks
}

// String summarizes the system state.
func (sys *RefCountSystem) String() string {
	e, l := sys.Audit()
	return fmt.Sprintf("refcount{nodes: %d, earlyFrees: %d, leaks: %d}", len(sys.homes), e, l)
}
