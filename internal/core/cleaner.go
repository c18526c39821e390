package core

import (
	"bmx/internal/addr"
	"bmx/internal/obs"
	"bmx/internal/ssp"
)

// tableKey identifies one stream of reachability tables: one sender, one
// source bunch.
type tableKey struct {
	from  addr.NodeID
	bunch addr.BunchID
}

// ApplyTable is the scion cleaner (§6): it processes the reachability
// information constructed by the execution of a BGC on another node (or by
// this node's own BGC, for locally matched SSPs), deleting every scion no
// longer reachable from any stub and every entering ownerPtr whose remote
// replica is gone. Tables are complete snapshots, so reprocessing or losing
// individual messages is harmless; the only requirement is FIFO order per
// sender, which the per-pair streams provide (§6.1). A scion or entering
// entry younger than the table (CreatedGen > msg.Gen) is never deleted —
// this resolves the race between scion-messages and table messages.
func (c *Collector) ApplyTable(msg ssp.TableMsg) {
	k := tableKey{msg.From, msg.Bunch}
	if msg.Gen <= c.recvGen[k] {
		// The generation watermark absorbs both kinds of harmless
		// redelivery: a duplicate (same Seq resent by the transport,
		// Gen == watermark) and a stale table overtaken by a newer one
		// (Gen < watermark). Distinguishing them in the stats makes
		// duplication injection observable.
		if msg.Gen == c.recvGen[k] {
			c.stats().Add("core.cleaner.dup", 1)
		} else {
			c.stats().Add("core.cleaner.stale", 1)
		}
		return
	}
	c.recvGen[k] = msg.Gen
	c.stats().Add("core.cleaner.tables", 1)
	deleted := 0

	presentInter := make(map[ssp.InterScionKey]bool, len(msg.InterStubs))
	for _, s := range msg.InterStubs {
		presentInter[ssp.InterScionKey{TargetOID: s.TargetOID, SrcOID: s.SrcOID, SrcNode: msg.From}] = true
	}
	presentIntra := make(map[ssp.IntraScionKey]bool, len(msg.IntraStubs))
	for _, s := range msg.IntraStubs {
		if s.OldOwner == c.node {
			presentIntra[ssp.IntraScionKey{OID: s.OID, NewOwner: msg.From}] = true
		}
	}

	// Inter-bunch scions live in the tables of the *target* bunches, which
	// can be any bunch mapped here.
	for _, b := range c.MappedBunches() {
		t := c.Replica(b).Table
		for key, sc := range t.InterScions {
			if sc.SrcNode == msg.From && sc.SrcBunch == msg.Bunch &&
				sc.CreatedGen <= msg.Gen && !presentInter[key] {
				delete(t.InterScions, key)
				deleted++
				c.stats().Add("core.cleaner.interScionsDeleted", 1)
			}
		}
	}

	// Intra-bunch scions live in the table of the bunch itself.
	if c.HasReplica(msg.Bunch) {
		rep := c.Replica(msg.Bunch)
		for key, sc := range rep.Table.IntraScions {
			if sc.NewOwner == msg.From && sc.CreatedGen <= msg.Gen && !presentIntra[key] {
				delete(rep.Table.IntraScions, key)
				deleted++
				c.stats().Add("core.cleaner.intraScionsDeleted", 1)
			}
		}
	}

	// Entering ownerPtrs: drop every entry from the sender not covered by
	// its new exiting list ("all incoming ownerPtrs for local copies of
	// objects that are no longer live remotely", §4.1) — and re-add the
	// entries the list names. Exiting lists are complete snapshots, so
	// treating them as the authoritative entering set from that sender
	// makes the entering state as idempotent and loss-tolerant as the
	// scion tables themselves.
	ex := make(map[addr.OID]bool, len(msg.Exiting))
	for _, o := range msg.Exiting {
		ex[o] = true
	}
	if n := c.dsm.RemoveEnteringUpTo(msg.Bunch, msg.From, msg.Gen, ex); n > 0 {
		c.stats().Add("core.cleaner.enteringRemoved", int64(n))
	}
	deriv := make(map[addr.OID]bool, len(msg.Derivative))
	for _, o := range msg.Derivative {
		deriv[o] = true
	}
	for _, o := range msg.Exiting {
		r := c.dsm.Record(o)
		if _, ok := r.Canonical(); ok || r.Known() {
			c.dsm.AddEntering(o, msg.From, msg.Gen)
			c.dsm.SetEnteringDerivative(o, msg.From, deriv[o])
		} else {
			// The sender routes through an object this node no longer
			// holds; its next acquire will re-learn a route through the
			// allocation site.
			c.stats().Add("core.cleaner.enteringOrphan", 1)
		}
	}
	c.rec.Emit(obs.Event{Kind: obs.KScionClean, Class: obs.ClassGC,
		From: msg.From, To: c.node, A: int64(msg.Gen), B: int64(deleted)})
}
