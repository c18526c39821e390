package harness

import (
	"fmt"
	"runtime"
	"time"

	"bmx"
)

// LoopResult is what one pass over a stretch of the stream measured. Every
// latency is wall-clock nanoseconds in a log-bucket histogram.
type LoopResult struct {
	Ops, Failed int
	FirstError  string
	Wall        time.Duration

	Op             Hist // acquire → access → release
	AcqRemoteRead  Hist // AcquireRead that had to leave the node (shadow model)
	AcqRemoteWrite Hist // AcquireWrite that had to leave the node
	Writes         int

	// Blocks are the run cut into stretches of BlockOps ops: wall time and
	// median latencies of each. See Quiet.
	Blocks []Block

	NodeSync Hist // Node.Sync
	Collect  Hist // CollectBunch
	Group    Hist // CollectGroup
	Reclaim  Hist // ReclaimFromSpace
	Drain    Hist // Cluster.Run(0)
	Drained  int  // background messages Cluster.Run delivered

	DeadSeen     int // objects the collections reported dead
	LiveObjs     int // objects the bunch collections found live, summed
	CopiedWords  int
	ScannedWords int

	// RemoteMismatch counts ops whose shadow classification disagrees with
	// what the transport decorator saw (traced simnet runs only).
	// ReplicaLost is the part of it where the shadow said local and the
	// acquire left the node all the same: from-space reuse reclaims read
	// replicas, and their tokens with them, behind the model's back.
	RemoteMismatch, ReplicaLost int
	// RemoteOps lists the ops of a traced run the shadow called remote.
	RemoteOps []int32

	Counters map[string]int64 // Stats snapshot deltas over the loop
	HopSum   int64            // dsm.acquire.hops histogram deltas
	HopCount int64
	Mallocs  uint64 // runtime.MemStats deltas over the loop
	AllocB   uint64
	GCPause  time.Duration
}

// BlockOps is the length of one block in ops: a multiple of every
// workload's sync, drain and collection period.
const BlockOps = 2000

// Block is one stretch of BlockOps consecutive ops, background work
// included. Blocks repeat the same work, so comparing them tells the
// program's speed from the box's noise: see Quiet.
type Block struct {
	NS                       int64   // wall time of the block
	OpP50, ReadP50, WriteP50 float64 // median op and remote-acquire latencies, ns
}

// blockHists collect one block's latencies and are reset at its end.
type blockHists struct{ op, read, write Hist }

// loop state that outlives one pass: the stream position and the write
// counter carry over from warm-up to the measured pass.
type cursor struct {
	pos int    // ops issued so far: stream index and background-work clock
	seq uint64 // last value written
	gcs int    // collections run so far
}

// spanIDs are the harness's own span names, interned once per tracer.
type spanIDs struct {
	op, acquire, access, release       uint16
	sync, run, collect, group, reclaim uint16
	churn                              uint16
}

func internSpans(tr *Tracer) spanIDs {
	return spanIDs{
		op: tr.ID("op"), acquire: tr.ID("cluster.acquire"), access: tr.ID("cluster.access"),
		release: tr.ID("cluster.release"), sync: tr.ID("cluster.sync"), run: tr.ID("cluster.run"),
		collect: tr.ID("gc.collect"), group: tr.ID("gc.group"), reclaim: tr.ID("gc.reclaim"),
		churn: tr.ID("harness.churn"),
	}
}

// Run issues ops from the stream until maxOps are done (maxOps > 0) or box
// has elapsed, one at a time from the calling goroutine, and checks every
// read against the shadow model. A non-nil tracer makes it the traced run:
// spans around every call into the program, and the decorators switched on.
//
// The loop runs on a goroutine of its own, the client, while the caller
// waits: at HEAD every node-lock acquisition walks the calling goroutine's
// stack (cluster.gid), so an op's cost grows with the depth it is issued
// from, and the harness's own call chain must not be part of that.
func (e *Env) Run(box time.Duration, maxOps int, tr *Tracer) *LoopResult {
	res := &LoopResult{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.loop(res, box, maxOps, tr)
	}()
	<-done
	return res
}

func (e *Env) loop(res *LoopResult, box time.Duration, maxOps int, tr *Tracer) {
	ids := internSpans(tr)
	if tr != nil {
		if e.net != nil {
			e.net.SetTracer(tr)
			defer e.net.SetTracer(nil)
		}
		if e.stores != nil {
			e.stores.SetTracer(tr)
			defer e.stores.SetTracer(nil)
		}
	}
	w, ops, nodes := e.W, e.Stream.Ops, e.nodes
	before := e.Counters()
	hopSum, hopCount := e.Hops()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	blk := new(blockHists)
	start := time.Now()
	blockStart := start
	for {
		if res.Ops%BlockOps == 0 && res.Ops > 0 {
			now := time.Now()
			res.Blocks = append(res.Blocks, Block{
				NS: int64(now.Sub(blockStart)), OpP50: blk.op.Quantile(0.5),
				ReadP50: blk.read.Quantile(0.5), WriteP50: blk.write.Quantile(0.5),
			})
			*blk = blockHists{}
			blockStart = now
			// A time-boxed run ends at a block boundary: every block is whole.
			if maxOps <= 0 && now.Sub(start) >= box {
				break
			}
		}
		if res.Ops == maxOps && maxOps > 0 {
			break
		}
		i := e.cur.pos
		op := ops[i%len(ops)]
		node, slot, write := i%w.Nodes, op.Slot(), op.Write()
		n, ref := nodes[node], e.slots[slot]
		remote := e.Shadow.Acquire(node, slot, write)
		var calls int
		if e.net != nil {
			calls = e.net.calls
		}
		tr.SetOp(i)

		var err error
		var got uint64
		t0 := time.Now()
		spOp := tr.Begin(ids.op)
		sp := tr.Begin(ids.acquire)
		if write {
			err = n.AcquireWrite(ref)
		} else {
			err = n.AcquireRead(ref)
		}
		tr.End(sp)
		acq := time.Since(t0)
		if err == nil {
			sp = tr.Begin(ids.access)
			if write {
				e.cur.seq++
				err = n.WriteWord(ref, 0, e.cur.seq)
			} else {
				got, err = n.ReadWord(ref, 0)
			}
			tr.End(sp)
			sp = tr.Begin(ids.release)
			n.Release(ref)
			tr.End(sp)
		}
		tr.End(spOp)
		lat := int64(time.Since(t0))
		res.Op.Add(lat)
		blk.op.Add(lat)

		switch {
		case err != nil:
			res.fail(fmt.Sprintf("op %d at node %d on %v: %v", i, node, ref, err))
		case write:
			e.Shadow.val[slot] = e.cur.seq
			res.Writes++
		case got != e.Shadow.val[slot]:
			res.fail(fmt.Sprintf("op %d at node %d read %d from %v, the stream last wrote %d", i, node, got, ref, e.Shadow.val[slot]))
		}
		if remote {
			if tr != nil {
				res.RemoteOps = append(res.RemoteOps, int32(i))
			}
			if write {
				res.AcqRemoteWrite.Add(int64(acq))
				blk.write.Add(int64(acq))
			} else {
				res.AcqRemoteRead.Add(int64(acq))
				blk.read.Add(int64(acq))
			}
		}
		if tr != nil && e.net != nil && remote != (e.net.calls > calls) {
			res.RemoteMismatch++
			if !remote {
				res.ReplicaLost++
			}
		}
		res.Ops++
		e.cur.pos++
		e.background(res, tr, ids)
	}
	res.Wall = time.Since(start)

	runtime.ReadMemStats(&m1)
	res.Mallocs, res.AllocB = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	res.GCPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	res.HopSum, res.HopCount = e.Hops()
	res.HopSum, res.HopCount = res.HopSum-hopSum, res.HopCount-hopCount
	res.Counters = e.Counters()
	for k, v := range before {
		if res.Counters[k] -= v; res.Counters[k] == 0 {
			delete(res.Counters, k)
		}
	}
}

func (r *LoopResult) fail(msg string) {
	if r.Failed == 0 {
		r.FirstError = msg
	}
	r.Failed++
}

// timed runs f under span id and records its wall time in h.
func timed(tr *Tracer, id uint16, h *Hist, f func()) {
	t0 := time.Now()
	sp := tr.Begin(id)
	f()
	tr.End(sp)
	h.Add(int64(time.Since(t0)))
}

// background does the work the workload schedules between ops, keyed to the
// number of ops issued so far so that it is a function of the stream
// position alone: log syncs, bunch collections with churn, drains.
func (e *Env) background(res *LoopResult, tr *Tracer, ids spanIDs) {
	w, c := e.W, e.cur.pos
	tr.SetOp(-1)
	if w.SyncEvery > 0 && c%w.SyncEvery == 0 {
		// Round-robin over the nodes: the op count at a sync is a multiple
		// of the node count, so "the issuing node" would always be the same.
		n := e.nodes[(c/w.SyncEvery)%w.Nodes]
		timed(tr, ids.sync, &res.NodeSync, n.Sync)
	}
	if w.CollectEvery > 0 && c%w.CollectEvery == 0 {
		e.collect(res, tr, ids)
	}
	if w.DrainEvery > 0 && c%w.DrainEvery == 0 {
		timed(tr, ids.run, &res.Drain, func() { res.Drained += e.Drain() })
	}
}

// collect is one collection round of gc_persist: the next node in rotation
// unroots Churn of its home objects, allocates as many fresh rooted ones in
// their slots, and collects the shared bunch; every 8th round also reuses
// from-space, every 16th runs the group collector; then the background
// tables are delivered.
func (e *Env) collect(res *LoopResult, tr *Tracer, ids spanIDs) {
	w, k := e.W, e.cur.gcs
	e.cur.gcs++
	node := k % w.Nodes
	n := e.nodes[node]

	sp := tr.Begin(ids.churn)
	first := (k / w.Nodes * w.Churn) % w.PerNode
	for j := 0; j < w.Churn; j++ {
		slot := node*w.PerNode + (first+j)%w.PerNode
		n.RemoveRoot(e.slots[slot])
		fresh, err := e.allocRooted(node)
		if err != nil {
			res.fail(err.Error())
			continue
		}
		e.slots[slot] = fresh
		e.Shadow.Reset(node, slot)
	}
	tr.End(sp)

	var st bmx.CollectStats
	timed(tr, ids.collect, &res.Collect, func() { st = n.CollectBunch(e.bunch) })
	res.DeadSeen += st.Dead
	res.LiveObjs += st.LiveStrong + st.LiveWeak
	res.CopiedWords += st.CopiedWords
	res.ScannedWords += st.ScannedWords
	if k%8 == 7 {
		timed(tr, ids.reclaim, &res.Reclaim, func() { n.ReclaimFromSpace(e.bunch) })
	}
	if k%16 == 15 {
		timed(tr, ids.group, &res.Group, func() { res.DeadSeen += n.CollectGroup(nil).Dead })
	}
	timed(tr, ids.run, &res.Drain, func() { res.Drained += e.Drain() })
}

// Audit is the final check: every object still rooted is acquirable at its
// home node and holds the value the stream last wrote. It returns the number
// of objects checked and the failures.
func (e *Env) Audit() (checked int, failures []string) {
	for slot, ref := range e.slots {
		home := slot / e.W.PerNode
		n := e.nodes[home]
		e.Shadow.Acquire(home, slot, false)
		checked++
		if err := n.AcquireRead(ref); err != nil {
			failures = append(failures, fmt.Sprintf("audit: %v not acquirable at home: %v", ref, err))
			continue
		}
		got, err := n.ReadWord(ref, 0)
		n.Release(ref)
		if err != nil {
			failures = append(failures, fmt.Sprintf("audit: read %v: %v", ref, err))
		} else if got != e.Shadow.val[slot] {
			failures = append(failures, fmt.Sprintf("audit: %v holds %d, the stream last wrote %d", ref, got, e.Shadow.val[slot]))
		}
	}
	return checked, failures
}

// StoreSyncs sums the syncs the stores themselves counted.
func (e *Env) StoreSyncs() int64 {
	var total int64
	for _, d := range e.disks {
		_, _, syncs := d.Stats()
		total += syncs
	}
	return total
}
