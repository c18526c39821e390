package harness

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Median returns the median of xs (0 when empty); xs is sorted in place.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quantile returns the q-quantile of xs by linear interpolation between
// ranks (0 when empty); xs is sorted in place.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func us(ns float64) float64 { return ns / 1e3 }
func ms(ns float64) float64 { return ns / 1e6 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// PeakRSSMiB reads the process's resident-set high-water mark (VmHWM). Every
// workload runs in a process of its own, so the mark is that workload's.
func PeakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(string(rest)), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// QuietQ is the quantile of a run's blocks that the timing metrics report.
// The sandbox slows memory-bound code by up to 2× in bursts of a fraction of
// a second to several seconds, one-sidedly; blocks do the same work, so the
// fast decile of their times is what the program takes when the box leaves
// it alone, and it moves far less from run to run than the mean does.
const QuietQ = 0.10

// Quiet returns the quiet-decile value of one per-block statistic, skipping
// blocks that had no sample for it. A run shorter than one block has no
// blocks, and whole is used instead.
func (r *LoopResult) Quiet(stat func(Block) float64, whole float64) float64 {
	var xs []float64
	for _, b := range r.Blocks {
		if x := stat(b); x > 0 {
			xs = append(xs, x)
		}
	}
	if len(xs) == 0 {
		return whole
	}
	return Quantile(xs, QuietQ)
}

// workloadMetrics fills the remote-acquire and collector metrics a loop
// measured: the end-to-end metrics that exist only on some workloads.
func workloadMetrics(v Values, w Workload, res *LoopResult) {
	if m, _ := Find("acq_remote_read_p50_us"); m.On(w.Name) {
		read := res.Quiet(func(b Block) float64 { return b.ReadP50 }, res.AcqRemoteRead.Quantile(0.5))
		write := res.Quiet(func(b Block) float64 { return b.WriteP50 }, res.AcqRemoteWrite.Quantile(0.5))
		v.Set("acq_remote_read_p50_us", us(read), res.AcqRemoteRead.N())
		v.Set("acq_remote_write_p50_us", us(write), res.AcqRemoteWrite.N())
		all := res.AcqRemoteRead
		all.Merge(&res.AcqRemoteWrite)
		if m, _ := Find("acq_remote_p99_us"); all.N() >= m.MinSamples {
			v.Set("acq_remote_p99_us", us(all.Quantile(0.99)), all.N())
		}
	}
	if m, _ := Find("gc_collect_p50_ms"); m.On(w.Name) {
		v.Set("gc_collect_p50_ms", ms(res.Collect.Quantile(0.5)), res.Collect.N())
		gc := res.Collect.Sum() + res.Group.Sum() + res.Reclaim.Sum()
		v.Set("gc_share", ratio(float64(gc), float64(res.Wall)), res.Collect.N()+res.Group.N()+res.Reclaim.N())
	}
}

// EndToEnd turns one untraced, time-boxed loop into the end-to-end metrics
// of its workload. setups are the set-up times of this process (their median
// is setup_s).
func EndToEnd(w Workload, res *LoopResult, setups []time.Duration) (Values, error) {
	v := Values{}
	wall := float64(res.Wall) / float64(res.Ops) * BlockOps
	if !w.Drifts {
		wall = res.Quiet(func(b Block) float64 { return float64(b.NS) }, wall)
	}
	v.Set("ops_per_s", ratio(BlockOps, wall/1e9), uint64(res.Ops))
	v.Set("op_p50_us", us(res.Quiet(func(b Block) float64 { return b.OpP50 }, res.Op.Quantile(0.5))), res.Op.N())
	secs := make([]float64, len(setups))
	for i, d := range setups {
		secs[i] = d.Seconds()
	}
	v.Set("setup_s", Median(secs), uint64(len(setups)))
	rss, err := PeakRSSMiB()
	if err != nil {
		return nil, err
	}
	v.Set("peak_rss_mb", rss, 1)
	workloadMetrics(v, w, res)
	return v, CheckEndToEnd(w.Name, v)
}

// PerLayer turns the traced run (and its untraced twin over the same ops of
// an identically built Env) into the per-layer metrics that come from the
// workload itself. Metrics of a layer the workload never enters read 0: that
// is the "should not move" half of the interaction map.
func PerLayer(env *Env, twin, traced *LoopResult, tr *Tracer) Values {
	v := Values{}
	w, c, ops := env.W, traced.Counters, float64(traced.Ops)
	nops := uint64(traced.Ops)

	// The workload's own end-to-end extras, from the untraced twin.
	workloadMetrics(v, w, twin)

	// Span arithmetic: self time by name, and per-span quantities.
	self := tr.SelfTimes()
	var opSelf int64
	var requester, bgcSelf, syncSelf []float64
	handler := map[string]*[2]int64{"net.call:dsm.acquire": {}, "net.call:dsm.invalidate": {}}
	children := make([]int64, len(tr.spans)) // time covered by net.call children
	for _, s := range tr.spans {
		if p := s.Parent; p >= 0 && strings.HasPrefix(tr.names[s.Name], "net.call:") {
			children[p] += s.End - s.Start
		}
	}
	// On simnet the decorator's spans take the network out of an op's self
	// time. Over TCP there is no decorator, so the cluster layer's own cost
	// is read off the ops that never left the node.
	skip := map[int32]bool{}
	if w.TCP {
		for _, op := range traced.RemoteOps {
			skip[op] = true
		}
	}
	selfOps := float64(traced.Ops - len(skip))
	for i, s := range tr.spans {
		switch name := tr.names[s.Name]; name {
		case "op", "cluster.acquire", "cluster.access", "cluster.release":
			if skip[s.Op] {
				continue
			}
			opSelf += self[i]
			if name == "cluster.acquire" && children[i] > 0 {
				requester = append(requester, float64(s.End-s.Start-children[i]))
			}
		case "gc.collect":
			bgcSelf = append(bgcSelf, float64(self[i]))
		case "cluster.sync":
			syncSelf = append(syncSelf, float64(self[i]))
		default:
			if h := handler[name]; h != nil {
				h[0] += self[i]
				h[1]++
			}
		}
	}

	v.Set("cluster.self_us_per_op", us(ratio(float64(opSelf), selfOps)), uint64(selfOps))

	remote := traced.AcqRemoteRead.N() + traced.AcqRemoteWrite.N()
	v.Set("dsm.remote_acquires_per_op", ratio(float64(remote), ops), nops)
	v.Set("dsm.hops_per_remote_acquire", ratio(float64(traced.HopSum), float64(traced.HopCount)), uint64(traced.HopCount))
	v.Set("dsm.invalidations_per_write", ratio(float64(c["dsm.invalidation.app"]), float64(traced.Writes)), uint64(traced.Writes))
	v.Set("dsm.msgs_per_op", ratio(float64(c["msg.sent.app"]), ops), nops)
	legs := c["msg.sent.kind.dsm.acquire"] + c["msg.sent.kind.dsm.invalidate"]
	v.Set("dsm.rmr_per_op", ratio(float64(legs), ops), nops)
	v.Set("dsm.piggyback_bytes_per_op", ratio(float64(c["bytes.piggyback"]), ops), nops)
	v.Set("dsm.reroutes", float64(c["dsm.route.exhausted"]+c["dsm.route.cycleAvoided"]+c["dsm.reestablished"]), nops)
	v.Set("dsm.requester_self_us", us(Median(requester)), uint64(len(requester)))
	for kind, h := range handler {
		v.Set("dsm.handler_self_us."+strings.TrimPrefix(kind, "net.call:dsm."), us(ratio(float64(h[0]), float64(h[1]))), uint64(h[1]))
	}

	v.Set("transport.counter_names", float64(len(env.Counters())), 1)
	v.Set("simnet.drain_us_per_msg", us(ratio(float64(traced.Drain.Sum()), float64(traced.Drained))), uint64(traced.Drained))
	var tcpMsgs int64
	if w.TCP {
		tcpMsgs = c["msg.sent.app"] + c["msg.sent.gc"] + c["msg.sent.place"]
	}
	v.Set("tcp.msgs_per_op", ratio(float64(tcpMsgs), ops), nops)

	gcs := float64(traced.Collect.N())
	v.Set("core.bgc_us_per_live_obj", us(ratio(float64(traced.Collect.Sum()), float64(traced.LiveObjs))), uint64(traced.LiveObjs))
	v.Set("core.bgc_copied_words_per_collect", ratio(float64(traced.CopiedWords), gcs), traced.Collect.N())
	v.Set("core.bgc_scanned_words_per_collect", ratio(float64(traced.ScannedWords), gcs), traced.Collect.N())
	v.Set("core.bgc_self_ms", ms(Median(bgcSelf)), uint64(len(bgcSelf)))
	v.Set("core.ggc_ms_p50", ms(traced.Group.Quantile(0.5)), traced.Group.N())
	v.Set("core.reclaim_ms_p50", ms(traced.Reclaim.Quantile(0.5)), traced.Reclaim.N())
	v.Set("core.gc_msgs_per_collect", ratio(float64(c["msg.sent.gc"]), gcs), traced.Collect.N())
	v.Set("core.collector_acquires", float64(env.CollectorAcquires()), 1)

	v.Set("rvm.sync_self_us", us(Median(syncSelf)), uint64(len(syncSelf)))
	var st StoreProbe
	if env.stores != nil {
		st = *env.stores
	}
	v.Set("rvm.log_bytes_per_op", ratio(float64(st.LogBytes), ops), nops)
	v.Set("store.sync_p50_us", us(st.SyncNS.Quantile(0.5)), st.SyncNS.N())
	v.Set("store.sync_p99_us", us(st.SyncNS.Quantile(0.99)), st.SyncNS.N())
	v.Set("store.syncs_per_op", ratio(float64(st.Syncs), ops), nops)
	v.Set("store.bytes_written_per_op", ratio(float64(st.BytesWritten), ops), nops)
	v.Set("store.write_amp", ratio(float64(st.BytesWritten), 8*float64(traced.Writes)), uint64(traced.Writes))

	tops := float64(twin.Ops)
	v.Set("harness.allocs_per_op", ratio(float64(twin.Mallocs), tops), uint64(twin.Ops))
	v.Set("harness.alloc_bytes_per_op", ratio(float64(twin.AllocB), tops), uint64(twin.Ops))
	v.Set("harness.go_gc_pause_ms", ms(float64(twin.GCPause)), uint64(twin.Ops))
	v.Set("harness.op_p99_us", us(twin.Op.Quantile(0.99)), twin.Op.N())
	v.Set("harness.trace_overhead_ratio", ratio(ratio(ops, traced.Wall.Seconds()), ratio(tops, twin.Wall.Seconds())), nops)
	v.Set("harness.remote_class_mismatch", float64(traced.RemoteMismatch), nops)
	return v
}
