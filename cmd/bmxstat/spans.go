package main

import (
	"fmt"
	"strings"

	"bmx/internal/obs"
)

// Span-tree analysis: `bmxstat -spans a.ndjson b.ndjson c.ndjson` stitches
// the per-process streams into cross-process span trees and
// prints the per-op latency breakdown, the slowest acquires hop by hop,
// and the per-trace §4.4 verdict.

// spansJSON is the -json shape of the span report.
type spansJSON struct {
	Traces       int               `json:"traces"`
	Complete     int               `json:"complete"`
	CrossProcess int               `json:"cross_process"`
	Orphans      int               `json:"orphans"`
	Ops          []spanOpJSON      `json:"ops"`
	Slowest      []slowJSON        `json:"slowest_acquires,omitempty"`
	Violations   []traceFaultsJSON `json:"violations,omitempty"`
	ScionOnPath  int               `json:"scion_on_path"`
}

type spanOpJSON struct {
	Op    string `json:"op"`
	Count int    `json:"count"`
	Sum   int64  `json:"sum_ticks"`
	Self  int64  `json:"self_ticks"`
	P50   int64  `json:"p50"`
	P95   int64  `json:"p95"`
	P99   int64  `json:"p99"`
	Max   int64  `json:"max"`
}

type slowJSON struct {
	Trace   uint64    `json:"trace"`
	OID     string    `json:"oid"`
	Op      string    `json:"op"`
	Elapsed int64     `json:"elapsed"`
	Hops    []hopJSON `json:"hops"`
	Verdict string    `json:"verdict"`
	GCMsgs  []string  `json:"gc_messages,omitempty"`
}

type hopJSON struct {
	Depth   int    `json:"depth"`
	Op      string `json:"op"`
	Node    string `json:"node"`
	Elapsed int64  `json:"elapsed"`
	Self    int64  `json:"self"`
}

type traceFaultsJSON struct {
	Trace    uint64   `json:"trace"`
	Messages []string `json:"messages"`
}

func printSpans(evs []obs.Event, topN int, asJSON bool) {
	traces := obs.BuildSpanTraces(evs)
	if len(traces) == 0 {
		fail(fmt.Errorf("no span events in this trace (was the run traced, and on a build with span instrumentation?)"))
	}
	doc := spansJSON{Traces: len(traces)}
	for _, t := range traces {
		if t.Complete() {
			doc.Complete++
		}
		if t.CrossProcess() {
			doc.CrossProcess++
		}
		doc.Orphans += len(t.Orphans)
		v := t.Verdict()
		doc.ScionOnPath += len(v.ScionMessages)
		if !v.Clean() {
			f := traceFaultsJSON{Trace: t.ID}
			for _, e := range v.GCMessages {
				f.Messages = append(f.Messages, e.String())
			}
			doc.Violations = append(doc.Violations, f)
		}
	}
	for _, row := range obs.SpanOpsOf(traces) {
		s := row.Ticks.Summary()
		doc.Ops = append(doc.Ops, spanOpJSON{
			Op: row.Op.String(), Count: row.Count, Sum: s.Sum, Self: row.Self,
			P50: s.P50, P95: s.P95, P99: s.P99, Max: s.Max,
		})
	}
	for _, sa := range obs.SlowestAcquires(traces, topN) {
		v := sa.Trace.Verdict()
		sj := slowJSON{
			Trace: sa.Trace.ID, OID: sa.Span.OID.String(),
			Op: sa.Span.Op.String(), Elapsed: sa.Span.Elapsed,
			Verdict: verdictWord(v),
		}
		var walkHops func(s *obs.Span, depth int)
		walkHops = func(s *obs.Span, depth int) {
			sj.Hops = append(sj.Hops, hopJSON{
				Depth: depth, Op: s.Op.String(), Node: s.Node.String(),
				Elapsed: s.Elapsed, Self: s.SelfTicks(),
			})
			for _, c := range s.Children {
				walkHops(c, depth+1)
			}
		}
		walkHops(sa.Span, 0)
		for _, e := range v.GCMessages {
			sj.GCMsgs = append(sj.GCMsgs, e.String())
		}
		doc.Slowest = append(doc.Slowest, sj)
	}

	if asJSON {
		emitJSON(doc)
		return
	}

	fmt.Printf("-- span traces --\n")
	fmt.Printf("%d traces (%d complete, %d cross-process), %d orphaned spans\n",
		doc.Traces, doc.Complete, doc.CrossProcess, doc.Orphans)
	fmt.Println()

	fmt.Println("-- latency by operation (flamegraph totals, slowest first) --")
	fmt.Printf("%-20s %7s %10s %10s %7s %7s %7s %8s\n",
		"op", "count", "sum", "self", "p50", "p95", "p99", "max")
	for _, o := range doc.Ops {
		fmt.Printf("%-20s %7d %10d %10d %7d %7d %7d %8d\n",
			o.Op, o.Count, o.Sum, o.Self, o.P50, o.P95, o.P99, o.Max)
	}
	fmt.Println()

	fmt.Printf("-- slowest %d acquires, hop by hop --\n", topN)
	for _, s := range doc.Slowest {
		fmt.Printf("trace %x  %s %s  %d ticks  §4.4 %s\n", s.Trace, s.Op, s.OID, s.Elapsed, s.Verdict)
		for _, h := range s.Hops {
			fmt.Printf("  %s%-20s node=%-4s %6d ticks (self %d)\n",
				strings.Repeat("  ", h.Depth), h.Op, h.Node, h.Elapsed, h.Self)
		}
		for _, m := range s.GCMsgs {
			fmt.Printf("  !! GC message on critical path: %s\n", m)
		}
	}
	fmt.Println()

	fmt.Println("-- §4.4 verdict (per trace) --")
	fmt.Printf("%d/%d traces clean; %d sanctioned scion-messages on critical paths\n",
		doc.Traces-len(doc.Violations), doc.Traces, doc.ScionOnPath)
	for _, f := range doc.Violations {
		fmt.Printf("!! trace %x carries %d non-scion GC messages inside critical-path spans:\n", f.Trace, len(f.Messages))
		for _, m := range f.Messages {
			fmt.Printf("   %s\n", m)
		}
	}
	if len(doc.Violations) == 0 {
		fmt.Println("no trace carries a non-scion GC message inside its critical-path spans")
	}
}

func verdictWord(v obs.TraceVerdict) string {
	if v.Clean() {
		return "clean"
	}
	return fmt.Sprintf("VIOLATED (%d gc messages)", len(v.GCMessages))
}
