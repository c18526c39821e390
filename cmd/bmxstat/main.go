// Command bmxstat is the offline trace analyzer: it reads the flight
// recorder's NDJSON event stream (a `bmxd -trace-json` capture or an
// /events download) and/or the time-series sampler's NDJSON (a /series
// download from bmxd -http), and prints what a run actually did — the hot objects, the
// acquire-path and critical-path breakdowns, the per-phase GC cost, the
// biography of one object, or an A/B comparison of two runs.
//
// Examples:
//
//	bmxd -nodes 3 -rounds 6 -workload tree -seed 5 -trace-json > run.ndjson
//	bmxstat -trace run.ndjson                 # overview: top objects, hops, GC
//	bmxstat -trace run.ndjson -oid O36        # one object's biography
//	bmxstat -trace run.ndjson -top 20         # more hot objects
//	bmxstat -series a.ndjson -diff b.ndjson   # A/B two runs' series
//	bmxstat -trace n0.ndjson,n1.ndjson -spans # cross-process span trees
//	bmxstat -trace n0.ndjson,n1.ndjson -heat  # merged access heatmap + locality
//	bmxstat -bench BENCH_4.json -ref BENCH_REF.json -gate 25  # perf gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"

	"bmx/internal/addr"
	"bmx/internal/introspect"
	"bmx/internal/obs"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bmxstat:", err)
	os.Exit(1)
}

func open(path string) io.ReadCloser {
	if path == "-" {
		return os.Stdin
	}
	f, err := os.Open(path)
	if err != nil {
		fail(err)
	}
	return f
}

func main() {
	var (
		tracePath  = flag.String("trace", "", "event NDJSON to analyze (a bmxd -trace-json capture or an /events download; - for stdin)")
		seriesPath = flag.String("series", "", "time-series NDJSON to analyze (a /series download from bmxd -http; - for stdin)")
		benchPath  = flag.String("bench", "", "benchmark summary JSON to analyze (a bmxd -bench-json artifact; - for stdin)")
		diffPath   = flag.String("diff", "", "second run to compare against -series (time-series NDJSON) or -bench (summary JSON); prints an A/B comparison")
		oidFlag    = flag.String("oid", "", "print the biography of this object (accepts 36 or O36)")
		topN       = flag.Int("top", 10, "how many hot objects the overview lists (and how many slowest acquires -spans renders)")
		asJSON     = flag.Bool("json", false, "machine-readable output")
		spansFlag  = flag.Bool("spans", false, "reconstruct cross-process span trees from -trace (comma-separated per-process captures) and print latency attribution plus the per-trace §4.4 verdict")
		heatFlag   = flag.Bool("heat", false, "merge the heat rows of -trace (comma-separated per-process captures or /heat downloads) and print the cluster-wide locality report")
		refPath    = flag.String("ref", "", "benchmark reference document (BENCH_REF.json) for -gate")
		gatePct    = flag.Float64("gate", 0, "with -bench and -ref: allowed upward drift in percent; exits 1 when a gated metric regressed further")
		makeRefFlg = flag.Bool("make-ref", false, "merge the -bench list (comma-separated envelopes) into a reference document on stdout")
	)
	flag.Parse()
	if *tracePath == "" && *seriesPath == "" && *benchPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *makeRefFlg {
		if *benchPath == "" {
			fail(fmt.Errorf("-make-ref needs -bench with the envelope list"))
		}
		makeRef(*benchPath)
		return
	}
	if *gatePct > 0 {
		if *benchPath == "" || *refPath == "" {
			fail(fmt.Errorf("-gate needs -bench and -ref"))
		}
		runGate(*benchPath, *refPath, *gatePct)
		return
	}
	if *heatFlag {
		// Heat mode parses its own rows (a /heat download has no events at
		// all), so it runs before the event reader and its emptiness check.
		if *tracePath == "" {
			fail(fmt.Errorf("-heat needs -trace"))
		}
		printHeat(*tracePath, *topN, *asJSON)
		return
	}

	var evs []obs.Event
	if *tracePath != "" {
		// -trace accepts a comma-separated list: the per-process captures
		// of a multi-process run (bmxd -trace-out) merge into one stream,
		// ordered by the transport's Lamport tick.
		paths := strings.Split(*tracePath, ",")
		for _, p := range paths {
			r := open(p)
			part, err := obs.ReadEventsNDJSONLoose(r)
			r.Close()
			if err != nil {
				fail(err)
			}
			evs = append(evs, part...)
		}
		if len(evs) == 0 {
			fail(fmt.Errorf("%s contains no events (was the run traced with -trace-json?)", *tracePath))
		}
		if len(paths) > 1 {
			sort.SliceStable(evs, func(i, j int) bool { return evs[i].Tick < evs[j].Tick })
		}
	}
	var samples []obs.Sample
	if *seriesPath != "" {
		r := open(*seriesPath)
		var err error
		samples, err = obs.ReadSamplesNDJSON(r)
		r.Close()
		if err != nil {
			fail(err)
		}
	}

	switch {
	case *spansFlag:
		if evs == nil {
			fail(fmt.Errorf("-spans needs -trace"))
		}
		printSpans(evs, *topN, *asJSON)
	case *oidFlag != "":
		if evs == nil {
			fail(fmt.Errorf("-oid needs -trace"))
		}
		oid, err := introspect.ParseOID(*oidFlag)
		if err != nil {
			fail(err)
		}
		printBiography(evs, oid, *asJSON)
	case *benchPath != "":
		a := readBench(*benchPath)
		if *diffPath != "" {
			printDiff(a, readBench(*diffPath), *benchPath, *diffPath, *asJSON)
			return
		}
		if *asJSON {
			emitJSON(a)
			return
		}
		printBench(a)
	case *diffPath != "":
		if samples == nil {
			fail(fmt.Errorf("-diff needs -series or -bench"))
		}
		r := open(*diffPath)
		other, err := obs.ReadSamplesNDJSON(r)
		r.Close()
		if err != nil {
			fail(err)
		}
		printDiff(obs.BenchOf(samples), obs.BenchOf(other), *seriesPath, *diffPath, *asJSON)
	default:
		printOverview(evs, samples, *topN, *asJSON)
	}
}

// printBiography tells one object's story, flagging any ownerPtr cycle the
// trail contains (the O36 failure shape).
func printBiography(evs []obs.Event, oid addr.OID, asJSON bool) {
	bio := obs.BiographyOf(evs, oid)
	if len(bio.Entries) == 0 {
		fail(fmt.Errorf("no events for %v in this trace", oid))
	}
	if asJSON {
		emitJSON(introspect.BioJSON(bio))
		return
	}
	fmt.Printf("biography of %v — %d events\n", oid, len(bio.Entries))
	if len(bio.Owners) > 0 {
		fmt.Print("ownership timeline:")
		for _, n := range bio.Owners {
			fmt.Printf(" %v", n)
		}
		fmt.Println()
	}
	if len(bio.Trail) > 0 {
		fmt.Printf("ownerPtr hop trail (%d forwards):", len(bio.Trail))
		for _, n := range bio.Trail {
			fmt.Printf(" %v", n)
		}
		fmt.Println()
	}
	if len(bio.Cycle) != 0 {
		fmt.Printf("!! ROUTING CYCLE in the hop trail: %v — stale ownerPtr edges looped\n", bio.Cycle)
	}
	fmt.Println()
	for _, en := range bio.Entries {
		fmt.Printf("%8d %6d  %s\n", en.Event.Seq, en.Event.Tick, en.What)
	}
}

// overviewJSON is the -json shape of the default report.
type overviewJSON struct {
	Hot    []obs.HotObject   `json:"hot,omitempty"`
	Hops   *obs.HopStats     `json:"hops,omitempty"`
	Crit   *obs.CritStats    `json:"crit,omitempty"`
	GC     *obs.GCStats      `json:"gc,omitempty"`
	Series *obs.BenchSummary `json:"series,omitempty"`
}

func printOverview(evs []obs.Event, samples []obs.Sample, topN int, asJSON bool) {
	var doc overviewJSON
	if evs != nil {
		hops := obs.HopsOf(evs)
		crit := obs.CritOf(evs)
		gc := obs.GCOf(evs)
		doc.Hot = obs.HotObjects(evs, topN)
		doc.Hops, doc.Crit, doc.GC = &hops, &crit, &gc
	}
	if samples != nil {
		b := obs.BenchOf(samples)
		doc.Series = &b
	}
	if asJSON {
		emitJSON(doc)
		return
	}
	if evs != nil {
		fmt.Printf("-- hot objects (top %d of the trace) --\n", topN)
		fmt.Printf("%-8s %9s %9s %6s %9s\n", "oid", "acquires", "hops", "moves", "events")
		for _, h := range doc.Hot {
			fmt.Printf("%-8v %9d %9d %6d %9d\n", h.OID, h.Acquires, h.Hops, h.Transfers, h.Events)
		}
		fmt.Println()
		fmt.Println("-- acquire paths --")
		fmt.Printf("remote grants %d, local fast path %d, reroutes %d, stale routes avoided %d\n",
			doc.Hops.Grants, doc.Hops.LocalFast, doc.Hops.Reroutes, doc.Hops.Cycles)
		hq := doc.Hops.Hops.Summary()
		if hq.Count > 0 {
			fmt.Printf("chain hops: p50<=%d p95<=%d p99<=%d max=%d\n", hq.P50, hq.P95, hq.P99, hq.Max)
		}
		fmt.Println()
		fmt.Println("-- critical path --")
		fmt.Printf("app calls %d, app sends %d; gc calls %d, gc sends %d (scion-messages %d)\n",
			doc.Crit.AppCalls, doc.Crit.AppSends, doc.Crit.GCCalls, doc.Crit.GCSends, doc.Crit.GCScion)
		if extra := doc.Crit.GCCalls + doc.Crit.GCSends - doc.Crit.GCScion; extra != 0 {
			fmt.Printf("!! %d non-scion GC messages on the critical path — the paper's §4.4 claim is violated\n", extra)
		}
		fmt.Println()
		fmt.Println("-- collector phases --")
		fmt.Printf("runs %d (group %d), scanned %d objects, copied %d objects / %d words, reclaimed %d (%d owner-side), %d segment words freed\n",
			doc.GC.Runs, doc.GC.GroupRuns, doc.GC.TraceScanned, doc.GC.CopiedObjects,
			doc.GC.CopiedWords, doc.GC.Reclaimed, doc.GC.OwnedReclaims, doc.GC.SegWordsFreed)
		rp, fp := doc.GC.RootsPause.Summary(), doc.GC.FlipPause.Summary()
		if rp.Count > 0 {
			fmt.Printf("pauses: roots p50<=%d max=%d ticks; flip p50<=%d max=%d ticks; total gc %d ticks\n",
				rp.P50, rp.Max, fp.P50, fp.Max, doc.GC.TotalTicks)
		}
	}
	if doc.Series != nil {
		fmt.Println()
		printBench(*doc.Series)
	}
}

func printBench(b obs.BenchSummary) {
	fmt.Printf("-- time series (%d samples, %d ticks) --\n", b.Samples, b.Ticks)
	fmt.Printf("messages per mutator op: %.2f; gc copy %d words, gc scanned %d objects\n",
		b.MsgsPerMutatorOp, b.GCCopyWords, b.GCScanObjects)
	if b.StoreSyncs > 0 {
		fmt.Printf("durability: %d store syncs, %.2f syncs/flip, %.0f log bytes/collection\n",
			b.StoreSyncs, b.SyncsPerFlip, b.LogBytesPerCollection)
	}
	if b.RemoteAccessRatio > 0 || b.OwnerMismatchCount > 0 {
		fmt.Printf("locality: remote access ratio %.2f, %d owner/dominant-writer mismatches\n",
			b.RemoteAccessRatio, b.OwnerMismatchCount)
	}
	names := make([]string, 0, len(b.Series))
	for name := range b.Series {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		qs := b.Series[name]
		f := qs.Final
		fmt.Printf("%-24s n=%-7d p50<=%-6d p95<=%-6d p99<=%-6d max=%d\n",
			name, f.Count, f.P50, f.P95, f.P99, f.Max)
	}
}

// diffJSON is the -json shape of the A/B report.
type diffJSON struct {
	A        obs.BenchSummary `json:"a"`
	B        obs.BenchSummary `json:"b"`
	Counters []counterDiff    `json:"counters"`
}

type counterDiff struct {
	Name string `json:"name"`
	A    int64  `json:"a"`
	B    int64  `json:"b"`
}

func printDiff(a, b obs.BenchSummary, aName, bName string, asJSON bool) {
	names := map[string]bool{}
	for k := range a.Counters {
		names[k] = true
	}
	for k := range b.Counters {
		names[k] = true
	}
	sorted := make([]string, 0, len(names))
	for k := range names {
		sorted = append(sorted, k)
	}
	slices.Sort(sorted)
	var diffs []counterDiff
	for _, k := range sorted {
		if a.Counters[k] != b.Counters[k] {
			diffs = append(diffs, counterDiff{Name: k, A: a.Counters[k], B: b.Counters[k]})
		}
	}
	if asJSON {
		emitJSON(diffJSON{A: a, B: b, Counters: diffs})
		return
	}
	fmt.Printf("A = %s (%d samples), B = %s (%d samples)\n", aName, a.Samples, bName, b.Samples)
	fmt.Printf("messages per mutator op: A %.2f vs B %.2f\n", a.MsgsPerMutatorOp, b.MsgsPerMutatorOp)
	fmt.Printf("gc copy words: A %d vs B %d; gc scanned: A %d vs B %d\n",
		a.GCCopyWords, b.GCCopyWords, a.GCScanObjects, b.GCScanObjects)
	if a.StoreSyncs > 0 || b.StoreSyncs > 0 {
		fmt.Printf("store syncs: A %d vs B %d; syncs/flip: A %.2f vs B %.2f; log bytes/collection: A %.0f vs B %.0f\n",
			a.StoreSyncs, b.StoreSyncs, a.SyncsPerFlip, b.SyncsPerFlip,
			a.LogBytesPerCollection, b.LogBytesPerCollection)
	}
	fmt.Println()
	fmt.Println("-- counters that differ --")
	fmt.Printf("%-32s %12s %12s %10s\n", "counter", "A", "B", "delta")
	for _, d := range diffs {
		fmt.Printf("%-32s %12d %12d %+10d\n", d.Name, d.A, d.B, d.B-d.A)
	}
	fmt.Println()
	fmt.Println("-- final quantiles (A | B) --")
	hnames := map[string]bool{}
	for k := range a.Series {
		hnames[k] = true
	}
	for k := range b.Series {
		hnames[k] = true
	}
	hsorted := make([]string, 0, len(hnames))
	for k := range hnames {
		hsorted = append(hsorted, k)
	}
	slices.Sort(hsorted)
	for _, k := range hsorted {
		fa, fb := a.Series[k].Final, b.Series[k].Final
		fmt.Printf("%-24s p50 %d|%d  p95 %d|%d  p99 %d|%d  max %d|%d\n",
			k, fa.P50, fb.P50, fa.P95, fb.P95, fa.P99, fb.P99, fa.Max, fb.Max)
	}
}

// readBench parses a benchmark summary JSON file (the bmxd -bench-json
// artifact CI uploads).
func readBench(path string) obs.BenchSummary {
	r := open(path)
	defer r.Close()
	var b obs.BenchSummary
	if err := json.NewDecoder(r).Decode(&b); err != nil {
		fail(fmt.Errorf("%s: %v", path, err))
	}
	return b
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fail(err)
	}
}
