package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"bmx/internal/obs"
)

// CI perf gate: `bmxstat -bench BENCH_6_flip.json -ref BENCH_REF.json
// -gate 25` compares a fresh benchmark envelope against the committed
// reference and exits non-zero when a gated metric regressed by more than
// the given percentage. `-make-ref` builds the reference file from a
// comma-separated list of envelopes, keyed by filename base, keeping only
// each envelope's gated figures.

const acquireTicksSeries = "dsm.acquire.ticks"

// gateFigures are the envelope figures the gate watches: the paper's
// headline costs, and all a reference records. The acquire p99 comes from
// the power-of-two histogram series, so it only moves when latency moves
// across a bucket boundary — coarse, which is exactly what a drift gate
// wants.
type gateFigures struct {
	MsgsPerMutatorOp   float64 `json:"msgs_per_mutator_op"`
	GCCopyWords        int64   `json:"gc_copy_words"`
	AcquireTicksP99    int64   `json:"acquire_ticks_p99"`
	SyncsPerFlip       float64 `json:"syncs_per_flip"`
	RemoteAccessRatio  float64 `json:"remote_access_ratio"`
	OwnerMismatchCount int64   `json:"owner_mismatch_count"`
}

func figuresOf(b obs.BenchSummary) gateFigures {
	return gateFigures{
		MsgsPerMutatorOp:   b.MsgsPerMutatorOp,
		GCCopyWords:        b.GCCopyWords,
		AcquireTicksP99:    b.Series[acquireTicksSeries].Final.P99,
		SyncsPerFlip:       b.SyncsPerFlip,
		RemoteAccessRatio:  b.RemoteAccessRatio,
		OwnerMismatchCount: b.OwnerMismatchCount,
	}
}

// refKey names an envelope inside BENCH_REF.json: the artifact's filename
// base, so the reference and the Makefile agree without a manifest.
func refKey(path string) string {
	return filepath.Base(strings.TrimSuffix(path, ","))
}

func readBenchRef(path string) map[string]gateFigures {
	r := open(path)
	defer r.Close()
	ref := map[string]gateFigures{}
	if err := json.NewDecoder(r).Decode(&ref); err != nil {
		fail(fmt.Errorf("%s: %v", path, err))
	}
	return ref
}

// makeRef merges the gated figures of the given benchmark envelopes into
// one reference document on stdout, keyed by filename base.
func makeRef(benchList string) {
	ref := map[string]gateFigures{}
	for _, p := range strings.Split(benchList, ",") {
		ref[refKey(p)] = figuresOf(readBench(p))
	}
	emitJSON(ref)
}

// gateViolations compares one current envelope against its reference and
// returns a human-readable line per violated metric. pct is the allowed
// upward drift in percent; improvements never violate.
func gateViolations(cur, ref gateFigures, pct float64) []string {
	var out []string
	worse := func(metric string, cur, ref float64) {
		if ref <= 0 {
			// A zero reference means the metric must stay zero: any
			// appearance is a regression no tolerance excuses (this is how
			// syncs-per-flip catches a group-commit discipline break).
			if cur > 0 {
				out = append(out, fmt.Sprintf("%s: %.2f appeared (reference is 0)", metric, cur))
			}
			return
		}
		drift := (cur - ref) / ref * 100
		if drift > pct {
			out = append(out, fmt.Sprintf("%s: %.2f vs reference %.2f (+%.1f%% > %.1f%% allowed)",
				metric, cur, ref, drift, pct))
		}
	}
	worse("msgs-per-mutator-op", cur.MsgsPerMutatorOp, ref.MsgsPerMutatorOp)
	worse("gc-copy-words", float64(cur.GCCopyWords), float64(ref.GCCopyWords))
	worse("acquire-ticks-p99", float64(cur.AcquireTicksP99), float64(ref.AcquireTicksP99))
	// Syncs-per-flip is 0 on runs without a store (and without a flip).
	worse("syncs-per-flip", cur.SyncsPerFlip, ref.SyncsPerFlip)
	// The locality pair: a placement or protocol change that makes acquires
	// leave their node more often, or strands more objects away from their
	// dominant writer, regresses the figure the heat table exists to watch.
	worse("remote-access-ratio", cur.RemoteAccessRatio, ref.RemoteAccessRatio)
	worse("owner-mismatch-count", float64(cur.OwnerMismatchCount), float64(ref.OwnerMismatchCount))
	return out
}

// runGate gates one envelope against the reference document and exits the
// process: 0 when every metric holds, 1 on any violation.
func runGate(benchPath, refPath string, pct float64) {
	cur := figuresOf(readBench(benchPath))
	ref := readBenchRef(refPath)
	key := refKey(benchPath)
	refSum, ok := ref[key]
	if !ok {
		keys := make([]string, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fail(fmt.Errorf("no reference for %q in %s (has: %s)", key, refPath, strings.Join(keys, ", ")))
	}
	violations := gateViolations(cur, refSum, pct)
	if len(violations) == 0 {
		fmt.Printf("gate PASS %s: msgs/op %.2f, gc copy %d words, acquire p99 %d, within %.0f%% of reference\n",
			key, cur.MsgsPerMutatorOp, cur.GCCopyWords, cur.AcquireTicksP99, pct)
		return
	}
	fmt.Printf("gate FAIL %s: %d metric(s) regressed beyond %.0f%%\n", key, len(violations), pct)
	for _, v := range violations {
		fmt.Printf("  %s\n", v)
	}
	os.Exit(1)
}
