package main

// End-to-end test of the multi-process mode: build the real bmxd binary
// once, start three processes over loopback, and require the seed's
// convergence audit to pass. The per-process NDJSON traces are then merged
// and the paper's structural probes re-asserted offline — §5 (the collector
// initiates no token acquire, no invalidation) and §4.4 (no GC-class
// message on the application's critical path beyond the sanctioned
// scion-message) — exactly the checks the simulated cluster's flight
// recorder enforces in-process.

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"bmx/internal/obs"
	"bmx/internal/obs/heat"
)

var (
	buildOnce sync.Once
	buildPath string
	buildErr  error
)

// bmxdBinary builds the command under test once per test-process run.
func bmxdBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "bmxd-e2e-")
		if err != nil {
			buildErr = err
			return
		}
		buildPath = filepath.Join(dir, "bmxd")
		cmd := exec.Command("go", "build", "-o", buildPath, ".")
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return buildPath
}

// reserveAddrs picks n distinct loopback addresses by binding ephemeral
// listeners and releasing them just before the processes start.
func reserveAddrs(t *testing.T, n int) []string {
	t.Helper()
	var ls []net.Listener
	var addrs []string
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ls = append(ls, l)
		addrs = append(addrs, l.Addr().String())
	}
	for _, l := range ls {
		l.Close()
	}
	return addrs
}

func TestThreeProcessClusterConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e is not -short")
	}
	bin := bmxdBinary(t)
	addrs := reserveAddrs(t, 3)
	dir := t.TempDir()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	type proc struct {
		addr  string
		trace string
		cmd   *exec.Cmd
		out   strings.Builder
	}
	procs := make([]*proc, len(addrs))
	for i, a := range addrs {
		var peers []string
		for j, b := range addrs {
			if j != i {
				peers = append(peers, b)
			}
		}
		p := &proc{addr: a, trace: filepath.Join(dir, fmt.Sprintf("trace-%d.ndjson", i))}
		p.cmd = exec.CommandContext(ctx, bin,
			"-listen", a, "-peers", strings.Join(peers, ","),
			"-workload", "tree", "-objects", "40", "-rounds", "8",
			"-trace-out", p.trace)
		p.cmd.Stdout = &p.out
		p.cmd.Stderr = &p.out
		procs[i] = p
	}
	// Start order is irrelevant — every process dials every peer with
	// reconnect/backoff until the mesh is up.
	for _, p := range procs {
		if err := p.cmd.Start(); err != nil {
			t.Fatal(err)
		}
	}
	failed := false
	for _, p := range procs {
		if err := p.cmd.Wait(); err != nil {
			failed = true
			t.Errorf("process on %s failed: %v", p.addr, err)
		} else if !strings.Contains(p.out.String(), "SUCCESS") {
			failed = true
			t.Errorf("process on %s exited 0 without SUCCESS", p.addr)
		}
	}
	if failed {
		// Dump every process's output: a wedged follower usually means the
		// seed died or stalled first, and only the full picture shows it.
		for _, p := range procs {
			t.Logf("---- output of %s ----\n%s", p.addr, p.out.String())
		}
		t.FailNow()
	}
	// The seed is the process with the smallest address; it prints the
	// cluster-wide convergence line.
	sorted := append([]string(nil), addrs...)
	sort.Strings(sorted)
	for _, p := range procs {
		if p.addr == sorted[0] && !strings.Contains(p.out.String(), "converged across processes") {
			t.Fatalf("seed output misses the convergence audit:\n%s", p.out.String())
		}
	}

	// Merge the per-process streams on the Lamport tick and re-assert the
	// paper's claims offline. Each stream carries the process's events and
	// its heat table's rows.
	var evs []obs.Event
	var heatParts [][]heat.Row
	for _, p := range procs {
		f, err := os.Open(p.trace)
		if err != nil {
			t.Fatal(err)
		}
		st, err := obs.ReadStream(f)
		f.Close()
		if err != nil {
			t.Fatalf("trace %s: %v", p.trace, err)
		}
		if len(st.Events) == 0 {
			t.Fatalf("trace %s is empty", p.trace)
		}
		evs = append(evs, st.Events...)
		if len(st.Heat) == 0 {
			t.Fatalf("trace %s carries no heat rows", p.trace)
		}
		heatParts = append(heatParts, st.Heat)
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Tick < evs[j].Tick })

	// The heat tables of the three processes must merge into one cluster-wide
	// locality picture: writes rotated across processes, so at least one
	// object must end the run owned by a node other than its dominant writer,
	// with its remote-access ratio attached — the heatmap's whole deliverable.
	rep := heat.Analyze(heat.Merge(heatParts...))
	if rep.TrackedObjects == 0 || rep.TotalAccesses == 0 {
		t.Fatalf("merged heat table is empty: %+v", rep)
	}
	if rep.RemoteAcquires == 0 {
		t.Fatal("merged heat table saw no remote acquires in a 3-process run")
	}
	if len(rep.Mismatches) == 0 {
		t.Fatal("merged heat table names no owner/dominant-writer mismatch")
	}
	m := rep.Mismatches[0]
	t.Logf("heat: %d objects, remote ratio %.2f; top mismatch O%d owner N%d dominant N%d (ratio %.2f)",
		rep.TrackedObjects, rep.RemoteRatio, m.OID, m.Owner, m.Dominant, m.RemoteRatio)

	// If any assertion below fails, leave the merged stream where CI can
	// upload it: `bmxstat -spans <artifact>` then reconstructs the
	// exact trees this test saw.
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		path := os.Getenv("BMX_SPAN_ARTIFACT")
		if path == "" {
			return
		}
		f, err := os.Create(path)
		if err != nil {
			t.Logf("span artifact: %v", err)
			return
		}
		defer f.Close()
		if err := obs.WriteStream(f, obs.Stream{Events: evs}); err != nil {
			t.Logf("span artifact: %v", err)
			return
		}
		t.Logf("merged trace with span events written to %s", path)
	})

	// The stream must carry both sides of the mixed run, or the claims
	// below would hold vacuously.
	var sawGC, sawCriticalApp bool
	for _, e := range evs {
		if e.Kind == obs.KGCStart {
			sawGC = true
		}
		if e.Kind == obs.KCall && e.Class == obs.ClassApp && e.Critical() {
			sawCriticalApp = true
		}
	}
	if !sawGC || !sawCriticalApp {
		t.Fatalf("merged stream misses one side of the run: gc=%v criticalApp=%v (%d events)",
			sawGC, sawCriticalApp, len(evs))
	}

	// §5: zero collector-initiated acquires and invalidations, across all
	// three processes.
	if bad := obs.CollectorAcquires(evs); len(bad) != 0 {
		t.Fatalf("collector initiated %d token acquires; first: %v", len(bad), bad[0])
	}
	if bad := obs.CollectorInvalidations(evs); len(bad) != 0 {
		t.Fatalf("collector caused %d invalidations; first: %v", len(bad), bad[0])
	}
	// §4.4: nothing GC-class rides the critical path except the sanctioned
	// scion-message (the single-bunch tree workload typically emits none
	// at all).
	crit := obs.CriticalGCMessages(evs)
	if bad := obs.NonScion(crit); len(bad) != 0 {
		t.Fatalf("%d non-piggybacked GC messages on the critical path; first: %v", len(bad), bad[0])
	}

	// Span stitching: the three captures must reconstruct at least one
	// COMPLETE cross-process acquire tree — an acquire span whose descendants
	// include a serve.acquire on another process, with no orphaned span and
	// every begin paired with its end. A missing wire hop or a broken ID
	// would surface here as an orphan.
	traces := obs.BuildSpanTraces(evs)
	if len(traces) == 0 {
		t.Fatal("merged stream carries no span events (tracing was on via -trace-out)")
	}
	completeCross := 0
	for _, tr := range traces {
		if tr.Complete() && tr.CrossProcess() {
			completeCross++
			// The paper's §4.4, per trace: an acquire tree must carry no
			// non-scion GC-class message inside its critical-path spans.
			if v := tr.Verdict(); !v.Clean() {
				t.Errorf("trace %x: %d GC-class messages inside critical-path spans; first: %v",
					tr.ID, len(v.GCMessages), v.GCMessages[0])
			}
		}
	}
	if completeCross == 0 {
		orphans := 0
		for _, tr := range traces {
			orphans += len(tr.Orphans)
		}
		t.Fatalf("no complete cross-process acquire trace stitched from %d traces (%d orphaned spans)",
			len(traces), orphans)
	}
	t.Logf("span stitching: %d traces, %d complete cross-process acquire trees", len(traces), completeCross)
}
