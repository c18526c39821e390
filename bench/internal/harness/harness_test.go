package harness

import (
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"
	"time"
)

// The same seed must give the same stream and another seed another one, and
// the stream must have the locality and write share its workload asks for.
func TestStreamDeterminismAndShares(t *testing.T) {
	for _, w := range Workloads {
		a, b, c := Generate(12, w, StreamLen), Generate(12, w, StreamLen), Generate(13, w, StreamLen)
		if a.Hash() != b.Hash() {
			t.Errorf("%s: seed 12 generated two different streams", w.Name)
		}
		if a.Hash() == c.Hash() {
			t.Errorf("%s: seeds 12 and 13 generated the same stream", w.Name)
		}
		affinity, writes := a.Shares()
		if math.Abs(affinity-w.Affinity) > 0.01 {
			t.Errorf("%s: measured affinity %.4f, configured %.2f", w.Name, affinity, w.Affinity)
		}
		if math.Abs(writes-w.WriteShare) > 0.01 {
			t.Errorf("%s: measured write share %.4f, configured %.2f", w.Name, writes, w.WriteShare)
		}
		for i, op := range a.Ops {
			if op.Slot() >= w.Nodes*w.PerNode {
				t.Fatalf("%s: op %d targets slot %d of %d", w.Name, i, op.Slot(), w.Nodes*w.PerNode)
			}
		}
	}
}

// A hand-built sequence on one object homed at node 0 of three.
func TestShadowClassifiesLocalAndRemote(t *testing.T) {
	s := NewShadow(3, 1)
	steps := []struct {
		node       int
		write      bool
		wantRemote bool
		why        string
	}{
		{0, false, false, "the allocator reads its own object"},
		{0, true, false, "the allocator holds the write token"},
		{1, false, true, "a first read elsewhere fetches a copy"},
		{1, false, false, "a second read finds the cached read token"},
		{0, false, false, "the owner, downgraded to read, still reads locally"},
		{0, true, true, "the owner must invalidate node 1's copy"},
		{0, true, false, "now the copy-set is empty again"},
		{2, true, true, "a write elsewhere takes ownership"},
		{0, false, true, "the old owner lost its copy to that write"},
		{2, false, false, "the new owner reads locally"},
		{2, true, true, "but has node 0's read token to revoke"},
		{1, true, true, "a reader upgrading is not the owner"},
		{1, true, false, "and owns it exclusively afterwards"},
	}
	for i, st := range steps {
		if got := s.Acquire(st.node, 0, st.write); got != st.wantRemote {
			t.Errorf("step %d (node %d, write %v): remote = %v, want %v: %s", i, st.node, st.write, got, st.wantRemote, st.why)
		}
	}
	s.Reset(1, 0)
	if s.Acquire(1, 0, true) {
		t.Error("a freshly allocated object is not local to its allocator")
	}
}

// Quantiles read from the histogram must be within 1% of the exact ones.
func TestHistQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h Hist
	var xs []float64
	for i := 0; i < 200000; i++ {
		// Log-uniform from 100 ns to 100 ms: what latencies look like.
		v := int64(100 * math.Pow(1e6, rng.Float64()))
		h.Add(v)
		xs = append(xs, float64(v))
	}
	slices.Sort(xs)
	for _, q := range []float64{0.01, 0.1, 0.5, 0.9, 0.99, 0.999} {
		exact := xs[int(q*float64(len(xs)))]
		if got := h.Quantile(q); math.Abs(got-exact)/exact > 0.01 {
			t.Errorf("q%.3f: histogram says %.0f, exact %.0f", q, got, exact)
		}
	}
	if h.N() != 200000 {
		t.Errorf("N = %d", h.N())
	}
	var small Hist
	for v := int64(0); v < 100; v++ {
		small.Add(v)
	}
	if got := small.Quantile(0.5); math.Abs(got-50) > 1 {
		t.Errorf("median of 0..99 = %v", got)
	}
	for i := 0; i < histBuckets; i++ {
		lo, hi := histBounds(i)
		if histIndex(lo) != i || histIndex(hi-1) != i {
			t.Fatalf("bucket %d [%d,%d) does not index to itself", i, lo, hi)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := NewTracer(8)
	a, b := tr.ID("a"), tr.ID("b")
	outer := tr.Begin(a)
	inner := tr.Begin(b)
	time.Sleep(2 * time.Millisecond)
	tr.End(inner)
	tr.End(outer)
	self := tr.SelfTimes()
	if d := tr.spans[inner].End - tr.spans[inner].Start; self[inner] != d || d < int64(2*time.Millisecond) {
		t.Errorf("inner self %d, duration %d", self[inner], d)
	}
	if total := tr.spans[outer].End - tr.spans[outer].Start; self[outer] != total-self[inner] {
		t.Errorf("outer self %d, want %d - %d", self[outer], total, self[inner])
	}
	if tr.spans[inner].Parent != outer || tr.spans[outer].Parent != -1 {
		t.Errorf("parents: %d, %d", tr.spans[inner].Parent, tr.spans[outer].Parent)
	}
	var nilTracer *Tracer
	nilTracer.End(nilTracer.Begin(nilTracer.ID("x"))) // must not panic
}

// small shrinks a workload so that the smoke run fits tier-1's budget, race
// detector included: a tenth of the objects, one block of ops per loop.
func small(w Workload) Workload {
	w.PerNode /= 10
	w.WarmupOps, w.TracedOps = BlockOps, BlockOps
	return w
}

// Every workload, timed and traced, at 2 000 ops: every metric the catalogue
// owes is present and every correctness check passes.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range Workloads {
		t.Run(w.Name, func(t *testing.T) {
			tmp := t.TempDir()
			timed, err := RunTimed(small(w), 12, time.Nanosecond, tmp)
			if err != nil {
				t.Fatal(err)
			}
			if !timed.Correct || timed.Failed != 0 {
				t.Errorf("timed run: %d failed, %v", timed.Failed, timed.Errors)
			}
			if timed.Attempted < BlockOps {
				t.Errorf("timed run attempted %d ops", timed.Attempted)
			}
			if err := CheckEndToEnd(w.Name, timed.Metrics); err != nil {
				t.Error(err)
			}

			traced, err := RunTraced(small(w), 12, tmp, tmp)
			if err != nil {
				t.Fatal(err)
			}
			if !traced.Correct || traced.Failed != 0 {
				t.Errorf("traced run: %d failed, %v", traced.Failed, traced.Errors)
			}
			if err := CheckPerLayer(w.Name, traced.Metrics, false); err != nil {
				t.Error(err)
			}
			if v := traced.Metrics["core.collector_acquires"].Value; v != 0 {
				t.Errorf("core.collector_acquires = %v", v)
			}
			if w.Name == "local_hot" {
				for _, name := range []string{"dsm.remote_acquires_per_op", "dsm.msgs_per_op"} {
					if v := traced.Metrics[name].Value; v != 0 {
						t.Errorf("%s = %v on local_hot", name, v)
					}
				}
			}
			if fi, err := os.Stat(tmp + "/" + w.Name + ".trace.ndjson"); err != nil || fi.Size() == 0 {
				t.Errorf("trace file: %v", err)
			}
			if left, _ := os.ReadDir(tmp); len(left) != 1 {
				t.Errorf("the run left %d entries behind, want the trace file alone", len(left))
			}
		})
	}
}

// Counts of the traced simnet run repeat exactly from one run to the next.
func TestTracedCountsRepeat(t *testing.T) {
	w, _ := Lookup("shared_sim")
	var runs []Values
	for i := 0; i < 2; i++ {
		tmp := t.TempDir()
		out, err := RunTraced(small(w), 12, tmp, tmp)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, out.Metrics)
	}
	for _, name := range []string{"dsm.msgs_per_op", "dsm.rmr_per_op", "dsm.hops_per_remote_acquire", "dsm.remote_acquires_per_op"} {
		if a, b := runs[0][name].Value, runs[1][name].Value; a != b || a == 0 {
			t.Errorf("%s: %v then %v", name, a, b)
		}
	}
}

func TestCatalogueIsWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range Catalogue {
		if seen[m.Name] {
			t.Errorf("%s is listed twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.EndToEnd() != (m.Bound > 0) {
			t.Errorf("%s: only end-to-end metrics have a bound, and all of them do", m.Name)
		}
		for _, w := range m.Workloads {
			if _, err := Lookup(w); err != nil {
				t.Errorf("%s: %v", m.Name, err)
			}
		}
	}
	if _, err := Lookup("no_such_workload"); err == nil {
		t.Error("an unknown workload was accepted")
	}
}
