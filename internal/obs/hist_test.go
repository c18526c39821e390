package obs

import (
	"bytes"
	"math/bits"
	"sync"
	"testing"
)

// Exact-value checks on synthetic fills: the power-of-two buckets make every
// quantile answer computable by hand.

func TestSnapshotQuantilesExact(t *testing.T) {
	h := &Histogram{name: "q"}
	// 100 observations: 50× value 1, 30× value 10, 20× value 100.
	for i := 0; i < 50; i++ {
		h.Observe(1)
	}
	for i := 0; i < 30; i++ {
		h.Observe(10)
	}
	for i := 0; i < 20; i++ {
		h.Observe(100)
	}
	s := h.Snapshot()
	if s.Count != 100 || s.Sum != 50+300+2000 {
		t.Fatalf("count=%d sum=%d", s.Count, s.Sum)
	}
	// 1 is bucket 1 (upper 1); 10 is bucket 4 (8..15, upper 15); 100 is
	// bucket 7 (64..127, upper 127 — clamped to the observed max 100).
	cases := []struct {
		p    float64
		want int64
	}{
		{0.0, 1}, {0.49, 1}, {0.50, 1},
		{0.51, 15}, {0.79, 15}, {0.80, 15},
		{0.81, 100}, {0.95, 100}, {0.99, 100}, {1.0, 100},
	}
	for _, c := range cases {
		if got := s.Quantile(c.p); got != c.want {
			t.Fatalf("Quantile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	sum := s.Summary()
	if sum.P50 != 1 || sum.P90 != 100 || sum.P95 != 100 || sum.P99 != 100 {
		t.Fatalf("summary quantiles = %d/%d/%d/%d", sum.P50, sum.P90, sum.P95, sum.P99)
	}
	if sum.Min != 1 || sum.Max != 100 {
		t.Fatalf("extrema = %d..%d", sum.Min, sum.Max)
	}
}

func TestCumBucketsMonotone(t *testing.T) {
	h := &Histogram{name: "cum"}
	for _, v := range []int64{0, 1, 1, 6, 6, 6, 33, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	cb := s.CumBuckets()
	if len(cb) == 0 {
		t.Fatal("no cumulative buckets")
	}
	var prevLE, prevCount int64 = -1, 0
	for _, b := range cb {
		if b.LE <= prevLE {
			t.Fatalf("le not strictly increasing: %v", cb)
		}
		if b.Count < prevCount {
			t.Fatalf("cumulative count decreased: %v", cb)
		}
		prevLE, prevCount = b.LE, b.Count
	}
	if last := cb[len(cb)-1]; last.Count != s.Count {
		t.Fatalf("last cumulative count %d != total %d", last.Count, s.Count)
	}
	// Spot-check: values <= 7 are 0,1,1,6,6,6 → the bucket with LE 7 must
	// report 6.
	for _, b := range cb {
		if b.LE == 7 && b.Count != 6 {
			t.Fatalf("le=7 count = %d, want 6", b.Count)
		}
	}
	if empty := (HistSnapshot{}).CumBuckets(); empty != nil {
		t.Fatalf("empty snapshot produced buckets: %v", empty)
	}
}

func TestBucketBounds(t *testing.T) {
	// Observe files v under bits.Len64(v): each bucket's upper bound must
	// land in that bucket, and the next value in the next one.
	for b := 0; b < 64; b++ {
		hi := bucketUpper(b)
		if got := bits.Len64(uint64(hi)); got != b {
			t.Fatalf("bucket %d: upper %d falls in bucket %d", b, hi, got)
		}
		if b < 63 && bits.Len64(uint64(hi+1)) != b+1 {
			t.Fatalf("bucket %d: upper %d does not abut bucket %d", b, hi, b+1)
		}
	}
}

// TestSamplerDeltasAndRing drives the sampler off a fake counter source and
// checks zero-suppressed deltas, tick bookkeeping, and ring eviction.
func TestSamplerDeltasAndRing(t *testing.T) {
	counters := map[string]int64{}
	o := NewObserver()
	s := NewSampler(4, func() map[string]int64 {
		out := make(map[string]int64, len(counters))
		for k, v := range counters {
			out[k] = v
		}
		return out
	}, o)

	counters["msg.sent.app"] = 10
	p0 := s.Sample(100)
	if p0.Deltas["msg.sent.app"] != 10 || p0.DTick != 0 {
		t.Fatalf("first sample = %+v", p0)
	}

	counters["msg.sent.app"] = 10 // unchanged → suppressed
	counters["dsm.acquire.w.app"] = 3
	o.Hist("acquire.hops").Observe(2)
	p1 := s.Sample(150)
	if _, ok := p1.Deltas["msg.sent.app"]; ok {
		t.Fatalf("unchanged counter not suppressed: %+v", p1.Deltas)
	}
	if p1.Deltas["dsm.acquire.w.app"] != 3 || p1.DTick != 50 {
		t.Fatalf("second sample = %+v", p1)
	}
	if h, ok := p1.Hists["acquire.hops"]; !ok || h.Count != 1 {
		t.Fatalf("hist missing from sample: %+v", p1.Hists)
	}

	// Overflow the 4-slot ring; the oldest samples must fall out.
	for i := 0; i < 10; i++ {
		counters["msg.sent.app"]++
		s.Sample(uint64(200 + i))
	}
	got := s.Samples()
	if len(got) != 4 {
		t.Fatalf("ring length = %d, want 4", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq != got[i-1].Seq+1 {
			t.Fatalf("window not contiguous: %+v", got)
		}
	}
	if got[len(got)-1].Tick != 209 {
		t.Fatalf("newest sample tick = %d", got[len(got)-1].Tick)
	}
}

func TestSamplerNDJSONRoundTrip(t *testing.T) {
	c := int64(0)
	o := NewObserver()
	s := NewSampler(16, func() map[string]int64 {
		return map[string]int64{"k": c}
	}, o)
	for i := 0; i < 5; i++ {
		c += int64(i)
		o.Hist("h").Observe(int64(i))
		s.Sample(uint64(i * 10))
	}
	var buf bytes.Buffer
	if err := s.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSamplesNDJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 5 {
		t.Fatalf("round-trip lost samples: %d", len(back))
	}
	orig := s.Samples()
	for i := range back {
		if back[i].Seq != orig[i].Seq || back[i].Tick != orig[i].Tick {
			t.Fatalf("sample %d mismatch: %+v vs %+v", i, back[i], orig[i])
		}
		if h, ok := back[i].Hists["h"]; ok != (orig[i].Hists != nil) || (ok && h.Count != orig[i].Hists["h"].Count) {
			t.Fatalf("sample %d hist mismatch", i)
		}
	}
	b := BenchOf(back)
	if b.Samples != 5 || b.Ticks != 40 {
		t.Fatalf("bench = %+v", b)
	}
	if b.Series["h"].Final.Count != 5 {
		t.Fatalf("bench series final = %+v", b.Series["h"].Final)
	}
}

func TestBenchDerivedFigures(t *testing.T) {
	samples := []Sample{
		{Seq: 0, Tick: 10, Deltas: map[string]int64{
			"dsm.acquire.r.app": 4, "dsm.acquire.w.app": 6,
			"msg.sent.app": 25, "msg.sent.gc": 5,
		}},
		{Seq: 1, Tick: 20, Deltas: map[string]int64{
			"dsm.acquire.w.app": 10, "msg.sent.app": 30,
		}},
	}
	b := BenchOf(samples)
	// 20 acquires, 60 messages → 3 messages per mutator op.
	if b.MsgsPerMutatorOp != 3.0 {
		t.Fatalf("msgs/op = %v", b.MsgsPerMutatorOp)
	}
	if b.Counters["dsm.acquire.w.app"] != 16 {
		t.Fatalf("counters not accumulated: %+v", b.Counters)
	}
	if empty := BenchOf(nil); empty.Samples != 0 || empty.MsgsPerMutatorOp != 0 {
		t.Fatalf("empty bench = %+v", empty)
	}
}

// TestSamplerRace hammers the sampler from one goroutine while mutator
// goroutines observe histograms and bump the counter source — run under
// -race this is the concurrency contract for the live introspection server
// sampling a running cluster.
func TestSamplerRace(t *testing.T) {
	o := NewObserver()
	var mu sync.Mutex
	counters := map[string]int64{}
	bump := func(k string) {
		mu.Lock()
		counters[k]++
		mu.Unlock()
	}
	snap := func() map[string]int64 {
		mu.Lock()
		defer mu.Unlock()
		out := make(map[string]int64, len(counters))
		for k, v := range counters {
			out[k] = v
		}
		return out
	}
	s := NewSampler(64, snap, o)

	const mutators = 4
	var wg sync.WaitGroup
	for m := 0; m < mutators; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			h := o.Hist("hammer.lat")
			for i := 0; i < 20000; i++ {
				bump("msg.sent.app")
				h.Observe(int64(i % 100))
				o.Hist("hammer.hops").Observe(int64(m))
			}
		}(m)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	tick := uint64(0)
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		s.Sample(tick)
		tick++
		if tick%50 == 0 {
			var buf bytes.Buffer
			_ = s.WriteNDJSON(&buf)
			_ = s.Bench()
		}
	}
	final := s.Sample(tick)
	if final.Hists["hammer.lat"].Count != mutators*20000 {
		t.Fatalf("final hammer.lat count = %d", final.Hists["hammer.lat"].Count)
	}
	if n := s.n; n == 0 || n > 64 {
		t.Fatalf("ring len = %d", n)
	}
}
