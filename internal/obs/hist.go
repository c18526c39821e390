package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// histBuckets is the number of power-of-two histogram buckets: bucket i
// holds values whose bit length is i, so bucket 0 is exactly 0, bucket 1 is
// 1, bucket 2 is 2..3, bucket 3 is 4..7, and so on up to 2^62..2^63-1.
const histBuckets = 65

// Histogram is a concurrency-safe power-of-two histogram for non-negative
// measurements: ownerPtr hop counts, token-acquire latencies in simulated
// ticks, GC copy/scan volumes, piggyback payload sizes. Observing a value
// never allocates.
type Histogram struct {
	name string

	mu       sync.Mutex
	count    int64
	sum      int64
	min, max int64
	buckets  [histBuckets]int64
}

// Name returns the histogram's registry name.
func (h *Histogram) Name() string { return h.name }

// Observe records one measurement. Negative values are clamped to zero
// (measurements here are counts, ticks and byte sizes; a negative one is a
// caller bug, not data).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	b := bits.Len64(uint64(v))
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[b]++
	h.mu.Unlock()
}

// HistSummary is a point-in-time summary of a histogram.
type HistSummary struct {
	Name  string  `json:"name"`
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P95   int64   `json:"p95"`
	P99   int64   `json:"p99"`
	// Buckets maps the inclusive upper bound of each non-empty power-of-two
	// bucket to its count.
	Buckets map[int64]int64 `json:"buckets,omitempty"`
}

// bucketUpper is the largest value falling into bucket b.
func bucketUpper(b int) int64 {
	if b == 0 {
		return 0
	}
	if b >= 63 {
		return int64(1)<<62 + (int64(1)<<62 - 1) // max int64, avoiding overflow
	}
	return int64(1)<<b - 1
}

// HistSnapshot is a copy of a histogram's raw state: the full bucket array
// plus the running aggregates.
type HistSnapshot struct {
	Name    string             `json:"name,omitempty"`
	Count   int64              `json:"count"`
	Sum     int64              `json:"sum"`
	Min     int64              `json:"min"`
	Max     int64              `json:"max"`
	Buckets [histBuckets]int64 `json:"buckets"`
}

// Snapshot returns a copy of the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistSnapshot{
		Name: h.name, Count: h.count, Sum: h.sum,
		Min: h.min, Max: h.max, Buckets: h.buckets,
	}
}

// Quantile returns a conservative nearest-rank estimate of the p-quantile:
// the upper bound of the bucket containing the ceil(p*n)-th observation,
// clamped to the observed maximum, so the true quantile is never above the
// reported one.
func (s HistSnapshot) Quantile(p float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(p * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var seen int64
	for b, c := range s.Buckets {
		seen += c
		if seen >= rank {
			return min(bucketUpper(b), s.Max)
		}
	}
	return s.Max
}

// HistBucket is one cumulative histogram bucket: Count observations were <=
// LE (Prometheus bucket semantics).
type HistBucket struct {
	LE    int64 `json:"le"`
	Count int64 `json:"count"`
}

// CumBuckets returns the cumulative bucket counts up to the highest
// non-empty bucket. The implicit +Inf bucket equals Count.
func (s HistSnapshot) CumBuckets() []HistBucket {
	hi := -1
	for b, c := range s.Buckets {
		if c != 0 {
			hi = b
		}
	}
	if hi < 0 {
		return nil
	}
	out := make([]HistBucket, 0, hi+1)
	var cum int64
	for b := 0; b <= hi; b++ {
		cum += s.Buckets[b]
		out = append(out, HistBucket{LE: bucketUpper(b), Count: cum})
	}
	return out
}

// Summary condenses the snapshot into counts, extrema and approximate
// quantiles.
func (s HistSnapshot) Summary() HistSummary {
	out := HistSummary{Name: s.Name, Count: s.Count, Sum: s.Sum, Min: s.Min, Max: s.Max}
	if s.Count == 0 {
		return out
	}
	out.Mean = float64(s.Sum) / float64(s.Count)
	out.Buckets = make(map[int64]int64)
	for b, c := range s.Buckets {
		if c != 0 {
			out.Buckets[bucketUpper(b)] = c
		}
	}
	out.P50 = s.Quantile(0.50)
	out.P90 = s.Quantile(0.90)
	out.P95 = s.Quantile(0.95)
	out.P99 = s.Quantile(0.99)
	return out
}

// Summary returns the current counts, extrema and approximate quantiles
// (quantiles are upper bounds of the containing power-of-two bucket, so they
// are conservative: the true quantile is never above the reported one).
func (h *Histogram) Summary() HistSummary {
	return h.Snapshot().Summary()
}

// String renders a one-line summary.
func (h *Histogram) String() string { return h.Summary().String() }

// String renders the summary as one line.
func (s HistSummary) String() string {
	if s.Count == 0 {
		return fmt.Sprintf("%-28s empty", s.Name)
	}
	return fmt.Sprintf("%-28s n=%-7d sum=%-10d min=%-5d p50<=%-5d p90<=%-5d p99<=%-6d max=%d",
		s.Name, s.Count, s.Sum, s.Min, s.P50, s.P90, s.P99, s.Max)
}
