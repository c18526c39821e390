package harness

import "math/bits"

// Hist is a fixed-size log-bucket histogram of non-negative int64 samples
// (nanoseconds here). Values below 128 are exact; above, every power of two
// is cut into 64 equal sub-buckets, so a bucket is at most 1/64 of its lower
// edge wide and a quantile read at the interpolated position is within 1%
// of the true sample. Recording is two shifts and an increment: the timed
// loop never appends to a sample slice.
type Hist struct {
	counts [histBuckets]uint64
	n      uint64
	sum    int64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits // sub-buckets per power of two
	histExact   = 2 * histSub      // values below this index themselves
	histBuckets = (64 - histSubBits) * histSub
)

func histIndex(v int64) int {
	if v < histExact {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // v in [2^e, 2^(e+1)), e >= histSubBits+1
	return (e-histSubBits)*histSub + int(uint64(v)>>(e-histSubBits))
}

// histBounds returns the half-open value range [lo, hi) of bucket i.
func histBounds(i int) (lo, hi int64) {
	if i < histExact {
		return int64(i), int64(i) + 1
	}
	e := i/histSub + histSubBits - 1
	sub := int64(i % histSub)
	width := int64(1) << (e - histSubBits)
	lo = (histSub + sub) * width
	return lo, lo + width
}

// Add records one sample.
func (h *Hist) Add(v int64) {
	h.counts[histIndex(v)]++
	h.n++
	h.sum += v
}

// N is the number of samples recorded.
func (h *Hist) N() uint64 { return h.n }

// Sum is the total of all samples.
func (h *Hist) Sum() int64 { return h.sum }

// Quantile returns the q-quantile (0 < q <= 1), interpolated linearly by
// rank inside the bucket that holds it, so two runs whose samples fall in
// the same bucket still read differently. An empty histogram reads 0.
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := histBounds(i)
			return float64(lo) + (rank-seen)/float64(c)*float64(hi-lo)
		}
		seen += float64(c)
	}
	lo, _ := histBounds(histBuckets - 1)
	return float64(lo)
}

// Merge adds o's samples to h.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}
