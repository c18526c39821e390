package mem

import "math/bits"

// Bitmap is a fixed-size bit array. The paper describes bunch contents with
// two such structures (§8): an object-map, whose set bits mark the addresses
// holding object headers, and a reference-map, whose set bits mark the
// addresses holding pointers. One bit describes one word of the bunch.
//
// A range of bits leaves and enters a bitmap as mask words in the redo
// log's layout: bit i%64 of mask word i/64 is the range's bit i, and a range
// of n bits takes ⌈n/64⌉ mask words.
type Bitmap struct {
	n    int
	bits []uint64
}

// NewBitmap returns a bitmap of n bits, all clear.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{n: n, bits: make([]uint64, (n+63)/64)}
}

// Set sets bit i.
func (b *Bitmap) Set(i int) { b.bits[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (b *Bitmap) Clear(i int) { b.bits[i>>6] &^= 1 << (uint(i) & 63) }

// Get reports whether bit i is set.
func (b *Bitmap) Get(i int) bool { return b.bits[i>>6]&(1<<(uint(i)&63)) != 0 }

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	n := 0
	for _, w := range b.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// ForEach calls f with the index of every set bit, in increasing order.
func (b *Bitmap) ForEach(f func(i int)) { b.forRange(0, b.n, f) }

// forRange calls f with the index of every set bit in [lo, hi), in
// increasing order. It reads the map 64 bits at a time, so a bit f sets or
// clears among the 64 being walked does not change which of them f sees.
func (b *Bitmap) forRange(lo, hi int, f func(i int)) {
	for i := lo; i < hi; i += 64 {
		for w := b.chunk(i, min(64, hi-i)); w != 0; w &= w - 1 {
			f(i + bits.TrailingZeros64(w))
		}
	}
}

// chunk returns bits [i, i+n) as the low n bits of a word, 0 < n ≤ 64.
func (b *Bitmap) chunk(i, n int) uint64 {
	wi, sh := i>>6, uint(i)&63
	v := b.bits[wi] >> sh
	if sh+uint(n) > 64 {
		v |= b.bits[wi+1] << (64 - sh)
	}
	return v & (^uint64(0) >> (64 - uint(n)))
}

// extract appends bits [lo, lo+n) to mask as ⌈n/64⌉ mask words.
func (b *Bitmap) extract(mask []uint64, lo, n int) []uint64 {
	for j := 0; j < n; j += 64 {
		mask = append(mask, b.chunk(lo+j, min(64, n-j)))
	}
	return mask
}

// store sets bits [lo, lo+n) from the ⌈n/64⌉ words of mask; mask bits at or
// past n are ignored.
func (b *Bitmap) store(lo, n int, mask []uint64) {
	for j := 0; j < n; j += 64 {
		k := uint(min(64, n-j))
		m := ^uint64(0) >> (64 - k)
		v, wi, sh := mask[j>>6]&m, (lo+j)>>6, uint(lo+j)&63
		b.bits[wi] = b.bits[wi]&^(m<<sh) | v<<sh
		if sh+k > 64 {
			b.bits[wi+1] = b.bits[wi+1]&^(m>>(64-sh)) | v>>(64-sh)
		}
	}
}
