package mem

import "math/bits"

// Bitmap is a fixed-size bit array. The paper describes bunch contents with
// two such structures (§8): an object-map, whose set bits mark the addresses
// holding object headers, and a reference-map, whose set bits mark the
// addresses holding pointers. One bit describes one word of the bunch.
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

// ForEach calls f with the index of every set bit, in increasing order.
func (b *Bitmap) ForEach(f func(i int)) {
	for wi, w := range b.bits {
		for w != 0 {
			i := wi*64 + bits.TrailingZeros64(w)
			if i >= b.n {
				return
			}
			f(i)
			w &= w - 1
		}
	}
}
