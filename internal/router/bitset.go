package router

import "math/bits"

// Bitset is a packed set of small non-negative integers, one bit each, in
// 64-bit words. The gated kernel keeps its per-router activity and
// schedule-color masks in Bitsets so membership scans run word-wise:
// testing 64 routers costs one load, and iterating the members of a range costs one
// trailing-zeros loop per set bit instead of a branch per router. The
// zero value of a word is "no members", so a freshly made Bitset is empty.
type Bitset []uint64

// NewBitset returns an empty set with capacity for n members.
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// Set adds i to the set.
func (b Bitset) Set(i int) { b[i>>6] |= 1 << uint(i&63) }

// Clear removes i from the set.
func (b Bitset) Clear(i int) { b[i>>6] &^= 1 << uint(i&63) }

// Has reports whether i is in the set.
func (b Bitset) Has(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

// ClearAll empties the set (a memclr, vectorized by the runtime).
func (b Bitset) ClearAll() {
	for i := range b {
		b[i] = 0
	}
}

// SetFirst adds members 0..n-1 to the set.
func (b Bitset) SetFirst(n int) {
	for i := 0; i < n>>6; i++ {
		b[i] = ^uint64(0)
	}
	if rem := n & 63; rem != 0 {
		b[n>>6] |= (1 << uint(rem)) - 1
	}
}

// CopyFrom overwrites the set with src (same capacity).
func (b Bitset) CopyFrom(src Bitset) { copy(b, src) }

// ForEachIn calls fn for every member in [lo, hi), in ascending order.
// The sweep touches only the words overlapping the range, so iterating a
// sparse set over a large range is proportional to words plus members,
// not to the range width.
func (b Bitset) ForEachIn(lo, hi int, fn func(i int)) {
	if lo >= hi {
		return
	}
	loW, hiW := lo>>6, (hi-1)>>6
	for w := loW; w <= hiW; w++ {
		word := b[w]
		if w == loW {
			word &^= (1 << uint(lo&63)) - 1
		}
		if w == hiW {
			if rem := hi & 63; rem != 0 {
				word &= (1 << uint(rem)) - 1
			}
		}
		for word != 0 {
			fn(w<<6 | bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}
