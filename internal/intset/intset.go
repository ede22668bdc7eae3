// Package intset provides sorted uint32 id-list and fixed-size bitset
// utilities. Both representations are used throughout the miner for record
// id lists ("tid-lists"): sorted slices when lists are sparse and the code
// walks them element by element, bitsets when constant-time membership or
// bulk intersection counting is needed. Rep bundles the two adaptively: it
// always keeps the sorted slice and adds a bitset when the set is dense
// relative to its universe, so hot intersections against dense sets become
// membership probes instead of merge loops.
//
// The word-level layer (Words, SetWords/ClearWords, IntersectCountWords,
// and the striped NonzeroWords/IntersectCountStripes family) underpins the
// permutation engine's word-parallel counting: a tid-list packed into a
// []uint64 bitmap intersect-counts against another bitmap at 64 elements
// per AND+popcount instead of one element per merge step, and the striped
// forms count a whole block of permutations per pass over the tid words.
// AndInto, SubsetWords and the Append* extractors are the set operations
// the closed miner runs on the bitmaps of dense nodes; IsDense is the one
// density cut-off both Rep and the miner use.
// Arena is a generic bump allocator with checkpoint/rewind, so recursive
// walks reuse scratch instead of reallocating it.
//
// All slice-based functions require their inputs to be strictly increasing;
// they never modify their inputs and allocate only when documented.
package intset

import "math/bits"

// Intersect returns the sorted intersection of two strictly increasing
// slices. The result is newly allocated (capacity = min(len(a), len(b))).
func Intersect(a, b []uint32) []uint32 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	out := make([]uint32, 0, n)
	return IntersectInto(out, a, b)
}

// IntersectInto appends the sorted intersection of a and b to dst and
// returns the extended slice. dst must not alias a or b.
func IntersectInto(dst, a, b []uint32) []uint32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// IntersectCount returns |a ∩ b| without allocating.
func IntersectCount(a, b []uint32) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Diff returns the sorted set difference a \ b (elements of a not in b).
// The result is newly allocated.
func Diff(a, b []uint32) []uint32 {
	out := make([]uint32, 0, len(a))
	return DiffInto(out, a, b)
}

// DiffInto appends a \ b to dst and returns the extended slice.
// dst must not alias a or b.
func DiffInto(dst, a, b []uint32) []uint32 {
	i, j := 0, 0
	for i < len(a) {
		if j >= len(b) || a[i] < b[j] {
			dst = append(dst, a[i])
			i++
		} else if a[i] > b[j] {
			j++
		} else {
			i++
			j++
		}
	}
	return dst
}

// Union returns the sorted union of two strictly increasing slices.
func Union(a, b []uint32) []uint32 {
	out := make([]uint32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Subset reports whether every element of a is contained in b.
func Subset(a, b []uint32) bool {
	if len(a) > len(b) {
		return false
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			return false
		case a[i] > b[j]:
			j++
		default:
			i++
			j++
		}
	}
	return i == len(a)
}

// Contains reports whether the strictly increasing slice a contains x,
// using binary search.
func Contains(a []uint32, x uint32) bool {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(a) && a[lo] == x
}

// Equal reports whether a and b hold the same elements.
func Equal(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// IsSorted reports whether a is strictly increasing (the invariant every
// function in this package requires of its inputs).
func IsSorted(a []uint32) bool {
	for i := 1; i < len(a); i++ {
		if a[i] <= a[i-1] {
			return false
		}
	}
	return true
}

// Bitset is a fixed-capacity set of non-negative integers backed by a
// []uint64. The zero value is an empty set of capacity zero; use NewBitset
// to create one with room for n elements.
type Bitset struct {
	words []uint64
	n     int // capacity in bits
}

// NewBitset returns an empty bitset able to hold values in [0, n).
func NewBitset(n int) *Bitset {
	return &Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// FromSlice returns a bitset of capacity n containing the given ids.
func FromSlice(n int, ids []uint32) *Bitset {
	b := NewBitset(n)
	for _, id := range ids {
		b.Set(uint(id))
	}
	return b
}

// Len returns the capacity (in bits) of the set.
func (b *Bitset) Len() int { return b.n }

// Set adds i to the set. i must be < Len().
func (b *Bitset) Set(i uint) { b.words[i>>6] |= 1 << (i & 63) }

// Clear removes i from the set.
func (b *Bitset) Clear(i uint) { b.words[i>>6] &^= 1 << (i & 63) }

// Has reports whether i is in the set.
func (b *Bitset) Has(i uint) bool { return b.words[i>>6]&(1<<(i&63)) != 0 }

// Count returns the number of elements in the set.
func (b *Bitset) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// AndCount returns |b ∩ o| without materialising the intersection.
// The two sets must have equal capacity.
func (b *Bitset) AndCount(o *Bitset) int {
	n := 0
	for i, w := range b.words {
		n += bits.OnesCount64(w & o.words[i])
	}
	return n
}

// Words exposes the set's backing bitmap. The returned slice is the live
// storage, not a copy — callers must treat it as read-only.
func (b *Bitset) Words() []uint64 { return b.words }

// IntersectCountWords returns |b ∩ ws| where ws is a word bitmap over the
// same universe: popcount(b & ws) over the shorter operand, one AND per 64
// elements.
func (b *Bitset) IntersectCountWords(ws []uint64) int {
	return IntersectCountWords(b.words, ws)
}

// IntersectSliceInto appends a ∩ b to dst by membership-testing each
// element of the strictly increasing slice a against the bitset — O(len(a))
// regardless of the bitset's population. dst must not alias a.
func (b *Bitset) IntersectSliceInto(dst, a []uint32) []uint32 {
	return AppendMembers(dst, b.words, a)
}

// ContainsAll reports whether every element of a is in the set.
func (b *Bitset) ContainsAll(a []uint32) bool {
	for _, x := range a {
		if b.words[x>>6]&(1<<(x&63)) == 0 {
			return false
		}
	}
	return true
}

// Reset removes all elements.
func (b *Bitset) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Slice appends the elements of the set to dst in increasing order and
// returns the extended slice.
func (b *Bitset) Slice(dst []uint32) []uint32 {
	return AppendWords(dst, b.words)
}

// Words returns the number of uint64 words needed to hold a bitmap over a
// universe of n elements.
func Words(n int) int { return (n + 63) / 64 }

// SetWords sets the bit of every id in the bitmap ws. ids values must be
// < 64*len(ws). O(len(ids)).
func SetWords(ws []uint64, ids []uint32) {
	for _, x := range ids {
		ws[x>>6] |= 1 << (x & 63)
	}
}

// ClearWords clears the bit of every id in the bitmap ws — the O(len(ids))
// inverse of SetWords, so a scratch bitmap is reset without touching the
// full universe.
func ClearWords(ws []uint64, ids []uint32) {
	for _, x := range ids {
		ws[x>>6] &^= 1 << (x & 63)
	}
}

// IntersectCountWords returns the number of elements common to two word
// bitmaps: popcount(a & b) over the shorter of the two. This is the
// word-parallel counterpart of IntersectCount — 64 universe elements per
// AND+popcount.
func IntersectCountWords(a, b []uint64) int {
	if len(b) < len(a) {
		a, b = b, a
	}
	n := 0
	for i, w := range a {
		n += bits.OnesCount64(w & b[i])
	}
	return n
}

// AndInto writes a & b into dst word by word and returns the popcount of
// the result: an intersection and its size in one pass, 64 elements per
// AND. The three slices have equal length; dst may alias a or b.
func AndInto(dst, a, b []uint64) int {
	b = b[:len(a)]
	dst = dst[:len(a)]
	n := 0
	for i, w := range a {
		w &= b[i]
		dst[i] = w
		n += bits.OnesCount64(w)
	}
	return n
}

// SubsetWords reports whether the bitmap a is a subset of the bitmap b,
// stopping at the first word where a &^ b is nonzero. len(b) >= len(a).
func SubsetWords(a, b []uint64) bool {
	b = b[:len(a)]
	for i, w := range a {
		if w&^b[i] != 0 {
			return false
		}
	}
	return true
}

// AppendWords appends the elements of the bitmap ws to dst in increasing
// order and returns the extended slice.
func AppendWords(dst []uint32, ws []uint64) []uint32 {
	for wi, w := range ws {
		base := uint32(wi * 64)
		for w != 0 {
			dst = append(dst, base+uint32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// AppendAndNot appends the elements of a &^ b — those of the bitmap a
// missing from the bitmap b — to dst in increasing order. len(b) >= len(a).
func AppendAndNot(dst []uint32, a, b []uint64) []uint32 {
	b = b[:len(a)]
	for wi, w := range a {
		w &^= b[wi]
		base := uint32(wi * 64)
		for w != 0 {
			dst = append(dst, base+uint32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// AppendMembers appends the elements of the strictly increasing slice ids
// that are set in the bitmap ws — ids ∩ ws in O(len(ids)) probes — to dst.
// ids values must be < 64*len(ws); dst must not alias ids.
func AppendMembers(dst []uint32, ws []uint64, ids []uint32) []uint32 {
	for _, x := range ids {
		if ws[x>>6]&(1<<(x&63)) != 0 {
			dst = append(dst, x)
		}
	}
	return dst
}

// AppendExcept appends the elements of the bitmap ws that are not in the
// strictly increasing slice ids — ws \ ids — to dst in increasing order,
// without writing to ws.
func AppendExcept(dst []uint32, ws []uint64, ids []uint32) []uint32 {
	j := 0
	for wi, w := range ws {
		for ; j < len(ids) && int(ids[j]>>6) == wi; j++ {
			w &^= 1 << (ids[j] & 63)
		}
		base := uint32(wi * 64)
		for w != 0 {
			dst = append(dst, base+uint32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// denseShift sets the adaptive density cut-off: a tid-set covering at
// least universe>>denseShift records (≥ 1/8 of the universe) gets a bitset
// alongside its sorted slice. Below that, the bitset's memory (universe/8
// bytes) and construction cost outweigh the membership-test savings.
const denseShift = 3

// denseMin is the minimum element count before a bitset is worthwhile at
// all; tiny sets are faster as plain merge loops whatever their density.
const denseMin = 64

// Rep is an adaptive tid-set representation: the sorted slice is always
// present, and sets dense relative to their universe additionally carry a
// bitset so intersections and subset tests against them cost O(len(other))
// membership probes instead of an O(len(a)+len(b)) merge loop.
//
// Rep is immutable after construction and safe for concurrent readers.
type Rep struct {
	// Ids is the sorted tid-list (always valid).
	Ids  []uint32
	bits *Bitset // non-nil iff the set is dense
}

// NewRep wraps ids (strictly increasing, values < universe) in a Rep,
// building the bitset when the set is dense. The slice is retained, not
// copied.
func NewRep(universe int, ids []uint32) *Rep {
	r := &Rep{Ids: ids}
	if IsDense(universe, len(ids)) {
		r.bits = FromSlice(universe, ids)
	}
	return r
}

// IsDense reports whether a set of size elements is dense in a universe of
// the given size: the cut-off at which NewRep adds a bitset, and at which
// the closed miner holds a node's records as a word bitmap instead of a
// sorted slice.
func IsDense(universe, size int) bool {
	return size >= denseMin && universe > 0 && size >= universe>>denseShift
}

// Dense reports whether the Rep carries a bitset.
func (r *Rep) Dense() bool { return r.bits != nil }

// Len returns the number of elements.
func (r *Rep) Len() int { return len(r.Ids) }

// IntersectInto appends a ∩ r to dst and returns the extended slice,
// choosing the membership-probe path when the Rep is dense. dst must not
// alias a.
func (r *Rep) IntersectInto(dst, a []uint32) []uint32 {
	if r.bits != nil {
		return r.bits.IntersectSliceInto(dst, a)
	}
	return IntersectInto(dst, a, r.Ids)
}

// Words is the zero-build fast path into word-parallel counting: it
// returns the Rep's backing bitmap when the Rep is dense (treat as
// read-only), or nil when only the sorted slice exists and callers must
// pack a bitmap (e.g. via SetWords) themselves.
func (r *Rep) Words() []uint64 {
	if r.bits == nil {
		return nil
	}
	return r.bits.words
}

// ContainsAll reports whether a ⊆ r.
func (r *Rep) ContainsAll(a []uint32) bool {
	if len(a) > len(r.Ids) {
		return false
	}
	if r.bits != nil {
		return r.bits.ContainsAll(a)
	}
	return Subset(a, r.Ids)
}
