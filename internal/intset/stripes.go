package intset

import "math/bits"

// This file holds the striped word-parallel counting primitives behind the
// permutation engine's blocked kernel (DESIGN.md §8). A tid-list is kept in
// sparse word form — the indices and 64-bit bitmaps of only its occupied
// words (NonzeroWords / FillNonzeroWords) — and intersect-counted against a
// striped matrix that interleaves the same bitmap word of `width`
// consecutive permutations: stripes[w*width + s] is word w of stripe lane
// s. One pass over the sparse words then counts the whole block of
// permutations, loading each tid word once and AND+popcounting it against
// width label words that sit adjacent in memory.

// NonzeroWords returns the number of distinct 64-bit words occupied by the
// strictly increasing ids — the length FillNonzeroWords needs.
//
//armine:noalloc
func NonzeroWords(ids []uint32) int {
	n := 0
	last := -1
	for _, x := range ids {
		if w := int(x >> 6); w != last {
			n++
			last = w
		}
	}
	return n
}

// FillNonzeroWords writes the sparse word form of ids: idx[t] is the t-th
// occupied word index (ascending) and word[t] the 64-bit bitmap of the ids
// falling in it. Both slices must have length NonzeroWords(ids).
//
//armine:noalloc
func FillNonzeroWords(idx []int32, word []uint64, ids []uint32) {
	k := -1
	last := int32(-1)
	for _, x := range ids {
		if w := int32(x >> 6); w != last {
			k++
			idx[k] = w
			word[k] = 0
			last = w
		}
		word[k] |= 1 << (x & 63)
	}
}

// IntersectCountStripes adds, for every stripe lane s in [0, width), the
// intersection count of the sparse word set (idx, word) against lane s of
// the striped matrix:
//
//	k[s] += Σ_t popcount(word[t] & stripes[int(idx[t])*width + s])
//
// len(k) must be at least width. This is the generic-width reference form;
// the engine's hot path uses the unrolled IntersectCountStripes8.
//
//armine:noalloc
func IntersectCountStripes(k []int32, width int, idx []int32, word, stripes []uint64) {
	for t, wi := range idx {
		w := word[t]
		seg := stripes[int(wi)*width : int(wi)*width+width]
		for s, sw := range seg {
			k[s] += int32(bits.OnesCount64(w & sw))
		}
	}
}

// IntersectCountStripes8 is IntersectCountStripes specialised and unrolled
// for width 8 — the blocked kernel's stripe width. On amd64 with
// AVX512VPOPCNTDQ one 512-bit lane holds a whole tile row, so each tid
// word costs one AND and one vector popcount; elsewhere the eight lane
// counts accumulate in scalar registers.
//
//armine:noalloc
func IntersectCountStripes8(k *[8]int32, idx []int32, word, stripes []uint64) {
	if useAsmKernel && len(idx) > 0 {
		intersectCountStripes8Asm(k, &idx[0], len(idx), &word[0], &stripes[0])
		return
	}
	intersectCountStripes8Go(k, idx, word, stripes)
}

//armine:noalloc
func intersectCountStripes8Go(k *[8]int32, idx []int32, word, stripes []uint64) {
	var c0, c1, c2, c3, c4, c5, c6, c7 int32
	for t, wi := range idx {
		w := word[t]
		seg := stripes[int(wi)*8 : int(wi)*8+8]
		c0 += int32(bits.OnesCount64(w & seg[0]))
		c1 += int32(bits.OnesCount64(w & seg[1]))
		c2 += int32(bits.OnesCount64(w & seg[2]))
		c3 += int32(bits.OnesCount64(w & seg[3]))
		c4 += int32(bits.OnesCount64(w & seg[4]))
		c5 += int32(bits.OnesCount64(w & seg[5]))
		c6 += int32(bits.OnesCount64(w & seg[6]))
		c7 += int32(bits.OnesCount64(w & seg[7]))
	}
	k[0] += c0
	k[1] += c1
	k[2] += c2
	k[3] += c3
	k[4] += c4
	k[5] += c5
	k[6] += c6
	k[7] += c7
}

// CountStripesBinary is the fused binary-class form of the blocked kernel:
// it intersect-counts the sparse word set (idx, word) against ntiles
// consecutive stripe tiles and writes both class rows of the count matrix
// in the same pass. Tile t's class-1 plane starts at stripes[t*strideWords]
// with the width-8 lane layout (lane word w at offset w*8); for lane s and
// output position j = t*8 + s, with k the lane's intersection count:
//
//	base nil:     dst1[j] = k            dst0[j] = ln - k
//	base non-nil: dst1[j] = base1[j] - k dst0[j] = base0[j] - (ln - k)
//
// ln is the total size of the id set, so ln-k is its class-0 count under
// that permutation; the base form fuses the Diffset subtraction of the
// permutation engine (DESIGN.md §8). base0 and base1 must be both nil or
// both set. dst and base rows need ntiles*8 elements and stripes
// ntiles*strideWords words; every idx value must address a word inside the
// plane (idx[t]*8+8 <= strideWords).
//
//armine:noalloc
func CountStripesBinary(dst0, dst1, base0, base1 []int32, ln int32, idx []int32, word, stripes []uint64, ntiles, strideWords int) {
	if ntiles <= 0 {
		return
	}
	need := ntiles * 8
	if len(dst0) < need || len(dst1) < need {
		panic("intset: CountStripesBinary dst shorter than ntiles*8")
	}
	if (base0 != nil) != (base1 != nil) {
		panic("intset: CountStripesBinary base rows must be both nil or both set")
	}
	if base0 != nil && (len(base0) < need || len(base1) < need) {
		panic("intset: CountStripesBinary base shorter than ntiles*8")
	}
	if len(word) != len(idx) {
		panic("intset: CountStripesBinary sparse-form length mismatch")
	}
	if len(stripes) < ntiles*strideWords {
		panic("intset: CountStripesBinary stripes shorter than ntiles*strideWords")
	}
	for _, wi := range idx {
		if int(wi)*8+8 > strideWords {
			panic("intset: CountStripesBinary idx outside tile plane")
		}
	}
	if useAsmKernel {
		var b0, b1 *int32
		if base0 != nil {
			b0, b1 = &base0[0], &base1[0]
		}
		var ip *int32
		var wp *uint64
		if len(idx) > 0 {
			ip, wp = &idx[0], &word[0]
		}
		countStripes2Asm(&dst0[0], &dst1[0], b0, b1, ln, ip, len(idx), wp, &stripes[0], ntiles, strideWords)
		return
	}
	for t := 0; t < ntiles; t++ {
		var k [8]int32
		intersectCountStripes8Go(&k, idx, word, stripes[t*strideWords:(t+1)*strideWords])
		d0, d1 := dst0[t*8:t*8+8], dst1[t*8:t*8+8]
		if base1 != nil {
			b0, b1 := base0[t*8:t*8+8], base1[t*8:t*8+8]
			for s := 0; s < 8; s++ {
				d1[s] = b1[s] - k[s]
				d0[s] = b0[s] - (ln - k[s])
			}
		} else {
			for s := 0; s < 8; s++ {
				d1[s] = k[s]
				d0[s] = ln - k[s]
			}
		}
	}
}
