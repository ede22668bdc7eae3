package intset

import (
	"math/rand/v2"
	"testing"
)

// stripeOracle counts lane s of a striped matrix by walking the id slice:
// the ground truth IntersectCountStripes must reproduce for every width.
func stripeOracle(ids []uint32, width, s int, stripes []uint64) int32 {
	var c int32
	for _, x := range ids {
		if stripes[int(x>>6)*width+s]&(1<<(x&63)) != 0 {
			c++
		}
	}
	return c
}

// buildStripes packs one id set per lane into a striped matrix of the given
// width over a universe of n records.
func buildStripes(n, width int, lanes [][]uint32) []uint64 {
	stripes := make([]uint64, Words(n)*width)
	for s, ids := range lanes {
		for _, x := range ids {
			stripes[int(x>>6)*width+s] |= 1 << (x & 63)
		}
	}
	return stripes
}

// sparseForm converts ids to the (idx, word) sparse word form via the
// package helpers, verifying the declared length along the way.
func sparseForm(t *testing.T, ids []uint32) ([]int32, []uint64) {
	t.Helper()
	nz := NonzeroWords(ids)
	idx := make([]int32, nz)
	word := make([]uint64, nz)
	FillNonzeroWords(idx, word, ids)
	// The sparse form must hold exactly the ids' bits, in ascending word
	// order.
	total := 0
	for i, w := range word {
		if i > 0 && idx[i] <= idx[i-1] {
			t.Fatalf("FillNonzeroWords: idx not ascending at %d: %v", i, idx)
		}
		for w != 0 {
			total++
			w &= w - 1
		}
	}
	if total != len(ids) {
		t.Fatalf("FillNonzeroWords: %d bits set, want %d", total, len(ids))
	}
	return idx, word
}

// adversarialIdSets returns id patterns chosen to stress the sparse-word
// form: empty, singletons at word boundaries, dense runs, alternating
// bits, and isolated far-apart words.
func adversarialIdSets(n int) [][]uint32 {
	full := fullIds(n)
	sets := [][]uint32{nil, full}
	if n > 2 {
		sets = append(sets, []uint32{0}, []uint32{uint32(n - 1)})
		evens := make([]uint32, 0, n/2+1)
		for i := 0; i < n; i += 2 {
			evens = append(evens, uint32(i))
		}
		sets = append(sets, evens)
	}
	if n > 130 {
		sets = append(sets,
			[]uint32{0, 63, 64, 127, 128, uint32(n - 1)}, // word-boundary bits
			full[n/3:2*n/3], // dense middle run
		)
	}
	return sets
}

// TestIntersectCountStripesOracle drives the striped kernels — the generic
// width form and the unrolled width-8 form — against the slice-walk
// oracle across widths 4, 8 and 16, random and
// adversarial bit patterns, and universes that are not word multiples.
func TestIntersectCountStripesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 1))
	for _, n := range []int{1, 63, 64, 65, 129, 300, 1000} {
		var idSets [][]uint32
		idSets = append(idSets, adversarialIdSets(n)...)
		for i := 0; i < 4; i++ {
			idSets = append(idSets, randomIds(rng, n, rng.Float64()))
		}
		for _, width := range []int{4, 8, 16} {
			lanes := make([][]uint32, width)
			for s := range lanes {
				lanes[s] = randomIds(rng, n, rng.Float64())
			}
			// Stress lanes too: one all-ones lane, one empty lane.
			lanes[0] = fullIds(n)
			lanes[width-1] = nil
			stripes := buildStripes(n, width, lanes)
			for si, ids := range idSets {
				idx, word := sparseForm(t, ids)
				got := make([]int32, width)
				IntersectCountStripes(got, width, idx, word, stripes)
				for s := 0; s < width; s++ {
					if want := stripeOracle(ids, width, s, stripes); got[s] != want {
						t.Fatalf("n=%d width=%d set=%d lane=%d: got %d, want %d",
							n, width, si, s, got[s], want)
					}
				}
				if width == 8 {
					var k8 [8]int32
					IntersectCountStripes8(&k8, idx, word, stripes)
					for s := range k8 {
						if k8[s] != got[s] {
							t.Fatalf("n=%d set=%d lane=%d: unrolled %d != generic %d",
								n, si, s, k8[s], got[s])
						}
					}
				}
			}
		}
	}
}

// refCountStripesBinary recomputes CountStripesBinary's contract from the
// generic-width kernel — the pure-Go oracle both the asm and fallback
// forms must match exactly.
func refCountStripesBinary(dst0, dst1, base0, base1 []int32, ln int32, idx []int32, word, stripes []uint64, ntiles, strideWords int) {
	for t := 0; t < ntiles; t++ {
		k := make([]int32, 8)
		IntersectCountStripes(k, 8, idx, word, stripes[t*strideWords:(t+1)*strideWords])
		for s := 0; s < 8; s++ {
			j := t*8 + s
			if base1 != nil {
				dst1[j] = base1[j] - k[s]
				dst0[j] = base0[j] - (ln - k[s])
			} else {
				dst1[j] = k[s]
				dst0[j] = ln - k[s]
			}
		}
	}
}

// TestCountStripesBinaryOracle drives the fused binary-class kernel — both
// the fresh and the Diffset-base write-back forms — against the generic
// reference across tile counts, universes that are not word multiples, and
// adversarial id patterns.
func TestCountStripesBinaryOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 7))
	for _, n := range []int{1, 64, 129, 1000} {
		stride := Words(n) * 8
		for _, ntiles := range []int{1, 3} {
			stripes := make([]uint64, ntiles*stride)
			for tt := 0; tt < ntiles; tt++ {
				lanes := make([][]uint32, 8)
				for s := range lanes {
					lanes[s] = randomIds(rng, n, rng.Float64())
				}
				copy(stripes[tt*stride:], buildStripes(n, 8, lanes))
			}
			for si, ids := range adversarialIdSets(n) {
				idx, word := sparseForm(t, ids)
				ln := int32(len(ids))
				rows := ntiles * 8
				base0, base1 := make([]int32, rows), make([]int32, rows)
				for j := range base0 {
					base0[j] = rng.Int32N(1000)
					base1[j] = rng.Int32N(1000)
				}
				for _, withBase := range []bool{false, true} {
					b0, b1 := base0, base1
					if !withBase {
						b0, b1 = nil, nil
					}
					got0, got1 := make([]int32, rows), make([]int32, rows)
					want0, want1 := make([]int32, rows), make([]int32, rows)
					CountStripesBinary(got0, got1, b0, b1, ln, idx, word, stripes, ntiles, stride)
					refCountStripesBinary(want0, want1, b0, b1, ln, idx, word, stripes, ntiles, stride)
					for j := range got0 {
						if got0[j] != want0[j] || got1[j] != want1[j] {
							t.Fatalf("n=%d ntiles=%d set=%d base=%v j=%d: got (%d,%d), want (%d,%d)",
								n, ntiles, si, withBase, j, got0[j], got1[j], want0[j], want1[j])
						}
					}
				}
			}
		}
	}
}

// TestCountStripesBinaryValidation pins the misuse panics guarding the asm
// kernel: short dst rows, mismatched base rows, short stripes, and idx
// values addressing outside the tile plane must all fail loudly.
func TestCountStripesBinaryValidation(t *testing.T) {
	idx, word := []int32{0}, []uint64{1}
	stripes := make([]uint64, 8)
	ok := make([]int32, 8)
	for name, fn := range map[string]func(){
		"short dst":   func() { CountStripesBinary(make([]int32, 4), ok, nil, nil, 1, idx, word, stripes, 1, 8) },
		"half base":   func() { CountStripesBinary(ok, ok, ok, nil, 1, idx, word, stripes, 1, 8) },
		"short base":  func() { CountStripesBinary(ok, ok, make([]int32, 4), ok, 1, idx, word, stripes, 1, 8) },
		"word len":    func() { CountStripesBinary(ok, ok, nil, nil, 1, idx, nil, stripes, 1, 8) },
		"stripes len": func() { CountStripesBinary(ok, ok, nil, nil, 1, idx, word, stripes, 2, 8) },
		"idx range":   func() { CountStripesBinary(ok, ok, nil, nil, 1, []int32{1}, word, stripes, 1, 8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
	// A zero tile count is a no-op, not an error.
	CountStripesBinary(nil, nil, nil, nil, 1, idx, word, stripes, 0, 8)
}

// TestIntersectCountStripesAccumulates pins the += contract: lane counts
// add to whatever the caller left in k.
func TestIntersectCountStripesAccumulates(t *testing.T) {
	n := 200
	ids := []uint32{0, 5, 64, 199}
	idx, word := sparseForm(t, ids)
	stripes := buildStripes(n, 8, [][]uint32{fullIds(n), nil, ids})
	k := [8]int32{100, 100, 100, 100, 100, 100, 100, 100}
	IntersectCountStripes8(&k, idx, word, stripes)
	if k[0] != 104 || k[1] != 100 || k[2] != 104 {
		t.Fatalf("accumulation broken: %v", k)
	}
}

// TestStripedKernelZeroAllocs pins the steady-state inner loop of the
// blocked kernel — sparse-form fill plus striped AND+popcount into
// preallocated buffers — at exactly zero heap allocations.
func TestStripedKernelZeroAllocs(t *testing.T) {
	n := 1000
	rng := rand.New(rand.NewPCG(3, 3))
	ids := randomIds(rng, n, 0.4)
	stripes := buildStripes(n, 8, [][]uint32{randomIds(rng, n, 0.5), fullIds(n)})
	nz := NonzeroWords(ids)
	idx := make([]int32, nz)
	word := make([]uint64, nz)
	var k [8]int32
	allocs := testing.AllocsPerRun(100, func() {
		FillNonzeroWords(idx, word, ids)
		IntersectCountStripes8(&k, idx, word, stripes)
		k = [8]int32{}
	})
	if allocs != 0 {
		t.Fatalf("striped kernel inner loop allocates %.1f times per run, want 0", allocs)
	}
}

var sinkStripes [8]int32

// Microbenchmarks for the striped kernel at the widths the engine uses,
// against the one-lane-at-a-time baseline (IntersectCountWords per lane).
func benchStripesCase(b *testing.B) (idx []int32, word []uint64, stripes []uint64, laneWords [][]uint64) {
	n := 1000
	rng := rand.New(rand.NewPCG(8, 2))
	ids := randomIds(rng, n, 0.5)
	nz := NonzeroWords(ids)
	idx = make([]int32, nz)
	word = make([]uint64, nz)
	FillNonzeroWords(idx, word, ids)
	lanes := make([][]uint32, 8)
	laneWords = make([][]uint64, 8)
	for s := range lanes {
		lanes[s] = randomIds(rng, n, 0.5)
		laneWords[s] = make([]uint64, Words(n))
		SetWords(laneWords[s], lanes[s])
	}
	stripes = buildStripes(n, 8, lanes)
	b.ReportAllocs()
	b.ResetTimer()
	return
}

func BenchmarkIntersectCountStripes8(b *testing.B) {
	idx, word, stripes, _ := benchStripesCase(b)
	for i := 0; i < b.N; i++ {
		var k [8]int32
		IntersectCountStripes8(&k, idx, word, stripes)
		sinkStripes = k
	}
}

func BenchmarkIntersectCountStripesGeneric8(b *testing.B) {
	idx, word, stripes, _ := benchStripesCase(b)
	k := make([]int32, 8)
	for i := 0; i < b.N; i++ {
		clear(k)
		IntersectCountStripes(k, 8, idx, word, stripes)
		sinkStripes[0] = k[0]
	}
}

func BenchmarkCountStripesBinary(b *testing.B) {
	idx, word, stripes, _ := benchStripesCase(b)
	stride := len(stripes)
	dst0, dst1 := make([]int32, 8), make([]int32, 8)
	base0, base1 := make([]int32, 8), make([]int32, 8)
	for i := 0; i < b.N; i++ {
		CountStripesBinary(dst0, dst1, base0, base1, 500, idx, word, stripes, 1, stride)
		sinkStripes[0] = dst0[0]
	}
}

func BenchmarkIntersectCountPerLane(b *testing.B) {
	idx, word, _, laneWords := benchStripesCase(b)
	full := make([]uint64, Words(1000))
	for t, wi := range idx {
		full[wi] = word[t]
	}
	for i := 0; i < b.N; i++ {
		var k [8]int32
		for s := range laneWords {
			k[s] = int32(IntersectCountWords(full, laneWords[s]))
		}
		sinkStripes = k
	}
}
