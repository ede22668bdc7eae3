package intset

import (
	"math/rand/v2"
	"testing"
)

// randomIds returns a strictly increasing id list over [0, n) where each
// element is kept with probability p.
func randomIds(rng *rand.Rand, n int, p float64) []uint32 {
	var ids []uint32
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			ids = append(ids, uint32(i))
		}
	}
	return ids
}

// fullIds returns [0, n).
func fullIds(n int) []uint32 {
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(i)
	}
	return ids
}

func TestIntersectCountWordsEdgeCases(t *testing.T) {
	// Universes deliberately not multiples of 64, plus exact multiples and
	// degenerate sizes.
	for _, n := range []int{0, 1, 63, 64, 65, 100, 127, 128, 129, 300, 1000} {
		full := fullIds(n)
		cases := []struct {
			name string
			a, b []uint32
		}{
			{"empty-empty", nil, nil},
			{"empty-full", nil, full},
			{"full-empty", full, nil},
			{"full-full", full, full},
		}
		if n > 2 {
			evens := make([]uint32, 0, n/2+1)
			for i := 0; i < n; i += 2 {
				evens = append(evens, uint32(i))
			}
			cases = append(cases,
				struct {
					name string
					a, b []uint32
				}{"evens-full", evens, full},
				struct {
					name string
					a, b []uint32
				}{"evens-evens", evens, evens},
				struct {
					name string
					a, b []uint32
				}{"last-only", []uint32{uint32(n - 1)}, full},
			)
		}
		for _, c := range cases {
			want := IntersectCount(c.a, c.b)
			aw := make([]uint64, Words(n))
			bw := make([]uint64, Words(n))
			SetWords(aw, c.a)
			SetWords(bw, c.b)
			if got := IntersectCountWords(aw, bw); got != want {
				t.Errorf("n=%d %s: IntersectCountWords = %d, want %d", n, c.name, got, want)
			}
			// The Bitset method must agree with the package kernel.
			if got := FromSlice(n, c.a).IntersectCountWords(bw); got != want {
				t.Errorf("n=%d %s: Bitset.IntersectCountWords = %d, want %d", n, c.name, got, want)
			}
		}
	}
}

func TestIntersectCountWordsUnequalLengths(t *testing.T) {
	// Operands over different universes count over the shorter bitmap.
	a := make([]uint64, Words(100))
	b := make([]uint64, Words(200))
	SetWords(a, []uint32{0, 63, 64, 99})
	SetWords(b, []uint32{0, 64, 99, 150, 199})
	if got := IntersectCountWords(a, b); got != 3 {
		t.Errorf("IntersectCountWords unequal = %d, want 3", got)
	}
	if got := IntersectCountWords(b, a); got != 3 {
		t.Errorf("IntersectCountWords swapped = %d, want 3", got)
	}
}

func TestSetClearWordsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0))
	for _, n := range []int{65, 130, 500} {
		ws := make([]uint64, Words(n))
		ids := randomIds(rng, n, 0.3)
		SetWords(ws, ids)
		if got := IntersectCountWords(ws, ws); got != len(ids) {
			t.Fatalf("n=%d: popcount after SetWords = %d, want %d", n, got, len(ids))
		}
		ClearWords(ws, ids)
		for i, w := range ws {
			if w != 0 {
				t.Fatalf("n=%d: word %d = %#x after ClearWords, want 0", n, i, w)
			}
		}
	}
}

func TestRepWordsFastPath(t *testing.T) {
	n := 300
	dense := fullIds(n)[:n/2]      // 150/300: dense, carries a bitset
	sparse := []uint32{1, 77, 298} // sparse: slice only
	rd := NewRep(n, dense)
	if rd.Words() == nil {
		t.Fatal("dense Rep returned nil Words")
	}
	other := make([]uint64, Words(n))
	SetWords(other, []uint32{0, 100, 149, 150, 299})
	if got, want := IntersectCountWords(rd.Words(), other), 3; got != want {
		t.Errorf("dense Rep word count = %d, want %d", got, want)
	}
	if rs := NewRep(n, sparse); rs.Words() != nil {
		t.Error("sparse Rep returned non-nil Words")
	}
}

// TestIntersectCountWordsRandomOracle cross-checks the word kernel against
// the slice-walk oracle over many random (density, universe) mixes.
func TestIntersectCountWordsRandomOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 0))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(700) // frequently not a multiple of 64
		a := randomIds(rng, n, rng.Float64())
		b := randomIds(rng, n, rng.Float64())
		aw := make([]uint64, Words(n))
		bw := make([]uint64, Words(n))
		SetWords(aw, a)
		SetWords(bw, b)
		want := IntersectCount(a, b)
		if got := IntersectCountWords(aw, bw); got != want {
			t.Fatalf("trial %d n=%d: words=%d oracle=%d", trial, n, got, want)
		}
	}
}

// TestWordSetOpsRandomOracle cross-checks the bitmap set operations the
// closed miner runs on dense nodes — AndInto, SubsetWords, AppendWords,
// AppendAndNot, AppendMembers and AppendExcept — against the slice
// oracles, on universes that are often not multiples of 64.
func TestWordSetOpsRandomOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 0))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.IntN(700)
		a := randomIds(rng, n, rng.Float64())
		b := randomIds(rng, n, rng.Float64())
		if trial%3 == 0 {
			b = Union(a, b) // make a ⊆ b hold on a third of the trials
		}
		aw := make([]uint64, Words(n))
		bw := make([]uint64, Words(n))
		SetWords(aw, a)
		SetWords(bw, b)

		and := make([]uint64, Words(n))
		inter := Intersect(a, b)
		if got := AndInto(and, aw, bw); got != len(inter) {
			t.Fatalf("trial %d: AndInto count %d, want %d", trial, got, len(inter))
		}
		if got := AppendWords(nil, and); !Equal(got, inter) {
			t.Fatalf("trial %d: AppendWords(a&b) = %v, want %v", trial, got, inter)
		}
		if got := AppendMembers(nil, bw, a); !Equal(got, inter) {
			t.Fatalf("trial %d: AppendMembers = %v, want %v", trial, got, inter)
		}
		if got, want := SubsetWords(aw, bw), Subset(a, b); got != want {
			t.Fatalf("trial %d: SubsetWords = %v, want %v", trial, got, want)
		}
		diff := Diff(a, b)
		if got := AppendAndNot(nil, aw, bw); !Equal(got, diff) {
			t.Fatalf("trial %d: AppendAndNot = %v, want %v", trial, got, diff)
		}
		if got := AppendExcept(nil, aw, inter); !Equal(got, diff) {
			t.Fatalf("trial %d: AppendExcept = %v, want %v", trial, got, diff)
		}
		// AndInto may write over one of its operands.
		if got := AndInto(aw, aw, bw); got != len(inter) || !Equal(AppendWords(nil, aw), inter) {
			t.Fatalf("trial %d: in-place AndInto disagrees with the oracle", trial)
		}
	}
}

// TestIsDenseMatchesRep pins IsDense as the one density cut-off: a Rep
// carries a bitset exactly when IsDense holds for its size.
func TestIsDenseMatchesRep(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 100, 511, 512, 520, 1000, 4096} {
		for _, size := range []int{0, 1, 63, 64, 65, n / 8, n/8 - 1, n / 2, n} {
			if size < 0 || size > n {
				continue
			}
			rep := NewRep(n, fullIds(n)[:size])
			if got := IsDense(n, size); got != rep.Dense() {
				t.Fatalf("n=%d size=%d: IsDense %v, Rep.Dense %v", n, size, got, rep.Dense())
			}
		}
	}
}

// FuzzIntersectCountWords feeds arbitrary byte strings interpreted as two
// id sets over a shared universe and requires the word kernel to agree
// with the slice-walk IntersectCount oracle.
func FuzzIntersectCountWords(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4}, uint16(300))
	f.Add([]byte{}, []byte{0}, uint16(64))
	f.Add([]byte{255, 254}, []byte{255}, uint16(65))
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, universe uint16) {
		n := int(universe)%701 + 1
		toIds := func(raw []byte) []uint32 {
			seen := make(map[uint32]bool)
			for _, by := range raw {
				seen[uint32(by)%uint32(n)] = true
			}
			ids := make([]uint32, 0, len(seen))
			for i := 0; i < n; i++ {
				if seen[uint32(i)] {
					ids = append(ids, uint32(i))
				}
			}
			return ids
		}
		a, b := toIds(rawA), toIds(rawB)
		aw := make([]uint64, Words(n))
		bw := make([]uint64, Words(n))
		SetWords(aw, a)
		SetWords(bw, b)
		if got, want := IntersectCountWords(aw, bw), IntersectCount(a, b); got != want {
			t.Fatalf("n=%d: IntersectCountWords=%d, IntersectCount=%d", n, got, want)
		}
	})
}
