package intset

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestIntersectBasic(t *testing.T) {
	cases := []struct{ a, b, want []uint32 }{
		{nil, nil, nil},
		{[]uint32{1, 2, 3}, nil, nil},
		{[]uint32{1, 2, 3}, []uint32{2, 3, 4}, []uint32{2, 3}},
		{[]uint32{1, 3, 5}, []uint32{2, 4, 6}, nil},
		{[]uint32{1, 2, 3}, []uint32{1, 2, 3}, []uint32{1, 2, 3}},
		{[]uint32{0, 100, 200}, []uint32{100}, []uint32{100}},
	}
	for _, c := range cases {
		got := Intersect(c.a, c.b)
		if !Equal(got, c.want) {
			t.Errorf("Intersect(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if n := IntersectCount(c.a, c.b); n != len(c.want) {
			t.Errorf("IntersectCount(%v, %v) = %d, want %d", c.a, c.b, n, len(c.want))
		}
	}
}

func TestDiffBasic(t *testing.T) {
	cases := []struct{ a, b, want []uint32 }{
		{nil, nil, nil},
		{[]uint32{1, 2, 3}, nil, []uint32{1, 2, 3}},
		{[]uint32{1, 2, 3}, []uint32{2}, []uint32{1, 3}},
		{[]uint32{1, 2, 3}, []uint32{1, 2, 3}, nil},
		{[]uint32{1, 2, 3}, []uint32{0, 4}, []uint32{1, 2, 3}},
	}
	for _, c := range cases {
		got := Diff(c.a, c.b)
		if !Equal(got, c.want) {
			t.Errorf("Diff(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestUnionBasic(t *testing.T) {
	got := Union([]uint32{1, 3, 5}, []uint32{2, 3, 6})
	want := []uint32{1, 2, 3, 5, 6}
	if !Equal(got, want) {
		t.Errorf("Union = %v, want %v", got, want)
	}
}

func TestSubsetContains(t *testing.T) {
	a := []uint32{2, 4, 6}
	b := []uint32{1, 2, 3, 4, 5, 6}
	if !Subset(a, b) {
		t.Error("Subset(a, b) = false, want true")
	}
	if Subset(b, a) {
		t.Error("Subset(b, a) = true, want false")
	}
	if !Subset(nil, a) {
		t.Error("Subset(nil, a) = false, want true")
	}
	for _, x := range a {
		if !Contains(b, x) {
			t.Errorf("Contains(b, %d) = false", x)
		}
	}
	if Contains(a, 3) {
		t.Error("Contains(a, 3) = true, want false")
	}
}

// randomSorted returns a random strictly increasing slice over [0, 256).
func randomSorted(rng *rand.Rand) []uint32 {
	n := rng.IntN(40)
	seen := make(map[uint32]bool, n)
	for len(seen) < n {
		seen[uint32(rng.IntN(256))] = true
	}
	out := make([]uint32, 0, n)
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestSetOpsAgainstMaps(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 500; trial++ {
		a, b := randomSorted(rng), randomSorted(rng)
		inB := make(map[uint32]bool)
		for _, v := range b {
			inB[v] = true
		}
		var wantI, wantD []uint32
		for _, v := range a {
			if inB[v] {
				wantI = append(wantI, v)
			} else {
				wantD = append(wantD, v)
			}
		}
		if got := Intersect(a, b); !Equal(got, wantI) {
			t.Fatalf("Intersect(%v, %v) = %v, want %v", a, b, got, wantI)
		}
		if got := Diff(a, b); !Equal(got, wantD) {
			t.Fatalf("Diff(%v, %v) = %v, want %v", a, b, got, wantD)
		}
		if got := IntersectCount(a, b); got != len(wantI) {
			t.Fatalf("IntersectCount = %d, want %d", got, len(wantI))
		}
		u := Union(a, b)
		if !IsSorted(u) {
			t.Fatalf("Union not sorted: %v", u)
		}
		if len(u) != len(a)+len(b)-len(wantI) {
			t.Fatalf("Union size = %d, want %d", len(u), len(a)+len(b)-len(wantI))
		}
	}
}

func TestQuickIntersectSubsetOfBoth(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a := dedupSorted(xs)
		b := dedupSorted(ys)
		i := Intersect(a, b)
		return Subset(i, a) && Subset(i, b) && IsSorted(i)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDiffDisjointFromB(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a := dedupSorted(xs)
		b := dedupSorted(ys)
		d := Diff(a, b)
		return IntersectCount(d, b) == 0 && len(d)+IntersectCount(a, b) == len(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func dedupSorted(xs []uint16) []uint32 {
	seen := make(map[uint32]bool)
	for _, x := range xs {
		seen[uint32(x)] = true
	}
	out := make([]uint32, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestBitset(t *testing.T) {
	b := NewBitset(200)
	ids := []uint32{0, 1, 63, 64, 65, 127, 128, 199}
	for _, id := range ids {
		b.Set(uint(id))
	}
	if got := b.Count(); got != len(ids) {
		t.Errorf("Count = %d, want %d", got, len(ids))
	}
	for _, id := range ids {
		if !b.Has(uint(id)) {
			t.Errorf("Has(%d) = false", id)
		}
	}
	if b.Has(2) || b.Has(198) {
		t.Error("Has reports elements that were never set")
	}
	if got := b.Slice(nil); !Equal(got, ids) {
		t.Errorf("Slice = %v, want %v", got, ids)
	}
	b.Clear(63)
	if b.Has(63) {
		t.Error("Has(63) = true after Clear")
	}
	if got := b.Count(); got != len(ids)-1 {
		t.Errorf("Count after Clear = %d, want %d", got, len(ids)-1)
	}
}

func TestBitsetAndCount(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for trial := 0; trial < 200; trial++ {
		a, b := randomSorted(rng), randomSorted(rng)
		ba := FromSlice(256, a)
		bb := FromSlice(256, b)
		if got, want := ba.AndCount(bb), IntersectCount(a, b); got != want {
			t.Fatalf("AndCount = %d, want %d (a=%v b=%v)", got, want, a, b)
		}
	}
}

func TestBitsetReset(t *testing.T) {
	b := FromSlice(100, []uint32{1, 50, 99})
	b.Reset()
	if b.Count() != 0 {
		t.Errorf("Count after Reset = %d, want 0", b.Count())
	}
}

func TestIntersectIntoReuse(t *testing.T) {
	buf := make([]uint32, 0, 16)
	a := []uint32{1, 2, 3, 4}
	b := []uint32{2, 4, 6}
	got := IntersectInto(buf, a, b)
	if !Equal(got, []uint32{2, 4}) {
		t.Errorf("IntersectInto = %v", got)
	}
	got2 := DiffInto(buf, a, b)
	if !Equal(got2, []uint32{1, 3}) {
		t.Errorf("DiffInto = %v", got2)
	}
}

// randomSet returns a sorted, strictly increasing random subset of
// [0, universe) with the given density.
func randomSet(rng *rand.Rand, universe int, density float64) []uint32 {
	var out []uint32
	for i := 0; i < universe; i++ {
		if rng.Float64() < density {
			out = append(out, uint32(i))
		}
	}
	return out
}

func TestBitsetIntersectSliceAndContainsAll(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for iter := 0; iter < 50; iter++ {
		universe := 1 + rng.IntN(500)
		a := randomSet(rng, universe, 0.3)
		b := randomSet(rng, universe, 0.5)
		bs := FromSlice(universe, b)
		got := bs.IntersectSliceInto(nil, a)
		want := Intersect(a, b)
		if !Equal(got, want) {
			t.Fatalf("IntersectSliceInto = %v, want %v", got, want)
		}
		if bs.ContainsAll(a) != Subset(a, b) {
			t.Fatalf("ContainsAll(%v) over %v disagrees with Subset", a, b)
		}
		if !bs.ContainsAll(want) {
			t.Fatalf("ContainsAll of the intersection must hold")
		}
	}
}

func TestRepMatchesSliceSemantics(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 3))
	for iter := 0; iter < 60; iter++ {
		universe := 1 + rng.IntN(800)
		// Mix sparse and dense sets so both Rep paths are exercised.
		density := []float64{0.01, 0.1, 0.4, 0.9}[rng.IntN(4)]
		ids := randomSet(rng, universe, density)
		a := randomSet(rng, universe, 0.2)
		r := NewRep(universe, ids)
		if r.Len() != len(ids) {
			t.Fatalf("Len = %d, want %d", r.Len(), len(ids))
		}
		if got, want := r.IntersectInto(nil, a), Intersect(a, ids); !Equal(got, want) {
			t.Fatalf("dense=%v: Rep.IntersectInto = %v, want %v", r.Dense(), got, want)
		}
		if got, want := r.ContainsAll(a), Subset(a, ids); got != want {
			t.Fatalf("dense=%v: Rep.ContainsAll = %v, want %v", r.Dense(), got, want)
		}
		sub := r.IntersectInto(nil, a)
		if !r.ContainsAll(sub) {
			t.Fatal("Rep must contain its own intersection output")
		}
	}
}

func TestRepDensityChoice(t *testing.T) {
	universe := 1024
	dense := make([]uint32, 0, universe/2)
	for i := 0; i < universe; i += 2 {
		dense = append(dense, uint32(i))
	}
	if !NewRep(universe, dense).Dense() {
		t.Error("half-full set should use the bitset path")
	}
	sparse := []uint32{1, 5, 900}
	if NewRep(universe, sparse).Dense() {
		t.Error("3-element set should stay slice-only")
	}
	if NewRep(0, nil).Dense() {
		t.Error("empty universe should stay slice-only")
	}
}
