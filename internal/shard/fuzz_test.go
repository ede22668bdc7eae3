package shard

import (
	"encoding/json"
	"testing"
)

// FuzzShardMerge drives adversarial reply sets through the wire codec and
// the merge: whatever JSON a (malicious or buggy) peer sends, Merge must
// either reject it or produce statistics satisfying the merge contract —
// minima for exactly the requested range, every value inside its bound.
// Overlaps, gaps, duplicate ordinals, short minima and out-of-range
// counts must never survive into a merged result.
func FuzzShardMerge(f *testing.F) {
	seed := func(replies []Reply) {
		data, err := json.Marshal(replies)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(0, 10, 2, true, data)
	}
	// A valid tiling, and one seed per rejection class.
	seed([]Reply{
		{Shard: 0, Lo: 0, Hi: 5, MinP: []float64{1, 0.5, 0.25, 1, 1}, PoolHist: []int64{2, 3, 0}},
		{Shard: 1, Lo: 5, Hi: 10, MinP: []float64{1, 1, 1, 0.125, 1}, PoolHist: []int64{0, 1, 4}},
	})
	seed([]Reply{ // duplicate ordinal
		{Shard: 0, Lo: 0, Hi: 5, MinP: []float64{1, 1, 1, 1, 1}, PoolHist: []int64{0, 0, 0}},
		{Shard: 0, Lo: 5, Hi: 10, MinP: []float64{1, 1, 1, 1, 1}, PoolHist: []int64{0, 0, 0}},
	})
	seed([]Reply{ // gap: [0,4) then [5,10)
		{Shard: 0, Lo: 0, Hi: 4, MinP: []float64{1, 1, 1, 1}, PoolHist: []int64{0, 0, 0}},
		{Shard: 1, Lo: 5, Hi: 10, MinP: []float64{1, 1, 1, 1, 1}, PoolHist: []int64{0, 0, 0}},
	})
	seed([]Reply{ // overlap: [0,6) then [5,10)
		{Shard: 0, Lo: 0, Hi: 6, MinP: []float64{1, 1, 1, 1, 1, 1}, PoolHist: []int64{0, 0, 0}},
		{Shard: 1, Lo: 5, Hi: 10, MinP: []float64{1, 1, 1, 1, 1}, PoolHist: []int64{0, 0, 0}},
	})
	seed([]Reply{ // NaN minimum (encodes as null, decodes to 0 — the codec must not let it through as NaN)
		{Shard: 0, Lo: 0, Hi: 10, MinP: []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 2}, PoolHist: []int64{0, 0, 0}},
	})
	f.Add(0, 10, 2, true, []byte(`[{"shard":0,"lo":0,"hi":10,"min_p":[1,1,1,1,1,1,1,1,1,"x"]}]`))
	f.Add(3, 3, 2, false, []byte(`[]`))
	f.Add(0, 2, 0, true, []byte(`[{"shard":0,"lo":0,"hi":2,"min_p":[0.5,0.5],"pool_hist":[0]}]`))

	f.Fuzz(func(t *testing.T, lo, hi, numRules int, withPool bool, data []byte) {
		if numRules < 0 || numRules > 64 || hi-lo > 1<<16 {
			return
		}
		var wire []*Reply
		if err := json.Unmarshal(data, &wire); err != nil {
			return // malformed JSON is the transport's problem, not the merge's
		}
		st, err := Merge(lo, hi, numRules, wire, withPool)
		if err != nil {
			return
		}
		// The merge accepted the replies: the contract must hold.
		if st.Lo != lo || st.Hi != hi {
			t.Fatalf("merged range [%d, %d) != requested [%d, %d)", st.Lo, st.Hi, lo, hi)
		}
		if len(st.MinP) != hi-lo {
			t.Fatalf("%d minima for a %d-permutation range", len(st.MinP), hi-lo)
		}
		for j, p := range st.MinP {
			if !(p >= 0 && p <= 1) {
				t.Fatalf("merged min-p[%d] = %v escaped [0, 1]", j, p)
			}
		}
		span := int64(hi - lo)
		if withPool {
			if len(st.PoolHist) != numRules+1 {
				t.Fatalf("%d pool buckets for %d rules", len(st.PoolHist), numRules)
			}
			var total int64
			for _, c := range st.PoolHist {
				if c < 0 {
					t.Fatalf("negative pool bucket %d", c)
				}
				total += c
			}
			if total > span*int64(numRules) {
				t.Fatalf("merged pool holds %d values; at most %d were evaluated", total, span*int64(numRules))
			}
		} else if st.PoolHist != nil {
			t.Fatal("pool histogram materialised without being requested")
		}
	})
}
