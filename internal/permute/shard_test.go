package permute

import (
	"reflect"
	"testing"
)

// tilePlan partitions [0, n) into shards near-equal contiguous ranges —
// an independent re-derivation of the coordinator's Plan, kept local so
// these tests state the shard-range contract themselves.
func tilePlan(n, shards int) [][2]int {
	if shards > n {
		shards = n
	}
	var out [][2]int
	per, extra := n/shards, n%shards
	x := 0
	for s := 0; s < shards; s++ {
		ln := per
		if s < extra {
			ln++
		}
		out = append(out, [2]int{x, x + ln})
		x += ln
	}
	return out
}

// TestShardSpanByteIdentical is the shard-range conformance property: for
// every optimisation level, worker count and counting path, evaluating
// [0, N) as 1, 2, 3 or 8 disjoint contiguous ShardSpan tiles and merging
// (concatenating minima, summing counts) must equal the single-node
// engine's MinP and CountLE byte for byte — not approximately. The (Seed,
// absolute index) label contract makes the tiling invisible: permutation j
// derives its labels from the absolute index j no matter which tile
// evaluates it.
func TestShardSpanByteIdentical(t *testing.T) {
	const numPerms = 25
	const seed = 99
	for _, opt := range []OptLevel{OptNone, OptDynamicBuffer, OptDiffsets, OptStaticBuffer} {
		tree, rules := buildCase(t, 5, 300, 8, 20, opt.WantDiffsets())
		ps := make([]float64, len(rules))
		for i := range rules {
			ps[i] = rules[i].P
		}
		rank := NewRank(ps)
		for _, ab := range countVariants {
			for _, workers := range []int{1, 4} {
				cfg := Config{
					NumPerms: numPerms, Seed: seed, Opt: opt, Workers: workers,
					elementWalk: ab.elementWalk,
				}
				single, err := NewEngine(tree, rules, cfg)
				if err != nil {
					t.Fatal(err)
				}
				wantMinP := single.MinP()
				wantLE := single.CountLE()
				if err := single.Err(); err != nil {
					t.Fatal(err)
				}
				for _, shards := range []int{1, 2, 3, 8} {
					scfg := cfg
					scfg.DeferLabels = true
					e, err := NewEngine(tree, rules, scfg)
					if err != nil {
						t.Fatal(err)
					}
					gotMinP := make([]float64, 0, numPerms)
					poolHist := make([]int64, len(rules)+1)
					for _, tile := range tilePlan(numPerms, shards) {
						st, err := e.ShardSpan(tile[0], tile[1], nil, true)
						if err != nil {
							t.Fatalf("opt=%v ab=%s workers=%d shards=%d tile %v: %v",
								opt, ab.name, workers, shards, tile, err)
						}
						gotMinP = append(gotMinP, st.MinP...)
						for b, c := range st.PoolHist {
							poolHist[b] += c
						}
					}
					if !reflect.DeepEqual(gotMinP, wantMinP) {
						t.Fatalf("opt=%v ab=%s workers=%d shards=%d: merged MinP differs from single-node",
							opt, ab.name, workers, shards)
					}
					if gotLE := rank.CountsFromHist(poolHist); !reflect.DeepEqual(gotLE, wantLE) {
						t.Fatalf("opt=%v ab=%s workers=%d shards=%d: merged CountLE differs from single-node",
							opt, ab.name, workers, shards)
					}
					// Pooled histograms are additive across tiles: the tiled
					// sum must equal one span over the whole range.
					full, err := e.ShardSpan(0, numPerms, nil, true)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(poolHist, full.PoolHist) {
						t.Fatalf("opt=%v ab=%s workers=%d shards=%d: tiled pool histograms differ from full span",
							opt, ab.name, workers, shards)
					}
				}
			}
		}
	}
}

// TestShardSpanLiveMaskMatchesCompact verifies the retirement-frontier
// contract on a single worker: spanning with an explicit all-true mask
// equals spanning with nil (base adjacencies), and spanning under a
// partial mask produces minima over exactly the live rules.
func TestShardSpanLiveMaskMatchesCompact(t *testing.T) {
	const numPerms = 16
	const seed = 3
	tree, rules := buildCase(t, 11, 250, 7, 15, true)
	e, err := NewEngine(tree, rules, Config{NumPerms: numPerms, Seed: seed, DeferLabels: true})
	if err != nil {
		t.Fatal(err)
	}

	allTrue := make([]bool, len(rules))
	for i := range allTrue {
		allTrue[i] = true
	}
	base, err := e.ShardSpan(0, numPerms, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	masked, err := e.ShardSpan(0, numPerms, allTrue, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, masked) {
		t.Fatal("all-true live mask differs from nil mask")
	}

	// Retire every other rule; live minima can only grow (the min runs
	// over a subset), and retired rules must contribute nothing to the
	// pool.
	live := make([]bool, len(rules))
	numLive := 0
	for i := range live {
		live[i] = i%2 == 0
		if live[i] {
			numLive++
		}
	}
	part, err := e.ShardSpan(0, numPerms, live, true)
	if err != nil {
		t.Fatal(err)
	}
	for j := range part.MinP {
		if part.MinP[j] < base.MinP[j] {
			t.Fatalf("perm %d: live-subset min %g below full min %g", j, part.MinP[j], base.MinP[j])
		}
	}
	var pooled int64
	for _, c := range part.PoolHist {
		pooled += c
	}
	if want := int64(numLive) * numPerms; pooled != want {
		t.Fatalf("pool holds %d values under the partial mask, want %d live rules × %d perms = %d",
			pooled, numLive, numPerms, want)
	}
}

// TestShardSpanRejectsBadRanges pins the span entry point's validation.
func TestShardSpanRejectsBadRanges(t *testing.T) {
	tree, rules := buildCase(t, 51, 100, 4, 10, true)
	e, err := NewEngine(tree, rules, Config{NumPerms: 10, Seed: 1, DeferLabels: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int{{-1, 5}, {5, 5}, {8, 4}, {0, 11}} {
		if _, err := e.ShardSpan(r[0], r[1], nil, true); err == nil {
			t.Errorf("ShardSpan(%d, %d) accepted an invalid range", r[0], r[1])
		}
	}
	if _, err := e.ShardSpan(0, 10, make([]bool, len(rules)+1), true); err == nil {
		t.Error("ShardSpan accepted a live mask of the wrong length")
	}
}
