package shard

import (
	"fmt"

	"repro/internal/permute"
)

// Merge validates the per-shard replies and merges them into the
// statistics of the full range [lo, hi): minima concatenate (each
// permutation lives in exactly one shard) and counts add (int64 sums are
// associative), so the merged statistics equal a single-node evaluation of
// the range bit for bit. Replies must tile [lo, hi) exactly, in range
// order — the first reply starts at lo, each next reply starts where the
// previous ended, and the last ends at hi; gaps, overlaps, duplicate shard
// ordinals, pooled counts outside their per-shard bounds, and minima
// outside [0, 1] (including NaN) are rejected rather than merged, since a
// malformed reply would silently corrupt the null distribution.
//
//armine:deterministic
func Merge(lo, hi, numRules int, replies []*Reply, withPool bool) (*permute.ShardStats, error) {
	if lo < 0 || lo >= hi {
		return nil, fmt.Errorf("shard: merge range [%d, %d) is empty or negative", lo, hi)
	}
	if numRules < 0 {
		return nil, fmt.Errorf("shard: merge with negative rule count %d", numRules)
	}
	st := &permute.ShardStats{Lo: lo, Hi: hi, MinP: make([]float64, 0, hi-lo)}
	if withPool {
		st.PoolHist = make([]int64, numRules+1)
	}
	seen := make(map[int]bool, len(replies))
	next := lo
	for i, r := range replies {
		if r == nil {
			return nil, fmt.Errorf("shard: merge reply %d is missing", i)
		}
		if seen[r.Shard] {
			return nil, fmt.Errorf("shard: duplicate reply from shard %d", r.Shard)
		}
		seen[r.Shard] = true
		if r.Lo != next {
			return nil, fmt.Errorf("shard: reply %d covers [%d, %d); want a range starting at %d (replies must tile [%d, %d) in order)",
				i, r.Lo, r.Hi, next, lo, hi)
		}
		if r.Hi <= r.Lo || r.Hi > hi {
			return nil, fmt.Errorf("shard: reply %d range [%d, %d) overruns [%d, %d)", i, r.Lo, r.Hi, lo, hi)
		}
		span := int64(r.Hi - r.Lo)
		if len(r.MinP) != int(span) {
			return nil, fmt.Errorf("shard: reply %d carries %d minima for %d permutations", i, len(r.MinP), span)
		}
		for _, p := range r.MinP {
			if !(p >= 0 && p <= 1) {
				return nil, fmt.Errorf("shard: reply %d min-p %v outside [0, 1]", i, p)
			}
		}
		if withPool {
			if len(r.PoolHist) != numRules+1 {
				return nil, fmt.Errorf("shard: reply %d carries a %d-bucket pool histogram for %d rules", i, len(r.PoolHist), numRules)
			}
			// A shard evaluates at most span·numRules (rule, permutation)
			// pairs, bounding every bucket — and, transitively, the int64
			// accumulation — before anything is added.
			var total int64
			for bi, c := range r.PoolHist {
				if c < 0 || c > span*int64(numRules) {
					return nil, fmt.Errorf("shard: reply %d pool bucket %d count %d outside [0, %d]", i, bi, c, span*int64(numRules))
				}
				total += c
			}
			if total > span*int64(numRules) {
				return nil, fmt.Errorf("shard: reply %d pool holds %d values; at most %d were evaluated", i, total, span*int64(numRules))
			}
			for bi, c := range r.PoolHist {
				st.PoolHist[bi] += c
			}
		} else if len(r.PoolHist) != 0 {
			return nil, fmt.Errorf("shard: reply %d carries an unrequested pool histogram", i)
		}
		st.MinP = append(st.MinP, r.MinP...)
		next = r.Hi
	}
	if next != hi {
		return nil, fmt.Errorf("shard: replies cover [%d, %d) of [%d, %d); the tail is missing", lo, next, lo, hi)
	}
	return st, nil
}
