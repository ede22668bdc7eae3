package permute

import (
	"fmt"
	"sort"
)

// This file is the engine's distributed-sharding surface (DESIGN.md §10).
// ShardSpan evaluates one contiguous range [lo, hi) of the absolute
// permutation-index space and returns mergeable statistics. Every
// permutation's label shuffle derives from (Seed, absolute index), so the
// statistics of any partition of [0, NumPerms) into spans merge — minima
// concatenated, counts summed — into exactly the single-node run's output,
// bit for bit, no matter how the spans are distributed across engines,
// processes or machines.

// Rank is the ascending ordering of a rule set's original p-values — the
// shared bucketing scheme behind every pooled exceedance histogram. A
// permutation p-value lands in one bucket by binary search (the first
// sorted position at or above it), and a prefix sum over the histogram
// recovers every rule's <=-count (see CountsFromHist). The ordering is a
// pure function of ps — the sort is deterministic, and tied p-values
// receive identical counts regardless of their relative order — so a
// coordinator and its workers agree on the bucketing by construction.
type Rank struct {
	// Order[i] is the index into ps of the i-th smallest original p-value;
	// Sorted[i] is that p-value.
	Order  []int
	Sorted []float64
}

// NewRank ranks the original p-values ps, given by rule index.
func NewRank(ps []float64) Rank {
	order := make([]int, len(ps))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return ps[order[a]] < ps[order[b]] })
	sorted := make([]float64, len(order))
	for i, idx := range order {
		sorted[i] = ps[idx]
	}
	return Rank{Order: order, Sorted: sorted}
}

// CountsFromHist converts a pooled histogram over sorted positions —
// hist[i] counting the permutation p-values whose SearchFloat64s bucket is
// i — into per-rule <=-counts: counts in sorted order are the prefix sums
// of the histogram, mapped back to rule order through Order.
func (r Rank) CountsFromHist(hist []int64) []int64 {
	out := make([]int64, len(r.Order))
	var acc int64
	for i := range r.Sorted {
		acc += hist[i]
		out[r.Order[i]] = acc
	}
	return out
}

// NumRules returns the size of the rule set the engine evaluates.
func (e *Engine) NumRules() int { return len(e.rules) }

// rank memoises the rules' p-value rank and the raw p-value slice.
func (e *Engine) rank() Rank {
	e.rankOnce.Do(func() {
		ps := make([]float64, len(e.rules))
		for i := range e.rules {
			ps[i] = e.rules[i].P
		}
		e.origVal = ps
		e.rankVal = NewRank(ps)
	})
	return e.rankVal
}

// origPs returns the rules' original p-values by rule index. The slice is
// shared; callers must not mutate it.
func (e *Engine) origPs() []float64 {
	e.rank()
	return e.origVal
}

// ShardStats carries the mergeable statistics of one evaluated permutation
// range [Lo, Hi). Everything downstream correction consumes is either a
// per-permutation value (MinP — disjoint across shards, so shards
// concatenate) or an additive count (PoolHist — int64 sums, so shards
// add), which is why sharded runs are byte-identical to single-node runs
// by construction.
type ShardStats struct {
	Lo, Hi int
	// MinP[j] is the minimum p-value over the live rules on permutation
	// Lo+j, 1 when no rule was counted.
	MinP []float64
	// PoolHist buckets every counted p-value over the sorted original
	// p-values (see Rank); nil unless requested.
	PoolHist []int64
}

// ShardSpan evaluates the permutations [lo, hi) — one shard of the
// absolute index range [0, NumPerms) — against the rules still live and
// returns the range's mergeable statistics. It is the engine's one walk:
// MinP, CountLE and every round of RunAdaptive are ShardSpan calls. The
// full range [0, NumPerms) reuses the engine's one memoised label block;
// any other range builds its own. live == nil (or all true) means no
// rule has retired; otherwise the walk runs over the same
// retirement-compacted indexes an adaptive round would use, memoised by
// frontier content so the many spans sharing one frontier pay for one
// compaction. withPool adds the pooled histogram to the always-present
// minima. Cancellation arrives via Config.Ctx as with every engine entry
// point; on a non-nil error the statistics must be discarded.
func (e *Engine) ShardSpan(lo, hi int, live []bool, withPool bool) (*ShardStats, error) {
	if lo < 0 || hi > e.cfg.NumPerms || lo >= hi {
		return nil, fmt.Errorf("permute: shard span [%d, %d) not within [0, %d)", lo, hi, e.cfg.NumPerms)
	}
	if live != nil && len(live) != len(e.rules) {
		return nil, fmt.Errorf("permute: live mask has %d entries for %d rules", len(live), len(e.rules))
	}
	if err := e.ctxErr(); err != nil {
		e.setErr(err)
		return nil, err
	}
	rulesByNode, children := e.liveIndexes(live)
	var lab *labelBlock
	if lo == 0 && hi == e.cfg.NumPerms {
		lab = e.fixedLab()
	} else {
		lab = e.buildLabels(lo, hi)
	}
	if err := e.ctxErr(); err != nil {
		e.setErr(err)
		return nil, err
	}
	st := &ShardStats{Lo: lo, Hi: hi, MinP: make([]float64, hi-lo)}
	for i := range st.MinP {
		st.MinP[i] = 1
	}
	var sorted []float64
	if withPool {
		st.PoolHist = make([]int64, len(e.rules)+1)
		sorted = e.rank().Sorted
	}
	e.runSpan(lab, rulesByNode, children, st, sorted)
	if err := e.ctxErr(); err != nil {
		return nil, err
	}
	return st, nil
}

// liveIndexes returns the walk indexes of the given retirement frontier:
// the base adjacencies when nothing has retired, else a memoised
// compactLive. The memo holds the latest frontier only — exactly the
// access pattern of an adaptive run, where frontiers only grow.
func (e *Engine) liveIndexes(live []bool) (*adjacency, *adjacency) {
	allLive := true
	for _, l := range live {
		if !l {
			allLive = false
			break
		}
	}
	if allLive { // includes live == nil
		return e.rulesByNode, e.children
	}
	e.compactMu.Lock()
	defer e.compactMu.Unlock()
	if e.compactKey != nil && boolSliceEqual(e.compactKey, live) {
		return e.compactRules, e.compactChildren
	}
	r, c := e.compactLive(live)
	e.compactKey = append([]bool(nil), live...)
	e.compactRules, e.compactChildren = r, c
	return r, c
}

func boolSliceEqual(a, b []bool) bool {
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

// shardVisitor accumulates one worker's share of a span's statistics in
// one pass: per-permutation minima always (written in place — workers own
// disjoint permutation ranges), and, when poolHist is non-nil, the pooled
// histogram of every p-value bucketed over the sorted original p-values.
type shardVisitor struct {
	lo       int
	min      []float64 // span-relative per-permutation minima (shared)
	sorted   []float64 // nil unless the pool is requested
	poolHist []int64   // nil unless requested
}

// visit folds one rule's p-values on the permutations [perm0,
// perm0+len(ps)) into the statistics.
//
//armine:noalloc
func (v *shardVisitor) visit(perm0 int, ps []float64) {
	base := perm0 - v.lo
	min := v.min[base : base+len(ps)]
	if v.poolHist == nil {
		for j, p := range ps {
			if p < min[j] {
				min[j] = p
			}
		}
		return
	}
	for j, p := range ps {
		// First index i with sorted[i] >= p: the permutation value p is
		// <= every original p-value from i on.
		v.poolHist[sort.SearchFloat64s(v.sorted, p)]++
		if p < min[j] {
			min[j] = p
		}
	}
}
