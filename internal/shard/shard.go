// Package shard distributes permutation counting across workers
// (DESIGN.md §10): a coordinator partitions the absolute permutation-index
// range [0, MaxPerms) into disjoint contiguous shards, dispatches them to
// workers that each hold the same prepared session — HTTP peers, or
// in-process engines in tests — and merges the per-shard minima and
// pooled histograms into statistics bit-identical to a single-node
// permute.Engine span. The
// (Seed, absolute index) label contract makes the partition invisible to
// the statistics. Coordinator.Span is a permute.RoundRunner: adaptive
// rounds stay exact because permute.DriveAdaptive makes every retirement
// decision centrally from the merged histograms and the coordinator
// broadcasts the frontier to all workers; a fixed run is the one-round
// schedule of the same driver.
package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/permute"
)

// Plan partitions the permutation-index range [lo, hi) into at most shards
// contiguous non-empty subranges of near-equal length (earlier shards take
// the remainder). The plan is a pure function of its arguments, so a
// coordinator and a conformance test derive the same tiling.
func Plan(lo, hi, shards int) [][2]int {
	n := hi - lo
	if n <= 0 {
		return nil
	}
	if shards > n {
		shards = n
	}
	if shards < 1 {
		shards = 1
	}
	out := make([][2]int, 0, shards)
	per, extra := n/shards, n%shards
	x := lo
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

// Coordinator fans permutation spans out to a fixed set of workers and
// merges their replies. All workers must hold the same prepared session
// (tree, rules, seed and counting configuration) over numRules rules.
// Span has the shape of a permute.RoundRunner, so permute.DriveAdaptive
// drives a coordinator exactly as it drives a single engine.
type Coordinator struct {
	workers  []Worker
	numRules int
}

// NewCoordinator builds a coordinator over the given workers, whose
// session holds numRules rules.
func NewCoordinator(workers []Worker, numRules int) (*Coordinator, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("shard: coordinator needs at least one worker")
	}
	return &Coordinator{workers: workers, numRules: numRules}, nil
}

// Span dispatches the range [lo, hi) across the workers under the
// retirement frontier live (nil = every rule live) — one goroutine per
// planned shard, replies collected by shard index so completion order
// never leaks into the result — and merges the replies into statistics
// bit-identical to Engine.ShardSpan over the same range. A worker error
// aborts the dispatch and cancels the remaining shards.
func (c *Coordinator) Span(ctx context.Context, lo, hi int, live []bool, withPool bool) (*permute.ShardStats, error) {
	plan := Plan(lo, hi, len(c.workers))
	retired := RetiredFromLive(live)
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	replies := make([]*Reply, len(plan))
	errs := make([]error, len(plan))
	var wg sync.WaitGroup
	for s := range plan {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			req := Request{Shard: s, Lo: plan[s][0], Hi: plan[s][1], Retired: retired, WithPool: withPool}
			replies[s], errs[s] = c.workers[s].Span(sctx, req)
			if errs[s] != nil {
				cancel()
			}
		}(s)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		// The caller's own context ended; sibling errors are just echoes.
		return nil, err
	}
	// Report the failing shard, not a sibling whose cancellation merely
	// echoes the cancel above: the first error that is not a
	// cancellation, else the first error.
	failed := -1
	for s, err := range errs {
		if err != nil && (failed < 0 || errors.Is(errs[failed], context.Canceled) && !errors.Is(err, context.Canceled)) {
			failed = s
		}
	}
	if failed >= 0 {
		return nil, fmt.Errorf("shard %d [%d, %d): %w", failed, plan[failed][0], plan[failed][1], errs[failed])
	}
	return Merge(lo, hi, c.numRules, replies, withPool)
}
