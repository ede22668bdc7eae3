package shard

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/permute"
)

// TestCoordinatorConcurrentSpansAndCancel is the scheduler-pressure test
// the CI race matrix runs at GOMAXPROCS 1, 2 and 8: several coordinators
// over the same shared engine run full spans concurrently — exercising the
// engine's compact-mask memoisation and rank caches under contention —
// while another batch of runs is cancelled mid-flight. Every uncancelled
// run must produce the identical byte-exact result; cancelled runs must
// fail with the cancellation, not corrupt their siblings.
func TestCoordinatorConcurrentSpansAndCancel(t *testing.T) {
	const maxPerms = 200
	tree, rules, ps := buildCase(t, 7, 300, 8, 20)
	ad := permute.Adaptive{MinPerms: 50, MaxPerms: maxPerms}
	cfg := permute.Config{Seed: 13, Workers: 2, Adaptive: ad}

	single, err := permute.NewEngine(tree, rules, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := single.RunAdaptive(permute.AdaptFDR, 0.05)
	if err != nil {
		t.Fatal(err)
	}

	// One shared labels-deferred engine behind every worker of every
	// coordinator: the most contended configuration.
	workers := localWorkers(t, tree, rules, cfg, 4)

	var wg sync.WaitGroup
	results := make([]*permute.AdaptiveResult, 6)
	errs := make([]error, len(results))
	for i := range results {
		coord, err := NewCoordinator(workers, len(rules))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = permute.DriveAdaptive(ps, ad, permute.AdaptFDR, 0.05, runner(coord, context.Background()))
		}(i)
	}

	// Cancellation pressure: engines bound to a context that dies while
	// their spans are in flight. They share nothing with the engine above,
	// so the runs racing toward results stay unaffected.
	cancelDone := make(chan error, 2)
	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		ccfg := permute.Config{NumPerms: maxPerms, Seed: 13, Workers: 2, Ctx: ctx}
		coord, err := NewCoordinator(localWorkers(t, tree, rules, ccfg, 3), len(rules))
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			time.Sleep(time.Millisecond)
			cancel()
		}()
		go func() {
			_, err := coord.Span(ctx, 0, maxPerms, nil, false)
			cancelDone <- err
		}()
	}

	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d failed: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], want) {
			t.Fatalf("concurrent run %d diverged from the single-node result", i)
		}
	}
	for i := 0; i < 2; i++ {
		// A cancelled run may still win the race and finish cleanly; what
		// it must never do is return a wrong error kind or deadlock.
		if err := <-cancelDone; err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run returned %v, want nil or context.Canceled", err)
		}
	}
}
