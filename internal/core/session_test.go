package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/correction"
	"repro/internal/mining"
	"repro/internal/permute"
)

// assertSameResult fails unless got is byte-identical to want everywhere
// except the wall-clock durations (which can never reproduce).
func assertSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Method != want.Method || got.Control != want.Control ||
		got.Alpha != want.Alpha || got.MinSup != want.MinSup {
		t.Fatalf("%s: config echo differs: got %v/%v/%g/%d want %v/%v/%g/%d", label,
			got.Method, got.Control, got.Alpha, got.MinSup,
			want.Method, want.Control, want.Alpha, want.MinSup)
	}
	if got.NumRecords != want.NumRecords || got.NumPatterns != want.NumPatterns ||
		got.NumTested != want.NumTested {
		t.Fatalf("%s: counts differ: got %d/%d/%d want %d/%d/%d", label,
			got.NumRecords, got.NumPatterns, got.NumTested,
			want.NumRecords, want.NumPatterns, want.NumTested)
	}
	if got.Cutoff != want.Cutoff {
		t.Fatalf("%s: cutoff %g != %g", label, got.Cutoff, want.Cutoff)
	}
	if !reflect.DeepEqual(got.Significant, want.Significant) {
		t.Fatalf("%s: significant rule sets differ (%d vs %d rules)", label,
			len(got.Significant), len(want.Significant))
	}
	if !reflect.DeepEqual(got.Outcome, want.Outcome) {
		t.Fatalf("%s: outcomes differ", label)
	}
	if len(got.Tested) != len(want.Tested) {
		t.Fatalf("%s: tested %d != %d", label, len(got.Tested), len(want.Tested))
	}
	for i := range got.Tested {
		g, w := &got.Tested[i], &want.Tested[i]
		if g.P != w.P || g.Class != w.Class || g.Support != w.Support ||
			g.Coverage != w.Coverage || g.Confidence != w.Confidence ||
			!reflect.DeepEqual(g.Node.Closure, w.Node.Closure) {
			t.Fatalf("%s: tested rule %d differs", label, i)
		}
	}
	if (got.Holdout == nil) != (want.Holdout == nil) {
		t.Fatalf("%s: holdout detail presence differs", label)
	}
	if got.Holdout != nil && !reflect.DeepEqual(got.Holdout, want.Holdout) {
		t.Fatalf("%s: holdout details differ", label)
	}
}

// sessionPropertyConfigs enumerates every Method × Control combination
// (layered is FWER-only) at small permutation counts.
func sessionPropertyConfigs() []Config {
	var cfgs []Config
	for _, method := range []Method{MethodNone, MethodDirect, MethodPermutation, MethodHoldout, MethodLayered} {
		for _, control := range []Control{ControlFWER, ControlFDR} {
			if method == MethodLayered && control != ControlFWER {
				continue
			}
			cfg := Config{
				MinSup:       100,
				Method:       method,
				Control:      control,
				Permutations: 60,
				Seed:         11,
			}
			cfgs = append(cfgs, cfg)
			if method == MethodHoldout {
				random := cfg
				random.HoldoutRandom = true
				random.Seed = 13
				cfgs = append(cfgs, random)
			}
		}
	}
	return cfgs
}

// TestSessionMatchesFreshRun is the Session correctness property: for
// every Method × Control (including both holdout splits and layered), a
// Session run — warm or cold — is byte-identical to a fresh core.Run of
// the same (Seed, Config).
func TestSessionMatchesFreshRun(t *testing.T) {
	res := signalDataset(t, 21)
	sess := NewSession(res.Data)
	for _, cfg := range sessionPropertyConfigs() {
		label := fmt.Sprintf("%v/%v/random=%v", cfg.Method, cfg.Control, cfg.HoldoutRandom)
		fresh, err := Run(res.Data, cfg)
		if err != nil {
			t.Fatalf("%s: fresh run: %v", label, err)
		}
		cached, err := sess.Run(cfg)
		if err != nil {
			t.Fatalf("%s: session run: %v", label, err)
		}
		assertSameResult(t, label, cached, fresh)
	}
	// All non-holdout configs above share mining parameters: the whole
	// sweep must have cost exactly one encode + one mine + one score.
	st := sess.Stats()
	if st.Encodes != 1 || st.Mines != 1 || st.Scores != 1 {
		t.Errorf("stage counters after sweep: encodes=%d mines=%d scores=%d, want 1/1/1",
			st.Encodes, st.Mines, st.Scores)
	}
}

// TestSessionBatchSingleMine is the acceptance property: RunBatch over N
// configs sharing mining parameters performs exactly one encode/mine/score
// (stage counters), holdout configs sharing a split share one
// explore-and-evaluate stage, and every per-config result is
// byte-identical to a fresh run.
func TestSessionBatchSingleMine(t *testing.T) {
	res := signalDataset(t, 22)
	cfgs := []Config{
		{MinSup: 100, Method: MethodNone},
		{MinSup: 100, Method: MethodDirect, Control: ControlFWER},
		{MinSup: 100, Method: MethodDirect, Control: ControlFDR, Alpha: 0.01},
		{MinSup: 100, Method: MethodLayered, Control: ControlFWER},
		{MinSup: 100, Method: MethodPermutation, Control: ControlFWER, Permutations: 50, Seed: 3},
		// Shares an engine with the FWER config above (same seed/perms).
		{MinSup: 100, Method: MethodPermutation, Control: ControlFDR, Permutations: 50, Seed: 3},
		{MinSup: 100, Method: MethodPermutation, Control: ControlFDR, Permutations: 80, Seed: 4},
		// HD_BC and HD_BH on one random split share one stage; another
		// seed or another Alpha (the exploratory filter) does not.
		{MinSup: 100, Method: MethodHoldout, Control: ControlFWER, HoldoutRandom: true, Seed: 9},
		{MinSup: 100, Method: MethodHoldout, Control: ControlFDR, HoldoutRandom: true, Seed: 9},
		{MinSup: 100, Method: MethodHoldout, Control: ControlFWER, HoldoutRandom: true, Seed: 10},
		{MinSup: 100, Method: MethodHoldout, Control: ControlFDR, HoldoutRandom: true, Seed: 9, Alpha: 0.01},
	}
	const bc, bh, otherSeed, otherAlpha = 7, 8, 9, 10
	sess := NewSession(res.Data)
	outs, err := sess.RunBatch(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(cfgs) {
		t.Fatalf("got %d results for %d configs", len(outs), len(cfgs))
	}
	st := sess.Stats()
	if st.Encodes != 1 || st.Mines != 1 || st.Scores != 1 {
		t.Errorf("batch stage counters: encodes=%d mines=%d scores=%d, want 1/1/1",
			st.Encodes, st.Mines, st.Scores)
	}
	if st.Corrections != bc {
		t.Errorf("corrections=%d, want %d (one per non-holdout config)", st.Corrections, bc)
	}
	if st.Holdouts != 3 {
		t.Errorf("holdouts=%d, want 3 (one per shared split)", st.Holdouts)
	}
	cands := func(i int) *correction.HoldoutRule {
		c := outs[i].Holdout.Candidates
		if len(c) == 0 {
			t.Fatalf("config %d: no holdout candidates", i)
		}
		return &c[0]
	}
	if cands(bc) != cands(bh) {
		t.Error("HD_BC and HD_BH on one split do not share their candidates")
	}
	if cands(otherSeed) == cands(bc) || cands(otherAlpha) == cands(bc) {
		t.Error("holdouts with another seed or Alpha share candidates")
	}
	for i, cfg := range cfgs {
		fresh, err := Run(res.Data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, fmt.Sprintf("config %d", i), outs[i], fresh)
	}
}

// TestSessionDistinctKeysRemine verifies the caches key on the
// mining-relevant config subset: changing MinSup or MaxLen mines a new
// tree, changing only the scoring knobs (policy, test) rescores the same
// tree, and changing only the correction does neither.
func TestSessionDistinctKeysRemine(t *testing.T) {
	res := signalDataset(t, 23)
	sess := NewSession(res.Data)
	run := func(cfg Config) {
		t.Helper()
		if _, err := sess.Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	run(Config{MinSup: 100, Method: MethodDirect})                            // mine 1, score 1
	run(Config{MinSup: 100, Method: MethodNone})                              // cache hit
	run(Config{MinSup: 120, Method: MethodDirect})                            // mine 2, score 2
	run(Config{MinSup: 100, MaxLen: 2, Method: MethodDirect})                 // mine 3, score 3
	run(Config{MinSup: 100, Method: MethodDirect, Policy: mining.AllClasses}) // score 4 on tree 1
	run(Config{MinSup: 100, Method: MethodDirect, Test: mining.TestChiSquare})
	st := sess.Stats()
	if st.Mines != 3 {
		t.Errorf("mines=%d, want 3", st.Mines)
	}
	if st.Scores != 5 {
		t.Errorf("scores=%d, want 5", st.Scores)
	}
	if st.Encodes != 1 {
		t.Errorf("encodes=%d, want 1", st.Encodes)
	}
	if st.TreeHits == 0 || st.ScoreHits == 0 {
		t.Errorf("expected cache hits, got treeHits=%d scoreHits=%d", st.TreeHits, st.ScoreHits)
	}
}

// TestSessionCacheNoLeak runs A, then a config with different scoring
// state, then A again: the second A must match the first (and a fresh run)
// exactly — a cache hit must not leak state between configs.
func TestSessionCacheNoLeak(t *testing.T) {
	res := signalDataset(t, 24)
	cfgA := Config{MinSup: 100, Method: MethodPermutation, Control: ControlFWER, Permutations: 60, Seed: 5}
	cfgB := Config{MinSup: 100, Method: MethodDirect, Control: ControlFDR, Policy: mining.AllClasses, Test: mining.TestMidP}

	sess := NewSession(res.Data)
	first, err := sess.Run(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(cfgB); err != nil {
		t.Fatal(err)
	}
	second, err := sess.Run(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "repeat A", second, first)
	fresh, err := Run(res.Data, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "fresh A", second, fresh)
}

// TestSessionConcurrent issues the same config from many goroutines: the
// singleflight must mine once, and every caller gets the same answer.
func TestSessionConcurrent(t *testing.T) {
	res := signalDataset(t, 25)
	cfg := Config{MinSup: 100, Method: MethodDirect, Control: ControlFWER}
	sess := NewSession(res.Data)

	const goroutines = 8
	outs := make([]*Result, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			outs[g], errs[g] = sess.Run(cfg)
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		assertSameResult(t, fmt.Sprintf("goroutine %d", g), outs[g], outs[0])
	}
	st := sess.Stats()
	if st.Mines != 1 || st.Scores != 1 || st.Encodes != 1 {
		t.Errorf("concurrent stage counters: encodes=%d mines=%d scores=%d, want 1/1/1",
			st.Encodes, st.Mines, st.Scores)
	}
}

// TestSessionCacheEviction sweeps more MinSup values than the caches can
// hold: eviction must fire (observable in Stats), the retained entry count
// must stay at the cap, and an evicted stage must recompute bit-for-bit on
// re-request.
func TestSessionCacheEviction(t *testing.T) {
	res := signalDataset(t, 27)
	sess := NewSessionLimits(res.Data, CacheLimits{MaxTrees: 2, MaxRules: 2})
	sweep := []int{100, 110, 120, 130}
	first := make([]*Result, len(sweep))
	for i, ms := range sweep {
		out, err := sess.Run(Config{MinSup: ms, Method: MethodDirect})
		if err != nil {
			t.Fatal(err)
		}
		first[i] = out
	}
	st := sess.Stats()
	if st.Mines != int64(len(sweep)) {
		t.Fatalf("mines=%d, want %d", st.Mines, len(sweep))
	}
	if st.TreeEvictions != 2 || st.RuleEvictions != 2 {
		t.Errorf("evictions: trees=%d rules=%d, want 2/2", st.TreeEvictions, st.RuleEvictions)
	}
	if st.CachedTrees != 2 || st.CachedRules != 2 {
		t.Errorf("cached entries: trees=%d rules=%d, want 2/2", st.CachedTrees, st.CachedRules)
	}
	// MinSup=100 was evicted; re-running it mines again and reproduces the
	// original result exactly.
	again, err := sess.Run(Config{MinSup: sweep[0], Method: MethodDirect})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "recompute after eviction", again, first[0])
	if st2 := sess.Stats(); st2.Mines != int64(len(sweep))+1 {
		t.Errorf("mines after re-request=%d, want %d", st2.Mines, len(sweep)+1)
	}
}

// TestSessionBatchExceedsCacheCaps pins RunBatch's once-per-key guarantee
// against the bounded caches: a batch with more distinct stage keys than
// the caches retain still mines each key exactly once (stages are held
// for the batch, not re-fetched through the evictable cache), and every
// result matches a fresh run.
func TestSessionBatchExceedsCacheCaps(t *testing.T) {
	res := signalDataset(t, 30)
	sess := NewSessionLimits(res.Data, CacheLimits{MaxTrees: 2, MaxRules: 2})
	sweep := []int{100, 105, 110, 115, 120}
	var cfgs []Config
	for _, ms := range sweep {
		cfgs = append(cfgs,
			Config{MinSup: ms, Method: MethodDirect},
			Config{MinSup: ms, Method: MethodDirect, Control: ControlFDR})
	}
	outs, err := sess.RunBatch(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	st := sess.Stats()
	if st.Mines != int64(len(sweep)) {
		t.Errorf("mines=%d, want %d (one per distinct key despite cap 2)", st.Mines, len(sweep))
	}
	if st.TreeEvictions == 0 {
		t.Error("expected evictions while filling past the cap")
	}
	for i, cfg := range cfgs {
		fresh, err := Run(res.Data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, fmt.Sprintf("config %d", i), outs[i], fresh)
	}
}

// TestStageCacheLRUOrder verifies recency, not insertion order, decides
// the victim: touching the older entry saves it.
func TestStageCacheLRUOrder(t *testing.T) {
	c := newStageCache[string, int](2)
	computes := 0
	get := func(key string) {
		t.Helper()
		v, _, err := c.getOrCompute(key, func() (int, error) {
			computes++
			return len(key), nil
		})
		if err != nil || v != len(key) {
			t.Fatalf("get(%q) = %d, %v", key, v, err)
		}
	}
	get("a")  // computes: a
	get("bb") // computes: a, bb
	get("a")  // hit, touches a: bb is now the LRU victim
	get("ccc")
	if c.idx.Evictions() != 1 {
		t.Fatalf("evictions=%d, want 1", c.idx.Evictions())
	}
	get("a") // must still be cached
	if computes != 3 {
		t.Errorf("computes=%d, want 3 (touched entry must survive eviction)", computes)
	}
	get("bb") // the victim: recomputes
	if computes != 4 {
		t.Errorf("computes after re-requesting victim=%d, want 4", computes)
	}
	if c.len() != 2 {
		t.Errorf("retained=%d, want 2", c.len())
	}
}

// TestStageCacheErrorNotRetained verifies a failed compute occupies no
// cache slot: errors are returned but never cached or counted as entries.
func TestStageCacheErrorNotRetained(t *testing.T) {
	c := newStageCache[string, int](2)
	wantErr := fmt.Errorf("boom")
	if _, _, err := c.getOrCompute("k", func() (int, error) { return 0, wantErr }); err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if c.len() != 0 {
		t.Fatalf("failed compute retained: len=%d", c.len())
	}
	v, hit, err := c.getOrCompute("k", func() (int, error) { return 7, nil })
	if err != nil || hit || v != 7 {
		t.Fatalf("retry after error: v=%d hit=%v err=%v", v, hit, err)
	}
}

// TestSessionDefaultCacheLimits pins the defaults: NewSession must be
// bounded (a long-lived serving process must not leak stages), with the
// documented capacities.
func TestSessionDefaultCacheLimits(t *testing.T) {
	res := signalDataset(t, 29)
	sess := NewSession(res.Data)
	if sess.trees.idx.Cap() != DefaultTreeCacheCap {
		t.Errorf("default tree cache cap = %d, want %d", sess.trees.idx.Cap(), DefaultTreeCacheCap)
	}
	if sess.rules.idx.Cap() != DefaultRuleCacheCap {
		t.Errorf("default rule cache cap = %d, want %d", sess.rules.idx.Cap(), DefaultRuleCacheCap)
	}
	if unbounded := NewSessionLimits(res.Data, CacheLimits{MaxTrees: -1, MaxRules: -1}); unbounded.trees.idx.Cap() > 0 || unbounded.rules.idx.Cap() > 0 {
		t.Error("negative limits should mean unbounded")
	}
}

// TestSessionBatchErrors verifies atomic failure with the offending config
// index in the error.
func TestSessionBatchErrors(t *testing.T) {
	res := signalDataset(t, 26)
	sess := NewSession(res.Data)
	// Negative permutation budgets are config errors, rejected before any
	// stage runs — fixed and adaptive alike.
	for _, bad := range []Config{
		{MinSup: 100, Method: MethodPermutation, Permutations: -5},
		{MinSup: 100, Method: MethodPermutation, Adaptive: permute.Adaptive{MaxPerms: -5}},
	} {
		if _, err := sess.RunBatch(context.Background(), []Config{{MinSup: 100, Method: MethodDirect}, bad}); err == nil {
			t.Fatalf("negative budget %+v accepted", bad)
		}
		if _, err := sess.Run(bad); err == nil {
			t.Fatalf("negative budget %+v accepted by Run", bad)
		}
	}
	if st := sess.Stats(); st.Encodes != 0 || st.Mines != 0 || st.Scores != 0 {
		t.Fatalf("a rejected budget ran stages: %+v", st)
	}
	_, err := sess.RunBatch(context.Background(), []Config{
		{MinSup: 100, Method: MethodDirect},
		{MinSup: 100, Alpha: 2, Method: MethodDirect},
	})
	if err == nil {
		t.Fatal("invalid batch config accepted")
	}
	// Layered under FDR fails at correction time; the batch must report it.
	_, err = sess.RunBatch(context.Background(), []Config{
		{MinSup: 100, Method: MethodLayered, Control: ControlFDR},
	})
	if err == nil {
		t.Fatal("layered FDR accepted")
	}
	// Cancelled context aborts the batch...
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.RunBatch(ctx, []Config{{MinSup: 90, Method: MethodDirect}}); err == nil {
		t.Fatal("cancelled batch succeeded")
	}
	// ...without poisoning the cache for later live runs.
	if _, err := sess.Run(Config{MinSup: 90, Method: MethodDirect}); err != nil {
		t.Fatalf("run after cancelled batch: %v", err)
	}
}
