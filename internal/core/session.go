package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/correction"
	"repro/internal/dataset"
	"repro/internal/lru"
	"repro/internal/mining"
	"repro/internal/permute"
	"repro/internal/redundancy"
	"repro/internal/shard"
)

// treeKey is the subset of Config that determines the mined tree: two
// configs with equal treeKeys share one closed-pattern enumeration.
// Workers is deliberately absent — the miner's output is byte-identical
// for every worker count — as are the correction knobs (Method, Control,
// Alpha, Seed, Permutations, ...), which only consume the tree.
//
// version is the dataset version the tree was mined against (always 1
// for in-memory sessions). Appending to a segment store bumps its
// version, so every stage keyed under the old version — and, since
// ruleKey and permKey embed treeKey, every rule and permutation stage
// above it — is invalidated at once: the next run keys under the new
// version and recomputes from a fresh snapshot.
type treeKey struct {
	version       uint64
	minSup        int
	maxLen        int
	maxNodes      int
	storeDiffsets bool
}

// ruleKey extends treeKey with the scoring-relevant fields: configs with
// equal ruleKeys share one scored (rule generation + significance +
// redundancy reduction) stage.
type ruleKey struct {
	tree       treeKey
	policy     mining.RuleClassPolicy
	fixedClass int32
	minConf    float64
	test       mining.TestKind
	redundancy float64
}

// permKey identifies a permutation-null construction: batch configs with
// equal permKeys (differing only in Control/Alpha) share one engine. The
// significance test is keyed via ruleKey; Workers is absent because
// engine output is byte-identical for every worker count.
//
// Adaptive runs are keyed more finely: the retirement rule consumes the
// error level and the control (they decide which rules stop being
// counted), so alpha and control join the key — and perms leaves it,
// because Adaptive.MaxPerms replaces Permutations as the budget.
type permKey struct {
	rule     ruleKey
	perms    int
	seed     uint64
	opt      permute.OptLevel
	budget   int
	adaptive permute.Adaptive
	alpha    float64 // zero unless adaptive
	control  Control // ControlFWER unless adaptive
	// shards is len(ShardWorkers) (0 = single-node). Sharding never
	// changes results, but a sharded group runs through the coordinator
	// rather than a plain engine, so the requested fan-out must not be
	// silently dropped by group sharing.
	shards int
}

// permKey derives the engine-sharing key of a normalized permutation
// config.
func (c Config) permKey() permKey {
	k := permKey{
		rule:   c.ruleKey(),
		perms:  c.Permutations,
		seed:   c.Seed,
		opt:    c.Opt,
		budget: c.StaticBudget,
		shards: len(c.ShardWorkers),
	}
	if c.Adaptive.Enabled() {
		k.perms = 0
		k.adaptive = c.Adaptive
		k.alpha = c.Alpha
		k.control = c.Control
	}
	return k
}

// storeDiffsets reports whether the mined tree needs Diffset storage under
// cfg — the same decision the one-shot pipeline makes: every non-
// permutation method stores them, and permutation runs follow the
// optimisation level (so the Fig-4 "no Diffsets" ablations stay exact).
func (c Config) storeDiffsets() bool {
	return c.Method != MethodPermutation || c.Opt.WantDiffsets()
}

// treeKey derives the mining cache key of a normalized config.
func (c Config) treeKey() treeKey {
	return treeKey{
		minSup:        c.MinSup,
		maxLen:        c.MaxLen,
		maxNodes:      c.MaxNodes,
		storeDiffsets: c.storeDiffsets(),
	}
}

// ruleKey derives the scoring cache key of a normalized config.
func (c Config) ruleKey() ruleKey {
	k := ruleKey{
		tree:       c.treeKey(),
		policy:     c.Policy,
		minConf:    c.MinConf,
		test:       c.Test,
		redundancy: c.RedundancyEpsilon,
	}
	if c.Policy == mining.FixedClass {
		k.fixedClass = c.FixedClass
	}
	return k
}

// treeStage is a cached mine stage: the tree, the encoded snapshot it
// was mined from (carried so downstream consumers — rule rendering,
// record counts — stay consistent with the tree even if the source has
// since moved to a newer version), and the wall-clock cost of producing
// it.
type treeStage struct {
	tree *mining.Tree
	enc  *dataset.Encoded
	dur  time.Duration
}

// ruleStage is a cached score stage: the tested rule set (shared by every
// run that hits it — treat as read-only) plus its producing tree stage and
// cost.
type ruleStage struct {
	tree  treeStage
	rules []mining.Rule
	dur   time.Duration
}

// entry is one singleflight cache slot: done is closed when the compute
// finished, after which exactly one of val/err is meaningful.
type entry[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// ErrStageIncomplete is the error singleflight waiters observe when the
// goroutine computing their stage panicked: the slot is unpublished (so a
// retry recomputes) and the panic propagates on the computing caller. A
// caller receiving it hit an internal fault, not a bad configuration.
var ErrStageIncomplete = errors.New("core: stage computation did not complete")

// stageCache is a bounded, keyed singleflight cache: each key's value is
// computed at most once across concurrent callers, and the number of
// retained *completed* entries never exceeds the index capacity — the
// least recently used entry is evicted first. In-flight computations are
// never evicted (they are not retained state yet; waiters hold the slot
// pointer directly), so the singleflight guarantee is unaffected by the
// bound. A re-request of an evicted key simply recomputes — eviction
// changes cost, never output.
type stageCache[K comparable, V any] struct {
	mu  sync.Mutex
	m   map[K]*entry[V]
	idx *lru.Index[K] // completed keys only
}

func newStageCache[K comparable, V any](cap int) *stageCache[K, V] {
	return &stageCache[K, V]{m: make(map[K]*entry[V]), idx: lru.New[K](cap)}
}

// len reports the number of completed entries currently retained.
func (c *stageCache[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.idx.Len()
}

// retain records key as the most recently used completed entry and evicts
// past the capacity. Callers hold c.mu.
func (c *stageCache[K, V]) retain(key K) {
	for _, victim := range c.idx.Insert(key) {
		delete(c.m, victim)
	}
}

// getOrCompute returns the cached value of key, computing it with fn at
// most once across concurrent callers. On error the slot is removed before
// callers are released, so a later call (with a live context) retries
// instead of observing a poisoned cache. The second result reports a cache
// hit.
func (c *stageCache[K, V]) getOrCompute(key K, fn func() (V, error)) (V, bool, error) {
	for {
		c.mu.Lock()
		e, ok := c.m[key]
		if !ok {
			e = &entry[V]{done: make(chan struct{})}
			c.m[key] = e
			c.mu.Unlock()
			// Unpublish the slot and release waiters on ANY failure,
			// including a panic in fn: the panic propagates to this
			// caller (as in a fresh run), while waiters observe an error
			// and retry rather than blocking on a never-closed channel.
			completed := false
			defer func() {
				if !completed {
					c.mu.Lock()
					delete(c.m, key)
					c.mu.Unlock()
					e.err = ErrStageIncomplete
					close(e.done)
				}
			}()
			v, err := fn()
			completed = true
			if err != nil {
				c.mu.Lock()
				delete(c.m, key)
				c.mu.Unlock()
				e.err = err
				close(e.done)
				var zero V
				return zero, false, err
			}
			e.val = v
			c.mu.Lock()
			c.retain(key)
			c.mu.Unlock()
			close(e.done)
			return v, false, nil
		}
		c.idx.Touch(key)
		c.mu.Unlock()
		<-e.done
		if e.err == nil {
			return e.val, true, nil
		}
		// The computing call failed (cancelled context, exhausted node
		// budget, ...) and unpublished its slot; retry with our own fn.
	}
}

// SessionStats counts the pipeline stages a Session has executed (not the
// cheap cache hits). A batch of N configs sharing mining parameters shows
// Encodes == Mines == Scores == 1 and Corrections == N.
type SessionStats struct {
	// Encodes / Mines / Scores count executed encode, mine and score
	// stages; TreeHits / ScoreHits count runs served from the caches
	// instead.
	Encodes   int64
	Mines     int64
	Scores    int64
	TreeHits  int64
	ScoreHits int64
	// Corrections counts correction stages (always one per non-holdout
	// run; corrections are never cached because Method/Control/Alpha/Seed
	// vary freely across runs).
	Corrections int64
	// AdaptiveRuns counts adaptive permutation engine executions, and
	// PermsSaved accumulates the (rule, permutation) evaluations their
	// retirement avoided relative to fixed runs of the same budgets.
	AdaptiveRuns int64
	PermsSaved   int64
	// Holdouts counts executed holdout explore-and-evaluate stages, which
	// bypass the shared stages (they mine the exploratory half, not the
	// whole dataset). A batch runs one per group of configs sharing a
	// split and its exploratory parameters, so HD_BC and HD_BH on one
	// split count once; holdout decisions are not Corrections.
	Holdouts int64
	// TreeEvictions / RuleEvictions count cache entries dropped by the
	// size bound (see CacheLimits). A long-lived session sweeping many
	// distinct mining parameters shows these grow while the cached entry
	// count stays at the cap.
	TreeEvictions int64
	RuleEvictions int64
	// CachedTrees / CachedRules are the completed entries currently
	// retained (always <= the configured caps).
	CachedTrees int64
	CachedRules int64
}

// Default stage-cache capacities: generous enough that any realistic
// parameter sweep stays fully cached, small enough that a long-lived
// session (a serving daemon) cannot grow without bound.
const (
	DefaultTreeCacheCap = 64
	DefaultRuleCacheCap = 128
)

// CacheLimits bounds a Session's stage caches. Each cache evicts its least
// recently used completed entry once it holds more than the cap; an
// evicted stage is recomputed (bit-for-bit identically) if requested
// again. Zero fields pick the defaults (DefaultTreeCacheCap /
// DefaultRuleCacheCap); negative fields mean unbounded.
type CacheLimits struct {
	MaxTrees int
	MaxRules int
}

func (l CacheLimits) withDefaults() CacheLimits {
	if l.MaxTrees == 0 {
		l.MaxTrees = DefaultTreeCacheCap
	}
	if l.MaxRules == 0 {
		l.MaxRules = DefaultRuleCacheCap
	}
	return l
}

// Session is a prepared dataset for repeated mining: it owns the encoded
// vertical representation and small keyed caches of mined trees and scored
// rule sets, so that N configs differing only in correction method,
// control, alpha, seed or permutation count share one encode + one mine +
// one score (the paper's "mine once, re-evaluate many times" posture,
// §4.2.1, promoted to the whole pipeline).
//
// A Session is safe for concurrent use. Results are byte-identical to
// fresh Run calls with the same (Seed, Config) — the caches only ever
// reuse stages whose outputs a fresh run would recompute bit-for-bit.
// Cached stages are shared across results: treat Result.Tested as
// read-only.
//
// The stage caches are size-bounded (see CacheLimits): a session that
// outlives one batch — a serving daemon sweeping many distinct mining
// parameters — evicts least-recently-used stages instead of growing
// without bound, and recomputes them identically on re-request.
type Session struct {
	data *dataset.Dataset // nil for source-backed (e.g. segment store) sessions
	src  EncodedSource

	encMu  sync.Mutex
	enc    *dataset.Encoded
	encVer uint64 // version enc corresponds to; 0 = not yet encoded

	trees *stageCache[treeKey, treeStage]
	rules *stageCache[ruleKey, ruleStage]

	encodes, mines, scores   atomic.Int64
	treeHits, scoreHits      atomic.Int64
	corrections, holdouts    atomic.Int64
	adaptiveRuns, permsSaved atomic.Int64
}

// EncodedSource supplies a session's vertical encoding. An in-memory
// dataset is the trivial source (version pinned at 1); a segment store
// (internal/colstore) is the out-of-core one, whose version bumps on
// every append. Snapshot must return the encoding and the version it
// corresponds to atomically — the session folds that version into its
// stage-cache keys, so a version bump invalidates every cached stage.
// Returned encodings are treated as immutable.
type EncodedSource interface {
	NumRecords() int
	Schema() *dataset.Schema
	Version() uint64
	Snapshot() (*dataset.Encoded, uint64, error)
}

// memSource adapts an in-memory dataset to EncodedSource.
type memSource struct {
	d *dataset.Dataset
}

func (m memSource) NumRecords() int         { return m.d.NumRecords() }
func (m memSource) Schema() *dataset.Schema { return m.d.Schema }
func (m memSource) Version() uint64         { return 1 }
func (m memSource) Snapshot() (*dataset.Encoded, uint64, error) {
	return dataset.Encode(m.d), 1, nil
}

// NewSession prepares d for repeated mining with the default CacheLimits.
// The encode stage runs lazily on the first Run.
func NewSession(d *dataset.Dataset) *Session {
	return NewSessionLimits(d, CacheLimits{})
}

// NewSessionLimits is NewSession with explicit stage-cache bounds.
func NewSessionLimits(d *dataset.Dataset, lim CacheLimits) *Session {
	s := NewSessionSourceLimits(memSource{d: d}, lim)
	s.data = d
	return s
}

// NewSessionSource prepares an encoded source — typically a segment
// store — for repeated mining. Holdout runs are unavailable (they need
// the raw record matrix); every other method behaves exactly as on an
// in-memory session over the equivalent dataset, byte for byte.
func NewSessionSource(src EncodedSource) *Session {
	return NewSessionSourceLimits(src, CacheLimits{})
}

// NewSessionSourceLimits is NewSessionSource with explicit stage-cache
// bounds.
func NewSessionSourceLimits(src EncodedSource, lim CacheLimits) *Session {
	lim = lim.withDefaults()
	return &Session{
		src:   src,
		trees: newStageCache[treeKey, treeStage](lim.MaxTrees),
		rules: newStageCache[ruleKey, ruleStage](lim.MaxRules),
	}
}

// Data returns the dataset the session was built on, or nil for a
// source-backed session (use NumRecords/Schema instead).
func (s *Session) Data() *dataset.Dataset { return s.data }

// Source returns the session's encoded source (for in-memory sessions,
// an adapter over the dataset).
func (s *Session) Source() EncodedSource { return s.src }

// NumRecords returns the current record count of the session's source.
func (s *Session) NumRecords() int { return s.src.NumRecords() }

// Schema returns the current schema of the session's source.
func (s *Session) Schema() *dataset.Schema { return s.src.Schema() }

// Stats snapshots the stage counters.
func (s *Session) Stats() SessionStats {
	return SessionStats{
		Encodes:       s.encodes.Load(),
		Mines:         s.mines.Load(),
		Scores:        s.scores.Load(),
		TreeHits:      s.treeHits.Load(),
		ScoreHits:     s.scoreHits.Load(),
		Corrections:   s.corrections.Load(),
		AdaptiveRuns:  s.adaptiveRuns.Load(),
		PermsSaved:    s.permsSaved.Load(),
		Holdouts:      s.holdouts.Load(),
		TreeEvictions: s.trees.idx.Evictions(),
		RuleEvictions: s.rules.idx.Evictions(),
		CachedTrees:   int64(s.trees.len()),
		CachedRules:   int64(s.rules.len()),
	}
}

// snapshot returns the session-wide vertical representation and the
// source version it corresponds to, (re)building it when the source has
// moved past the cached version. For in-memory sessions the version is
// constant, so the encode runs once, on first use.
func (s *Session) snapshot() (*dataset.Encoded, uint64, error) {
	s.encMu.Lock()
	defer s.encMu.Unlock()
	if s.enc != nil && s.encVer == s.src.Version() {
		return s.enc, s.encVer, nil
	}
	enc, ver, err := s.src.Snapshot()
	if err != nil {
		return nil, 0, err
	}
	s.enc, s.encVer = enc, ver
	s.encodes.Add(1)
	return enc, ver, nil
}

// treeFor returns the mined tree of cfg against the current source
// version, mining it at most once per distinct (version, treeKey).
func (s *Session) treeFor(ctx context.Context, cfg Config) (treeStage, error) {
	enc, ver, err := s.snapshot()
	if err != nil {
		return treeStage{}, err
	}
	return s.treeForVer(ctx, cfg, enc, ver)
}

// treeForVer is treeFor against an already-taken snapshot, so callers
// composing several stages key them all under one consistent version.
func (s *Session) treeForVer(ctx context.Context, cfg Config, enc *dataset.Encoded, ver uint64) (treeStage, error) {
	key := cfg.treeKey()
	key.version = ver
	v, hit, err := s.trees.getOrCompute(key, func() (treeStage, error) {
		start := time.Now()
		tree, err := mining.MineClosedContext(ctx, enc, mining.Options{
			MinSup:        key.minSup,
			StoreDiffsets: key.storeDiffsets,
			MaxLen:        key.maxLen,
			MaxNodes:      key.maxNodes,
			Workers:       cfg.Workers,
		})
		if err != nil {
			return treeStage{}, err
		}
		s.mines.Add(1)
		return treeStage{tree: tree, enc: enc, dur: time.Since(start)}, nil
	})
	if hit {
		s.treeHits.Add(1)
	}
	return v, err
}

// rulesFor returns the scored rule set of cfg against the current source
// version, scoring it at most once per distinct (version, ruleKey).
func (s *Session) rulesFor(ctx context.Context, cfg Config) (ruleStage, error) {
	enc, ver, err := s.snapshot()
	if err != nil {
		return ruleStage{}, err
	}
	return s.rulesForVer(ctx, cfg, enc, ver)
}

// rulesForVer is rulesFor against an already-taken snapshot.
func (s *Session) rulesForVer(ctx context.Context, cfg Config, enc *dataset.Encoded, ver uint64) (ruleStage, error) {
	key := cfg.ruleKey()
	key.tree.version = ver
	v, hit, err := s.rules.getOrCompute(key, func() (ruleStage, error) {
		ts, err := s.treeForVer(ctx, cfg, enc, ver)
		if err != nil {
			return ruleStage{}, err
		}
		start := time.Now()
		rules, err := mining.GenerateRules(ts.tree, mining.RuleOptions{
			Policy:  cfg.Policy,
			Class:   cfg.FixedClass,
			MinConf: cfg.MinConf,
			Test:    cfg.Test,
		})
		if err != nil {
			return ruleStage{}, err
		}
		if cfg.RedundancyEpsilon > 0 {
			reduction, err := redundancy.Reduce(ts.tree, rules, cfg.RedundancyEpsilon)
			if err != nil {
				return ruleStage{}, err
			}
			rules = reduction.KeptRules
		}
		s.scores.Add(1)
		return ruleStage{tree: ts, rules: rules, dur: time.Since(start)}, nil
	})
	if hit {
		s.scoreHits.Add(1)
	}
	return v, err
}

// Run executes one config against the prepared dataset, reusing any
// already-computed encode/mine/score stage whose parameters match.
func (s *Session) Run(cfg Config) (*Result, error) {
	return s.RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation. The result is byte-identical to
// RunContext(ctx, s.Data(), cfg) — the caches never change outputs, only
// cost.
func (s *Session) RunContext(ctx context.Context, cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults(s.src.NumRecords())
	if err != nil {
		return nil, err
	}
	return s.run(ctx, cfg)
}

// run executes an already-normalized config.
func (s *Session) run(ctx context.Context, cfg Config) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cfg.Method == MethodHoldout {
		if err := s.holdoutErr(cfg); err != nil {
			return nil, err
		}
		results, errs := make([]*Result, 1), make([]error, 1)
		s.runHoldoutGroup(ctx, []Config{cfg}, []int{0}, results, errs)
		return results[0], errs[0]
	}
	rs, err := s.rulesFor(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return s.correctWith(ctx, cfg, rs)
}

// correctWith runs cfg's correction over an already-prepared scored stage.
func (s *Session) correctWith(ctx context.Context, cfg Config, rs ruleStage) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	outcome, pstats, err := runCorrection(ctx, cfg, rs.tree.tree, rs.rules)
	if err != nil {
		return nil, err
	}
	s.corrections.Add(1)
	if pstats != nil {
		s.adaptiveRuns.Add(1)
		s.permsSaved.Add(pstats.PermsSaved)
	}
	return s.assemble(cfg, rs, outcome, pstats, time.Since(start)), nil
}

// assemble builds the user-facing Result of one corrected run. MineTime
// reports the cost of the (possibly shared) mine + score stages behind
// the result; CorrectTime is this run's own correction cost.
//
//armine:deterministic
func (s *Session) assemble(cfg Config, rs ruleStage, outcome *correction.Outcome, pstats *PermStats, correctTime time.Duration) *Result {
	res := &Result{
		Method:      cfg.Method,
		Control:     cfg.Control,
		Alpha:       cfg.Alpha,
		MinSup:      cfg.MinSup,
		NumRecords:  rs.tree.enc.NumRecords,
		NumPatterns: rs.tree.tree.NumPatterns(),
		NumTested:   len(rs.rules),
		Cutoff:      outcome.Cutoff,
		Tested:      rs.rules,
		Outcome:     outcome,
		Perm:        pstats,
		MineTime:    rs.tree.dur + rs.dur,
		CorrectTime: correctTime,
	}
	for _, i := range outcome.Significant {
		res.Significant = append(res.Significant, toRule(&rs.rules[i], rs.tree.enc.Enc))
	}
	sortRules(res.Significant)
	return res
}

// RunBatch executes every config against the prepared dataset,
// deduplicating the encode/mine/score stages across them: each distinct
// stage key is computed exactly once (in first-appearance order), then the
// per-config corrections run concurrently on a worker pool bounded by the
// largest per-config Workers value. results[i] corresponds to cfgs[i] and
// is byte-identical to a fresh Run of that config. The batch fails
// atomically: the first error (lowest config index) is returned and no
// results are.
//
//armine:deterministic
func (s *Session) RunBatch(ctx context.Context, cfgs []Config) ([]*Result, error) {
	n := s.src.NumRecords()
	norm := make([]Config, len(cfgs))
	maxWorkers := 1
	for i := range cfgs {
		c, err := cfgs[i].withDefaults(n)
		if err != nil {
			return nil, fmt.Errorf("core: batch config %d: %w", i, err)
		}
		norm[i] = c
		if c.Workers > maxWorkers {
			maxWorkers = c.Workers
		}
	}

	// Stage pass: compute each distinct scored rule set once, up front and
	// in order, so the heavy mining work runs deterministically before the
	// corrections fan out (and a mining failure surfaces with the first
	// config that needs it). The stages are held locally for the duration
	// of the batch — not re-fetched through the bounded cache — so the
	// once-per-key guarantee stands even when the batch has more distinct
	// keys than the cache retains. One snapshot is taken for the whole
	// batch (lazily, so a holdout-only batch never encodes): every stage
	// keys under the same source version even if an append lands mid-way.
	var (
		enc *dataset.Encoded
		ver uint64
	)
	held := make(map[ruleKey]ruleStage)
	for i := range norm {
		if norm[i].Method == MethodHoldout {
			continue
		}
		if enc == nil {
			var err error
			if enc, ver, err = s.snapshot(); err != nil {
				return nil, fmt.Errorf("core: batch config %d: %w", i, err)
			}
		}
		key := norm[i].ruleKey()
		key.tree.version = ver
		if _, ok := held[key]; ok {
			continue
		}
		rs, err := s.rulesForVer(ctx, norm[i], enc, ver)
		if err != nil {
			return nil, fmt.Errorf("core: batch config %d: %w", i, err)
		}
		held[key] = rs
	}

	// Correction pass: independent per config, bounded by the pool.
	// Permutation configs sharing a null construction (same scored rules,
	// permutation count, seed, optimisation level and budget) are grouped
	// onto one engine: the label matrix and the tree-walk index are built
	// once per group — the paper's FWER/FDR pairing — instead of once per
	// config. Holdout configs sharing a split and its exploratory
	// parameters are grouped the same way onto one explore-and-evaluate
	// stage, which lives only as long as its group.
	results := make([]*Result, len(norm))
	errs := make([]error, len(norm))
	groups := make(map[permKey][]int)
	var groupKeys []permKey // deterministic group launch order
	holdouts := make(map[holdoutKey][]int)
	var holdoutKeys []holdoutKey
	var singles []int
	for i := range norm {
		switch norm[i].Method {
		case MethodPermutation:
			k := norm[i].permKey()
			k.rule.tree.version = ver // match the held-stage keys
			if _, ok := groups[k]; !ok {
				groupKeys = append(groupKeys, k)
			}
			groups[k] = append(groups[k], i)
		case MethodHoldout:
			if errs[i] = s.holdoutErr(norm[i]); errs[i] != nil {
				continue
			}
			k := norm[i].holdoutKey()
			if _, ok := holdouts[k]; !ok {
				holdoutKeys = append(holdoutKeys, k)
			}
			holdouts[k] = append(holdouts[k], i)
		default:
			singles = append(singles, i)
		}
	}

	sem := make(chan struct{}, maxWorkers)
	var wg sync.WaitGroup
	for _, i := range singles {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			key := norm[i].ruleKey()
			key.tree.version = ver
			results[i], errs[i] = s.correctWith(ctx, norm[i], held[key])
		}(i)
	}
	for _, k := range holdoutKeys {
		wg.Add(1)
		go func(idxs []int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			s.runHoldoutGroup(ctx, norm, idxs, results, errs)
		}(holdouts[k])
	}
	for _, k := range groupKeys {
		idxs := groups[k]
		rs := held[k.rule]
		wg.Add(1)
		go func(idxs []int, rs ruleStage) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			s.runPermGroup(ctx, norm, idxs, rs, results, errs)
		}(idxs, rs)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: batch config %d: %w", i, err)
		}
	}
	return results, nil
}

// runPermGroup evaluates several permutation configs on one shared null:
// one engine (or coordinator), one label block and one walk per round
// serve every config in the group — the paper's FWER/FDR pairing takes a
// single walk that keeps both the minima and the pooled histogram.
// Results are byte-identical to per-config runs because the null is fully
// determined by the permKey (tree, rules, budget, Seed, Opt,
// StaticBudget, Test, and for adaptive schedules the control and alpha
// that drive retirement) and its walks are deterministic for every
// worker count.
func (s *Session) runPermGroup(ctx context.Context, norm []Config, idxs []int, rs ruleStage, results []*Result, errs []error) {
	fail := func(err error) {
		for _, i := range idxs {
			errs[i] = err
		}
	}
	if err := ctx.Err(); err != nil {
		fail(err)
		return
	}
	cfg0 := norm[idxs[0]]
	pool := false
	for _, i := range idxs {
		pool = pool || norm[i].Control == ControlFDR
	}
	start := time.Now()
	res, err := cfg0.runNull(ctx, rs.tree.tree, rs.rules, pool)
	if err != nil {
		fail(err)
		return
	}
	engineDur := time.Since(start)
	for _, i := range idxs {
		cfg := norm[i]
		correct := time.Now()
		outcome, pstats := permOutcome(cfg, res, rs.rules)
		s.corrections.Add(1)
		results[i] = s.assemble(cfg, rs, outcome, pstats, engineDur+time.Since(correct))
	}
	if cfg0.Adaptive.Enabled() {
		s.adaptiveRuns.Add(1)
		s.permsSaved.Add(res.PermsSaved)
	}
}

// holdoutErr reports why the session cannot run a holdout config: the
// holdout re-tests with the Fisher test only, and it splits raw records.
func (s *Session) holdoutErr(cfg Config) error {
	if cfg.Test != mining.TestFisher {
		return fmt.Errorf("core: the holdout method supports the Fisher test only")
	}
	if s.data == nil {
		return fmt.Errorf("core: the holdout method needs an in-memory dataset (it splits raw records); store-backed sessions support the other methods")
	}
	return nil
}

// runHoldoutGroup evaluates holdout configs sharing one holdoutKey: one
// split and one explore-and-evaluate stage serve every config in the
// group, and each config takes its own HD_BC or HD_BH decision over the
// shared, read-only candidates. Results are byte-identical to per-config
// runs because the stage is fully determined by the holdoutKey. The stage
// is dropped when the group returns; the session retains none.
func (s *Session) runHoldoutGroup(ctx context.Context, norm []Config, idxs []int, results []*Result, errs []error) {
	fail := func(err error) {
		for _, i := range idxs {
			errs[i] = err
		}
	}
	if err := ctx.Err(); err != nil {
		fail(err)
		return
	}
	start := time.Now()
	stage, err := holdoutCandidates(ctx, s.data, norm[idxs[0]])
	if err != nil {
		fail(err)
		return
	}
	stageDur := time.Since(start)
	s.holdouts.Add(1)
	for _, i := range idxs {
		results[i] = holdoutResult(s.data, norm[i], stage, stageDur)
	}
}

// ShardSpan evaluates one distributed-shard work assignment against cfg's
// prepared stages — the worker half of the DESIGN.md §10 protocol, served
// over HTTP by /v1/datasets/{name}/shard. The config identifies the
// mine/score stages (cached and shared with ordinary runs of the same
// parameters); the permutation engine itself is built per call with
// deferred labels, bound to ctx, so a worker only ever materialises the
// label blocks of the ranges it is assigned. cfg's own ShardWorkers are
// ignored: a shard evaluation is a leaf of the fan-out, never a
// coordinator.
func (s *Session) ShardSpan(ctx context.Context, cfg Config, req shard.Request) (*shard.Reply, error) {
	cfg, err := cfg.withDefaults(s.src.NumRecords())
	if err != nil {
		return nil, err
	}
	if cfg.Method != MethodPermutation {
		return nil, fmt.Errorf("core: ShardSpan needs Method == permutation, got %s", cfg.Method)
	}
	rs, err := s.rulesFor(ctx, cfg)
	if err != nil {
		return nil, err
	}
	engine, err := permute.NewEngine(rs.tree.tree, rs.rules, cfg.permConfig(ctx))
	if err != nil {
		return nil, err
	}
	return shard.NewLocal(engine).Span(ctx, req)
}
