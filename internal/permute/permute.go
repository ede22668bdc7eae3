// Package permute implements the permutation-based multiple testing
// machinery of §4.2: class labels are randomly shuffled N times, and the
// p-values of all mined rules are recomputed on every permutation to
// approximate the null distribution. The paper's three cost reductions are
// all implemented and individually switchable (Fig 4):
//
//   - mine once (§4.2.1): patterns and tid-lists never change across
//     permutations, only the class labels do, so the set-enumeration tree is
//     mined a single time and supports are recounted per permutation;
//   - Diffsets (§4.2.2): a node that keeps more than half of its parent's
//     records stores only the difference, and its per-permutation class
//     counts are derived from the parent's by subtracting the difference;
//   - p-value buffering (§4.2.3): per-coverage buffers of all attainable
//     Fisher p-values, served from a byte-budgeted static buffer plus a
//     one-slot dynamic buffer, shared across rules and permutations.
//
// On top of the paper's ladder the engine counts with a blocked,
// allocation-free word-parallel kernel (DESIGN.md §8): permuted labels are
// packed into a striped bitmap matrix that interleaves the same bitmap
// word of eight consecutive permutations, and each node's stored tid-list
// — materialised once, at engine construction, in sparse word form — is
// AND+popcounted against eight permutations per pass over its words. All
// per-node scratch (count tiles, child-count buffers) lives in per-worker
// arenas with checkpoint/rewind, so the steady-state walk never touches
// the allocator. This kernel is the engine's one counting path, at every
// optimisation level, worker count and class count; the package tests
// check it against an element-by-element label walk that only they can
// select, and the two produce identical integer counts.
//
// The package comment directive below puts every function in detlint's
// deterministic scope (DESIGN.md §9): byte-identical output is the
// package's contract, so ordering hazards are machine-checked.
//
//armine:deterministic
package permute

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/intset"
	"repro/internal/mining"
	"repro/internal/stats"
)

// OptLevel selects which of the paper's optimisations are active,
// mirroring the four configurations of Fig 4. Mine-once is always on (the
// alternative — re-mining per permutation — is not a configuration the
// paper measures; its Fig 4 baseline "no optimization" already mines once).
type OptLevel int

const (
	// OptNone: full tid-lists, Fisher p-values computed from scratch at
	// every (rule, permutation) evaluation.
	OptNone OptLevel = iota
	// OptDynamicBuffer: full tid-lists; p-values served from the one-slot
	// dynamic buffer.
	OptDynamicBuffer
	// OptDiffsets: Diffsets storage plus the dynamic buffer.
	OptDiffsets
	// OptStaticBuffer: Diffsets plus a static buffer (StaticBudget bytes)
	// in front of the dynamic buffer.
	OptStaticBuffer
)

// String returns the Fig 4 series label of the optimisation level.
func (o OptLevel) String() string {
	switch o {
	case OptNone:
		return "no optimization"
	case OptDynamicBuffer:
		return "dynamic buf"
	case OptDiffsets:
		return "Diffsets+dynamic buf"
	case OptStaticBuffer:
		return "16M static buf+Diffsets+dynamic buf"
	default:
		return fmt.Sprintf("OptLevel(%d)", int(o))
	}
}

// WantDiffsets reports whether trees consumed under this level should be
// mined with Diffset storage.
func (o OptLevel) WantDiffsets() bool { return o >= OptDiffsets }

// Config configures a permutation run.
type Config struct {
	// NumPerms is N, the number of label permutations (the paper uses
	// 1000).
	NumPerms int
	// Seed drives the label shuffles; equal seeds give identical
	// permutations. Each permutation j derives its own RNG from
	// (Seed, j), so the shuffles are generated concurrently and are
	// byte-identical for every worker count.
	Seed uint64
	// Ctx, when non-nil, cancels a run early: workers poll the context's
	// cancellation and the engine's Err method reports the context error
	// after an aborted run. A nil Ctx means no cancellation.
	Ctx context.Context
	// Opt selects the optimisation level (default OptStaticBuffer).
	Opt OptLevel
	// StaticBudget is the static buffer size in bytes under
	// OptStaticBuffer (default 16 MB, the paper's value).
	StaticBudget int
	// Workers caps the number of goroutines (default GOMAXPROCS). Each
	// worker processes a disjoint block of permutations with its own
	// buffer pool, so results are deterministic regardless of Workers.
	Workers int
	// Test selects the statistical test; it must match the test used to
	// compute the rules' original p-values. TestFisher uses the buffer
	// machinery selected by Opt; TestChiSquare is O(1) per evaluation and
	// ignores Opt's buffering; TestMidP recomputes per evaluation
	// (expensive, extension only).
	Test mining.TestKind
	// DeferLabels skips the full-range label materialisation at
	// construction: label blocks are built lazily, per ShardSpan range (the
	// full range [0, NumPerms) builds the engine's one memoised block on
	// first use). Shard workers and core set it so an engine that only
	// ever evaluates a slice of the permutation range, or an adaptive
	// round at a time, never pays for the whole matrix up front. Results
	// are unaffected — every block derives from (Seed, absolute index)
	// regardless of when it is built.
	DeferLabels bool
	// Adaptive, when Adaptive.MaxPerms > 0, switches the engine into
	// sequential early-stopping mode (DESIGN.md §7): permutations run in
	// rounds via RunAdaptive, and NumPerms is ignored in favour of
	// Adaptive.MaxPerms. MinP and CountLE still work on an adaptive
	// engine, evaluating the full MaxPerms range.
	Adaptive Adaptive

	// elementWalk replaces the blocked kernel with the element-by-element
	// label walk (elementAccumulate). Only the package tests set it: the
	// walk is their reference for the kernel's counts and the scalar side
	// of the BenchmarkPermute* pairs.
	elementWalk bool
}

func (c Config) withDefaults() Config {
	if c.StaticBudget == 0 {
		c.StaticBudget = 16 << 20
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// stripeWidth is the blocked kernel's stripe width: the number of
// consecutive permutations whose label bitmaps interleave word by word,
// and hence the number of permutations counted per pass over a node's tid
// words. Eight int32 lane accumulators fit comfortably in registers.
const stripeWidth = 8

// labelBlock holds the materialised label shuffles of the permutation
// range [lo, hi). A span over the full range uses the engine's one
// memoised block; adaptive rounds and shards build one block per span, so
// memory is bounded by the span length rather than the whole budget.
// Permutation j's shuffle always derives from (Seed, j) regardless of
// which block carries it, so block boundaries never change results.
type labelBlock struct {
	lo, hi int
	// permLabels is the transposed label matrix of the block:
	// permLabels[r*(hi-lo) + (j-lo)] is record r's class under
	// permutation j. It serves the test-only element walk and is only
	// built for it (the blocked kernel never reads labels element-wise).
	permLabels []int8
	// stripes is the striped packed label matrix serving the blocked
	// word-parallel kernel. Permutations are grouped into tiles of
	// stripeWidth consecutive indices; for tile t, class c in
	// [1, numClasses) and bitmap word i in [0, words), the stripeWidth
	// words starting at
	//
	//	((t*(numClasses-1) + (c-1))*words + i) * stripeWidth
	//
	// hold word i of the class-c bitmaps of the tile's permutations, one
	// per stripe lane — so the kernel reads lane-adjacent words for eight
	// permutations at once. Class 0 is derived (counts across classes sum
	// to the tid-list length), keeping the matrix one class slimmer: with
	// a single class it has no rows at all. nil under the element walk.
	stripes []uint64
}

// adjacency is a compact CSR mapping from tree-node index to an int32 list
// (rule indices, or child node indices). Two flat slabs replace the
// per-node slices the engine used to allocate.
type adjacency struct {
	off  []int32 // len(nodes)+1 prefix offsets into list
	list []int32
}

// row returns node i's list.
func (a *adjacency) row(i int) []int32 { return a.list[a.off[i]:a.off[i+1]] }

// newAdjacency builds a CSR adjacency with n rows from the (row, value)
// pairs produced by emit. emit is called twice — once to size the rows,
// once to fill them — and must produce the same pairs, in the same order,
// both times.
func newAdjacency(n int, emit func(add func(row int, val int32))) *adjacency {
	off := make([]int32, n+1)
	emit(func(row int, _ int32) { off[row+1]++ })
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	list := make([]int32, off[n])
	next := append([]int32(nil), off[:n]...)
	emit(func(row int, val int32) {
		list[next[row]] = val
		next[row]++
	})
	return &adjacency{off: off, list: list}
}

// nodeWords is the engine-wide sparse word form of every node's stored
// list, materialised once at construction (killing the per-visit tid-list
// repacking of earlier revisions): node i's occupied bitmap words are
// idx[off[i]:off[i+1]] with their 64-bit contents in the matching word
// range. Memory is bounded by the total stored-id count (at most one
// entry per id), and the flat slabs cost a constant number of
// allocations. Immutable after construction, shared by all workers.
type nodeWords struct {
	off  []int32
	idx  []int32
	word []uint64
}

// Engine evaluates rule p-values across permutations of the class labels.
type Engine struct {
	tree  *mining.Tree
	rules []mining.Rule
	cfg   Config

	n          int
	numClasses int
	// lab is the full-range label block covering [0, NumPerms); nil until
	// built (adaptive and deferred engines build it on the first
	// full-range span, and per-span blocks otherwise).
	lab     *labelBlock
	labOnce sync.Once
	// words is the bitmap width in uint64s: ceil(n / 64).
	words int
	// nw is the per-node sparse word view feeding the blocked kernel;
	// nil under the element walk.
	nw *nodeWords
	// rulesByNode maps tree node index -> indices (into rules) of the
	// rules whose LHS is that node; children is the subtree adjacency.
	rulesByNode *adjacency
	children    *adjacency
	hypergeoms  []*stats.Hypergeom

	// stFree caches per-worker scratch states across runs and adaptive
	// rounds, so repeated walks reuse arenas, buffer pools and batch
	// slices instead of rebuilding them.
	stMu   sync.Mutex
	stFree []*workerState

	// rankOnce memoises the ascending rank of the rules' original p-values
	// (and the raw p-value slice), shared by every pooled ShardSpan and
	// RunAdaptive.
	rankOnce sync.Once
	rankVal  Rank
	origVal  []float64

	// compactMu guards the memoised retirement-compacted walk indexes:
	// every ShardSpan of one retirement frontier — all workers of a round,
	// and all following rounds without new retirements — reuses a single
	// compactLive result, keyed by the live mask's content.
	compactMu       sync.Mutex
	compactKey      []bool
	compactRules    *adjacency
	compactChildren *adjacency

	stop   atomic.Bool           // set when cfg.Ctx is cancelled mid-run
	runErr atomic.Pointer[error] // sticky: first cancellation error observed
}

// setErr records the first cancellation error (later calls are no-ops).
func (e *Engine) setErr(err error) {
	if err != nil {
		e.runErr.CompareAndSwap(nil, &err)
	}
}

// permStreamBase offsets the per-permutation PCG stream: permutation j is
// shuffled by rand.NewPCG(seed, permStreamBase+j). Deriving an independent
// RNG per permutation index (rather than one sequential stream) lets any
// worker generate any permutation and keeps the label matrix byte-identical
// for every worker count.
const permStreamBase = 0x9e3779b97f4a7c15

// shufflePerm fills dst with labels shuffled under permutation j's RNG.
func shufflePerm(dst, labels []int32, seed uint64, j int) {
	src := rand.NewPCG(0, 0)
	shufflePermInto(dst, labels, src, rand.New(src), seed, j)
}

// shufflePermInto is shufflePerm with the RNG supplied by the caller so a
// worker generating many permutations reuses one PCG and one Rand:
// re-seeding the PCG to (seed, permStreamBase+j) reproduces the exact
// stream a freshly constructed rand.New(rand.NewPCG(...)) would produce —
// rand.Rand is a stateless wrapper around its source — so the shuffles
// stay byte-identical to shufflePerm's.
func shufflePermInto(dst, labels []int32, src *rand.PCG, rng *rand.Rand, seed uint64, j int) {
	src.Seed(seed, permStreamBase+uint64(j))
	copy(dst, labels)
	rng.Shuffle(len(dst), func(a, b int) { dst[a], dst[b] = dst[b], dst[a] })
}

// NewEngine prepares a permutation run over the given mined tree and rule
// set. The rules must have been generated from the same tree. The packed
// label permutation matrix is materialised here unless the engine is
// adaptive (Config.Adaptive.MaxPerms > 0) or DeferLabels is set; those
// build their label blocks per ShardSpan.
func NewEngine(tree *mining.Tree, rules []mining.Rule, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if cfg.Adaptive.Enabled() {
		cfg.Adaptive = cfg.Adaptive.Normalized()
		cfg.NumPerms = cfg.Adaptive.MaxPerms
	}
	if cfg.NumPerms < 1 {
		return nil, fmt.Errorf("permute: NumPerms must be >= 1, got %d", cfg.NumPerms)
	}
	enc := tree.Enc
	if enc.NumClasses > 127 {
		return nil, fmt.Errorf("permute: %d classes exceed the int8 label matrix", enc.NumClasses)
	}
	e := &Engine{
		tree:       tree,
		rules:      rules,
		cfg:        cfg,
		n:          enc.NumRecords,
		numClasses: enc.NumClasses,
		words:      intset.Words(enc.NumRecords),
		hypergeoms: mining.NewHypergeoms(enc),
	}

	if !cfg.Adaptive.Enabled() && !cfg.DeferLabels {
		e.lab = e.buildLabels(0, cfg.NumPerms)
	}
	if cfg.Ctx != nil {
		if err := cfg.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	if !cfg.elementWalk {
		e.nw = buildNodeWords(tree, cfg.Workers)
	}

	nNodes := len(tree.Nodes)
	e.rulesByNode = newAdjacency(nNodes, func(add func(row int, val int32)) {
		for ri := range rules {
			add(rules[ri].Node.Index, int32(ri))
		}
	})
	e.children = newAdjacency(nNodes, func(add func(row int, val int32)) {
		for _, node := range tree.Nodes {
			if node.Parent != nil {
				add(node.Parent.Index, int32(node.Index))
			}
		}
	})
	return e, nil
}

// buildNodeWords materialises every node's stored list in sparse word
// form, parallelising over node ranges with at most workers goroutines.
func buildNodeWords(tree *mining.Tree, workers int) *nodeWords {
	nodes := tree.Nodes
	nw := &nodeWords{off: make([]int32, len(nodes)+1)}
	if workers > len(nodes) {
		workers = len(nodes)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	forRanges := func(fn func(i int)) {
		for w := 0; w < workers; w++ {
			lo := w * len(nodes) / workers
			hi := (w + 1) * len(nodes) / workers
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					fn(i)
				}
			}(lo, hi)
		}
		wg.Wait()
	}
	forRanges(func(i int) {
		nw.off[i+1] = int32(intset.NonzeroWords(nodes[i].StoredIds()))
	})
	for i := 0; i < len(nodes); i++ {
		nw.off[i+1] += nw.off[i]
	}
	total := int(nw.off[len(nodes)])
	nw.idx = make([]int32, total)
	nw.word = make([]uint64, total)
	forRanges(func(i int) {
		o, p := nw.off[i], nw.off[i+1]
		intset.FillNonzeroWords(nw.idx[o:p], nw.word[o:p], nodes[i].StoredIds())
	})
	return nw
}

// tileBlocks splits the permutations [lo, hi) into at most workers
// contiguous blocks whose boundaries fall on multiples of stripeWidth
// (relative to lo), so no stripe tile straddles two workers — the label
// generators would race on a shared tile's words, and the blocked kernel
// assumes whole tiles. Only the final block may end mid-tile. The split
// never affects results: every permutation derives from its absolute
// index.
func tileBlocks(lo, hi, workers int) [][2]int {
	const S = stripeWidth
	tiles := (hi - lo + S - 1) / S
	if workers > tiles {
		workers = tiles
	}
	if workers < 1 {
		workers = 1
	}
	blocks := make([][2]int, 0, workers)
	per, extra := tiles/workers, tiles%workers
	t0 := 0
	for w := 0; w < workers; w++ {
		t1 := t0 + per
		if w < extra {
			t1++
		}
		bhi := lo + t1*S
		if bhi > hi {
			bhi = hi
		}
		blocks = append(blocks, [2]int{lo + t0*S, bhi})
		t0 = t1
	}
	return blocks
}

// buildLabels materialises the label block of permutations [lo, hi).
// Workers fill disjoint tile-aligned permutation ranges concurrently;
// per-permutation RNG derivation from (Seed, j) with the ABSOLUTE
// permutation index j makes the block independent of both the worker
// count and the block boundaries. Only the striped bitmap matrix is
// built (the blocked kernel never reads labels element-wise); the
// test-only element walk gets the transposed element matrix instead. A
// cancelled Ctx aborts the fill; callers must check the context before
// consuming the (then partial) block.
func (e *Engine) buildLabels(lo, hi int) *labelBlock {
	cfg := e.cfg
	count := hi - lo
	const S = stripeWidth
	lab := &labelBlock{lo: lo, hi: hi}
	wordPath := !cfg.elementWalk
	if wordPath {
		tiles := (count + S - 1) / S
		lab.stripes = make([]uint64, tiles*(e.numClasses-1)*e.words*S)
	} else {
		lab.permLabels = make([]int8, e.n*count)
	}
	labels := e.tree.Enc.Labels
	tileStride := (e.numClasses - 1) * e.words * S
	var wg sync.WaitGroup
	for _, b := range tileBlocks(lo, hi, cfg.Workers) {
		wg.Add(1)
		go func(wlo, whi int) {
			defer wg.Done()
			src := rand.NewPCG(0, 0)
			rng := rand.New(src)
			shuffled := make([]int32, e.n)
			for j := wlo; j < whi; j++ {
				if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
					return
				}
				shufflePermInto(shuffled, labels, src, rng, cfg.Seed, j)
				rel := j - lo
				if wordPath {
					base := (rel/S)*tileStride + rel%S
					if e.numClasses == 2 {
						// Binary labels scatter branchlessly: c is 0 or
						// 1, and a zero label contributes no bit.
						for r, c := range shuffled {
							lab.stripes[base+(r>>6)*S] |= uint64(c) << (uint(r) & 63)
						}
					} else {
						for r, c := range shuffled {
							if c > 0 {
								lab.stripes[base+((int(c)-1)*e.words+r>>6)*S] |= 1 << (uint(r) & 63)
							}
						}
					}
				} else {
					for r := 0; r < e.n; r++ {
						lab.permLabels[r*count+rel] = int8(shuffled[r])
					}
				}
			}
		}(b[0], b[1])
	}
	wg.Wait()
	return lab
}

// fixedLab returns the full-range label block, building it on first use.
// Engines that neither defer labels nor run adaptively built it at
// construction.
func (e *Engine) fixedLab() *labelBlock {
	e.labOnce.Do(func() {
		if e.lab == nil {
			e.lab = e.buildLabels(0, e.cfg.NumPerms)
		}
	})
	return e.lab
}

// ctxErr reports the configured context's error, if any.
func (e *Engine) ctxErr() error {
	if e.cfg.Ctx != nil {
		return e.cfg.Ctx.Err()
	}
	return nil
}

// NumPerms returns the configured permutation count (Adaptive.MaxPerms in
// adaptive mode).
func (e *Engine) NumPerms() int { return e.cfg.NumPerms }

// Err reports the first cancellation error observed by any run; results
// returned by MinP or CountLE after a non-nil Err are placeholders and
// must be discarded.
func (e *Engine) Err() error {
	if ep := e.runErr.Load(); ep != nil {
		return *ep
	}
	return nil
}

// runSpan walks the tree once per worker block over the permutations of
// lab, computing per-permutation class counts bottom-up and handing
// per-rule p-value slices to one shardVisitor per worker. rulesByNode and
// children select the (possibly retirement-compacted) rule set and subtree
// walk. Every worker writes its minima straight into st.MinP (blocks are
// disjoint permutation ranges); with st.PoolHist non-nil, each worker
// buckets into its own histogram over sorted, summed into st.PoolHist in
// worker order after all blocks finish.
func (e *Engine) runSpan(lab *labelBlock, rulesByNode, children *adjacency, st *ShardStats, sorted []float64) {
	// Split the span's permutations into one tile-aligned contiguous block
	// per worker.
	blocks := tileBlocks(lab.lo, lab.hi, e.cfg.Workers)

	// Translate context cancellation into the cheap stop flag the DFS
	// polls at every node.
	if e.cfg.Ctx != nil {
		watchDone := make(chan struct{})
		defer close(watchDone)
		go func() {
			//armine:orderok -- cancellation watcher; either arm only raises the sticky stop flag
			select {
			case <-e.cfg.Ctx.Done():
				e.setErr(e.cfg.Ctx.Err())
				e.stop.Store(true)
			case <-watchDone:
			}
		}()
	}

	visitors := make([]shardVisitor, len(blocks))
	var wg sync.WaitGroup
	for w := range blocks {
		v := &visitors[w]
		v.lo, v.min = lab.lo, st.MinP
		if st.PoolHist != nil {
			v.sorted, v.poolHist = sorted, make([]int64, len(st.PoolHist))
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e.runBlock(lab, rulesByNode, children, blocks[w][0], blocks[w][1], &visitors[w])
		}(w)
	}
	wg.Wait()
	if e.cfg.Ctx != nil {
		e.setErr(e.cfg.Ctx.Err())
	}
	for _, v := range visitors {
		for i, c := range v.poolHist {
			st.PoolHist[i] += c
		}
	}
}

// workerState is the per-worker scratch one walk needs: buffer pools, the
// counts arena, the p-value batch and the OptNone Fisher ladder scratch.
// States are cached on the engine (acquireState/releaseState) and reused
// across runs and adaptive rounds, so steady-state walking allocates
// nothing — pools keep their built buffers, arenas their chunks.
type workerState struct {
	pools  []*stats.BufferPool // nil unless Opt buffers Fisher p-values
	arena  *intset.Arena[int32]
	ps     []float64 // p-value batch: one entry per permutation in block
	fisher stats.PScratch
}

// acquireState pops a cached worker state or builds a fresh one.
func (e *Engine) acquireState() *workerState {
	e.stMu.Lock()
	if n := len(e.stFree); n > 0 {
		st := e.stFree[n-1]
		e.stFree = e.stFree[:n-1]
		e.stMu.Unlock()
		return st
	}
	e.stMu.Unlock()
	st := &workerState{arena: intset.NewArena[int32](1 << 16)}
	if e.cfg.Test == mining.TestFisher {
		switch e.cfg.Opt {
		case OptNone:
			// Direct Fisher computation via the ladder scratch, no buffers.
		case OptDynamicBuffer, OptDiffsets:
			st.pools = e.newPools(0) // static disabled: dynamic slot only
		case OptStaticBuffer:
			st.pools = e.newPools(e.cfg.StaticBudget)
		}
	}
	return st
}

func (e *Engine) releaseState(st *workerState) {
	e.stMu.Lock()
	e.stFree = append(e.stFree, st)
	e.stMu.Unlock()
}

// runBlock processes permutations [perm0, perm1) in one goroutine.
func (e *Engine) runBlock(lab *labelBlock, rulesByNode, children *adjacency, perm0, perm1 int, v *shardVisitor) {
	st := e.acquireState()
	defer e.releaseState(st)
	blockLen := perm1 - perm0
	if cap(st.ps) < blockLen {
		st.ps = make([]float64, blockLen)
	}
	w := &walker{
		e:           e,
		lab:         lab,
		rulesByNode: rulesByNode,
		children:    children,
		perm0:       perm0,
		blockLen:    blockLen,
		tile0:       (perm0 - lab.lo) / stripeWidth,
		v:           v,
		st:          st,
	}
	mark := st.arena.Checkpoint()
	root := e.tree.Root
	w.node(root, w.countsFromNode(root))
	st.arena.Rewind(mark)
}

// newPools builds one buffer pool per class; budget 0 disables the static
// buffer (dynamic-slot-only behaviour).
func (e *Engine) newPools(budget int) []*stats.BufferPool {
	pools := make([]*stats.BufferPool, e.numClasses)
	for c := range pools {
		maxSup := e.tree.MinSup - 1 // static disabled
		if budget > 0 {
			maxSup = stats.MaxSupForBudget(e.hypergeoms[c], e.tree.MinSup, budget/e.numClasses)
		}
		pools[c] = stats.NewBufferPool(e.hypergeoms[c], e.tree.MinSup, maxSup)
	}
	return pools
}

// walker carries per-worker DFS state.
type walker struct {
	e           *Engine
	lab         *labelBlock // label block covering [perm0, perm0+blockLen)
	rulesByNode *adjacency  // rule indices per node (live subset in adaptive rounds)
	children    *adjacency  // subtree walk (compacted in adaptive rounds)
	perm0       int
	blockLen    int
	tile0       int // stripe-tile index of perm0 within lab
	v           *shardVisitor
	st          *workerState
}

// countsFromNode returns the node's class-count matrix for the block: for
// every class c and permutation j, how many of the node's records carry
// class c under permutation j, as counts[c*blockLen+j]. Only called for
// nodes that store full tid-lists (the root always does); Diffset children
// derive their counts from the parent's in node. The buffer comes from
// the worker arena — the caller's checkpoint scopes its lifetime.
//
//armine:noalloc
func (w *walker) countsFromNode(nd *mining.Node) []int32 {
	if w.e.cfg.elementWalk {
		counts := w.st.arena.AllocZero(w.e.numClasses * w.blockLen)
		w.elementAccumulate(counts, nd.Tids, +1)
		return counts
	}
	counts := w.st.arena.Alloc(w.e.numClasses * w.blockLen)
	w.blockedCounts(counts, nil, nd)
	return counts
}

// blockedCounts fills dst with nd's class-count matrix using the blocked
// striped kernel: one pass per stripe tile over the node's sparse tid
// words counts stripeWidth permutations for all classes, accumulating
// into a register tile and writing each class row back in one go. With base nil
// the node's stored list is counted directly (dst[c][j] = k_c); with base
// non-nil the stored list is the node's Diffset and dst[c][j] =
// base[c][j] - k_c — §4.2.2's subtraction fused into the write-back, so
// no separate parent copy is needed. Class 0 is derived from the
// remainder: the counts of one list across classes sum to its length.
//
//armine:noalloc
func (w *walker) blockedCounts(dst, base []int32, nd *mining.Node) {
	e := w.e
	nw := e.nw
	o, p := nw.off[nd.Index], nw.off[nd.Index+1]
	idx, word := nw.idx[o:p], nw.word[o:p]
	ln := int32(len(nd.StoredIds()))
	C, W, bl := e.numClasses, e.words, w.blockLen
	const S = stripeWidth
	tileStride := (C - 1) * W * S
	j0start := 0
	if C == 2 {
		// Binary classes — the paper's setting — run the fused kernel:
		// count, Diffset subtraction, and both class rows in one pass
		// over all full tiles. The generic loop below picks up a
		// partial tail tile.
		if fullTiles := bl / S; fullTiles > 0 {
			sb := w.lab.stripes[w.tile0*tileStride:]
			var base0, base1 []int32
			if base != nil {
				base0, base1 = base[:bl], base[bl:2*bl]
			}
			intset.CountStripesBinary(dst[:bl], dst[bl:2*bl], base0, base1,
				ln, idx, word, sb, fullTiles, tileStride)
			j0start = fullTiles * S
		}
	}
	for j0 := j0start; j0 < bl; j0 += S {
		m := bl - j0
		if m > S {
			m = S
		}
		tbase := (w.tile0 + j0/S) * tileStride
		var rest [S]int32
		for s := 0; s < m; s++ {
			rest[s] = ln
		}
		for c := 1; c < C; c++ {
			var k [S]int32
			intset.IntersectCountStripes8(&k, idx, word, w.lab.stripes[tbase+(c-1)*W*S:tbase+c*W*S])
			row := dst[c*bl+j0 : c*bl+j0+m]
			if base != nil {
				brow := base[c*bl+j0 : c*bl+j0+m]
				for s := 0; s < m; s++ {
					row[s] = brow[s] - k[s]
					rest[s] -= k[s]
				}
			} else {
				for s := 0; s < m; s++ {
					row[s] = k[s]
					rest[s] -= k[s]
				}
			}
		}
		row := dst[j0 : j0+m]
		if base != nil {
			brow := base[j0 : j0+m]
			for s := 0; s < m; s++ {
				row[s] = brow[s] - rest[s]
			}
		} else {
			for s := 0; s < m; s++ {
				row[s] = rest[s]
			}
		}
	}
}

// elementAccumulate adds (sign = +1) or subtracts (sign = -1) the
// per-class, per-permutation counts of ids into counts by walking the
// transposed element label matrix — the test-only reference for the
// blocked kernel (Config.elementWalk), identical to it in output.
//
//armine:noalloc
func (w *walker) elementAccumulate(counts []int32, ids []uint32, sign int32) {
	bl := w.blockLen
	lab := w.lab
	stride := lab.hi - lab.lo
	rel := w.perm0 - lab.lo
	if sign >= 0 {
		for _, r := range ids {
			row := lab.permLabels[int(r)*stride+rel : int(r)*stride+rel+bl]
			for j, c := range row {
				counts[int(c)*bl+j]++
			}
		}
	} else {
		for _, r := range ids {
			row := lab.permLabels[int(r)*stride+rel : int(r)*stride+rel+bl]
			for j, c := range row {
				counts[int(c)*bl+j]--
			}
		}
	}
}

// node emits the p-values of every rule anchored at nd and recurses into
// its children. counts is nd's class-count matrix for the block; ownership
// stays with the caller (arena checkpoints scope each child's buffer to
// its subtree walk).
//
//armine:noalloc
func (w *walker) node(nd *mining.Node, counts []int32) {
	if w.e.stop.Load() {
		return
	}
	bl := w.blockLen
	ps := w.st.ps[:bl]
	for _, ri := range w.rulesByNode.row(nd.Index) {
		rule := &w.e.rules[ri]
		class := int(rule.Class)
		cvg := rule.Coverage
		ks := counts[class*bl : (class+1)*bl]
		switch {
		case w.st.pools != nil:
			w.st.pools[class].Buffer(cvg).PValuesInto(ps, ks)
		case w.e.cfg.Test == mining.TestChiSquare:
			h := w.e.hypergeoms[class]
			for j, k := range ks {
				ps[j] = stats.ChiSquarePValue(stats.ChiSquare2x2(int(k), cvg, h.N(), h.NC()), 1)
			}
		case w.e.cfg.Test == mining.TestMidP:
			h := w.e.hypergeoms[class]
			for j, k := range ks {
				ps[j] = h.FisherMidP(int(k), cvg)
			}
		default:
			// OptNone: the paper's "no optimization" configuration rebuilds
			// the Fisher ladder at every (rule, permutation) evaluation; the
			// scratch form keeps that cost model while cutting the
			// per-evaluation allocations to zero.
			h := w.e.hypergeoms[class]
			for j, k := range ks {
				ps[j] = h.FisherTwoTailedScratch(&w.st.fisher, int(k), cvg)
			}
		}
		w.v.visit(w.perm0, ps)
	}

	for _, ci := range w.children.row(nd.Index) {
		child := w.e.tree.Nodes[ci]
		mark := w.st.arena.Checkpoint()
		var childCounts []int32
		switch {
		case !child.HasDiff():
			childCounts = w.countsFromNode(child)
		case !w.e.cfg.elementWalk:
			// counts(child) = counts(parent) - counts(diff), per class and
			// permutation (§4.2.2 applied to the permutation matrix), fused
			// into the blocked kernel's write-back.
			childCounts = w.st.arena.Alloc(w.e.numClasses * bl)
			w.blockedCounts(childCounts, counts, child)
		default:
			childCounts = w.st.arena.Alloc(w.e.numClasses * bl)
			copy(childCounts, counts)
			w.elementAccumulate(childCounts, child.Diff, -1)
		}
		w.node(child, childCounts)
		w.st.arena.Rewind(mark)
	}
}

// MinP returns, for each permutation, the minimum p-value over all rules —
// the Westfall–Young null distribution used to control FWER (§4.2). It is
// one ShardSpan over the full range [0, NumPerms); after a cancelled run
// it returns all ones and Err reports why.
func (e *Engine) MinP() []float64 {
	st, err := e.ShardSpan(0, e.cfg.NumPerms, nil, false)
	if err != nil {
		out := make([]float64, e.cfg.NumPerms)
		for i := range out {
			out[i] = 1
		}
		return out
	}
	return st.MinP
}

// CountLE returns, for each rule, how many of the N·Nt permutation
// p-values are <= the rule's original p-value — the numerator of the
// empirical adjusted p-value used to control FDR (§4.2):
//
//	p_adj(R) = |{p' in permutation p-values : p' <= p(R)}| / (N·Nt)
//
// It is one pooled ShardSpan over the full range [0, NumPerms); after a
// cancelled run it returns all zeros and Err reports why.
func (e *Engine) CountLE() []int64 {
	st, err := e.ShardSpan(0, e.cfg.NumPerms, nil, true)
	if err != nil {
		return make([]int64, len(e.rules))
	}
	return e.rank().CountsFromHist(st.PoolHist)
}
