package mining

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/intset"
)

// Options configures the closed miner.
type Options struct {
	// MinSup is the minimum support (absolute record count) a pattern
	// needs. Must be >= 1.
	MinSup int
	// StoreDiffsets enables the §4.2.2 optimisation: a node whose support
	// exceeds half of its parent's stores the difference of the two
	// tid-lists instead of its own full list. Disabled it reproduces the
	// "no Diffsets" configurations of Fig 4.
	StoreDiffsets bool
	// MaxLen caps pattern length (0 = unlimited). The paper's synthetic
	// generator embeds rules up to length 16; real mining runs unlimited.
	MaxLen int
	// MaxNodes aborts mining after this many closed patterns (0 =
	// unlimited); a defensive bound for adversarial datasets. The budget is
	// shared atomically across workers, so the bound trips under
	// concurrency exactly when it would trip sequentially.
	MaxNodes int
	// Workers is the number of goroutines mining first-level enumeration
	// subtrees concurrently (0 = GOMAXPROCS). The merge is deterministic:
	// the produced tree — node order, indices, Diffsets — is byte-identical
	// for every worker count.
	Workers int
}

// errStopped aborts a worker's DFS when another worker has already failed
// (budget exhausted) or the context was cancelled.
var errStopped = fmt.Errorf("mining: stopped")

// MineClosed enumerates every closed frequent pattern of enc and returns
// the set-enumeration tree. The algorithm is LCM-style prefix-preserving
// closure extension: items are visited in ascending-support order, each
// candidate extension's record set is intersected with the parent's, the
// closure of the resulting record set is computed, and a branch is pruned
// when its closure contains an item ordered before the extension item that
// is not already in the parent closure (such a pattern was or will be
// produced in another branch). As in LCM ver. 3, a node's record set is a
// word bitmap while its support is dense and a sorted tid-list below that
// (see view).
func MineClosed(enc *dataset.Encoded, opts Options) (*Tree, error) {
	return MineClosedContext(context.Background(), enc, opts)
}

// MineClosedContext is MineClosed with cancellation. The first-level
// closure extensions of the root are independent subtrees; they are mined
// concurrently by opts.Workers goroutines and merged back in enumeration
// order, so the result is identical to the sequential run.
func MineClosedContext(ctx context.Context, enc *dataset.Encoded, opts Options) (*Tree, error) {
	if opts.MinSup < 1 {
		return nil, fmt.Errorf("mining: MinSup must be >= 1, got %d", opts.MinSup)
	}
	n := enc.NumRecords
	numItems := enc.Enc.NumItems()

	// Frequent items in ascending support order. Working in "order index"
	// space makes the prefix-preservation check a simple integer compare.
	type orderedItem struct {
		item dataset.Item
		sup  int
	}
	freq := make([]orderedItem, 0, numItems)
	for i := 0; i < numItems; i++ {
		if s := len(enc.Tids[i]); s >= opts.MinSup {
			freq = append(freq, orderedItem{dataset.Item(i), s})
		}
	}
	sort.Slice(freq, func(a, b int) bool {
		if freq[a].sup != freq[b].sup {
			return freq[a].sup < freq[b].sup
		}
		return freq[a].item < freq[b].item
	})

	m := &miner{
		enc:  enc,
		opts: opts,
		freq: make([]dataset.Item, len(freq)),
		sups: make([]int, len(freq)),
		reps: make([]*intset.Rep, len(freq)),
	}
	for oi, f := range freq {
		m.freq[oi] = f.item
		m.sups[oi] = f.sup
		m.reps[oi] = intset.NewRep(n, enc.Tids[f.item])
	}

	// Root: the closure of the empty pattern is every item present in all
	// records.
	rootTids := make([]uint32, n)
	for r := 0; r < n; r++ {
		rootTids[r] = uint32(r)
	}
	rootInSet := make([]bool, len(m.freq))
	rootClosure := make([]int, 0)
	for oi := range m.freq {
		if m.reps[oi].Len() == n {
			rootClosure = append(rootClosure, oi)
			rootInSet[oi] = true
		}
	}
	root := &Node{
		Closure:     m.itemsOf(rootClosure),
		Support:     n,
		Tids:        rootTids,
		ClassCounts: CountClasses(rootTids, enc.Labels, enc.NumClasses),
		Index:       0,
		Depth:       0,
	}
	tree := &Tree{Enc: enc, Root: root, Nodes: []*Node{root}, MinSup: opts.MinSup}
	m.nodeCount.Store(1) // the root occupies one budget slot

	// A dense root opens the bitmap side of the DFS: its words are every
	// record, and the per-class bitmaps turn class counting into popcounts.
	rootView := view{tids: rootTids, sup: n}
	if m.denseRoot = intset.IsDense(n, n); m.denseRoot {
		nw := intset.Words(n)
		rootView = view{words: make([]uint64, nw), sup: n}
		intset.SetWords(rootView.words, rootTids)
		if enc.NumClasses > 1 {
			m.classWords = make([][]uint64, enc.NumClasses-1)
			for c := range m.classWords {
				m.classWords[c] = make([]uint64, nw)
			}
			for r, c := range enc.Labels {
				if int(c) < len(m.classWords) {
					m.classWords[c][r>>6] |= 1 << (r & 63)
				}
			}
		}
	}

	// Every first-level candidate spawns an independent subtree task.
	tasks := make([]int, 0, len(m.freq))
	for cand := range m.freq {
		if !rootInSet[cand] {
			tasks = append(tasks, cand)
		}
	}
	if len(tasks) == 0 {
		return tree, nil
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}

	// A watcher translates context cancellation into the cheap stop flag
	// the DFS polls.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		//armine:orderok -- cancellation watcher; either arm only raises the sticky stop flag
		select {
		case <-ctx.Done():
			m.stop.Store(true)
		case <-watchDone:
		}
	}()

	results := make([][]*Node, len(tasks))
	var next atomic.Int64
	var firstErr atomic.Pointer[error]
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := &workerState{m: m, inSet: make([]bool, len(m.freq))}
			copy(ws.inSet, rootInSet)
			for {
				ti := int(next.Add(1)) - 1
				if ti >= len(tasks) || m.stop.Load() {
					return
				}
				ws.nodes = ws.nodes[:0]
				err := ws.mineRootChild(root, rootView, rootClosure, tasks[ti])
				if err != nil {
					if err != errStopped {
						firstErr.CompareAndSwap(nil, &err)
						m.stop.Store(true)
					}
					return
				}
				sub := make([]*Node, len(ws.nodes))
				copy(sub, ws.nodes)
				results[ti] = sub
			}
		}()
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if ep := firstErr.Load(); ep != nil {
		return nil, *ep
	}

	// Deterministic merge: subtrees concatenate in first-level enumeration
	// order (each already in DFS pre-order), then indices are assigned —
	// reproducing the sequential append order exactly.
	for _, sub := range results {
		tree.Nodes = append(tree.Nodes, sub...)
	}
	for i, nd := range tree.Nodes {
		nd.Index = i
	}
	return tree, nil
}

// miner holds the shared, read-only mining state plus the two cross-worker
// atomics (node budget, stop flag).
type miner struct {
	enc  *dataset.Encoded
	opts Options

	freq []dataset.Item // order index -> original item id
	sups []int          // order index -> item support (non-decreasing)
	reps []*intset.Rep  // order index -> adaptive tid-set (dense items carry bitsets; Ids is the tid-list)
	// classWords[c] is the bitmap of records labelled c, for every class
	// but the last (whose count is the support minus the others). Built
	// only when the root is dense.
	classWords [][]uint64
	denseRoot  bool // the DFS starts on bitmaps, so its levels need word scratch

	nodeCount atomic.Int64 // nodes created across all workers (incl. root)
	stop      atomic.Bool  // set on budget exhaustion or cancellation
}

// itemsOf converts order indices to sorted original item ids.
func (m *miner) itemsOf(orderIdx []int) []dataset.Item {
	out := make([]dataset.Item, len(orderIdx))
	for i, oi := range orderIdx {
		out[i] = m.freq[oi]
	}
	slices.Sort(out)
	return out
}

// chargeNode claims one slot of the shared node budget, failing when
// MaxNodes is exceeded. Because the budget counts every node any worker
// creates, the bound trips if and only if the sequential enumeration would
// exceed it.
func (m *miner) chargeNode() error {
	if m.opts.MaxNodes > 0 && m.nodeCount.Add(1) > int64(m.opts.MaxNodes) {
		m.stop.Store(true)
		return fmt.Errorf("mining: node budget %d exhausted (lower MinSup or raise MaxNodes)", m.opts.MaxNodes)
	}
	return nil
}

// classCounts returns the per-class record counts of a candidate's record
// set: popcounts against the class bitmaps when it is a bitmap, a label
// scan of its tid-list otherwise.
func (m *miner) classCounts(v view) []int32 {
	if v.words == nil {
		return CountClasses(v.tids, m.enc.Labels, m.enc.NumClasses)
	}
	counts := make([]int32, m.enc.NumClasses)
	rest := v.sup
	for c, cw := range m.classWords {
		k := intset.IntersectCountWords(v.words, cw)
		counts[c] = int32(k)
		rest -= k
	}
	if len(counts) > 0 {
		counts[len(counts)-1] = int32(rest)
	}
	return counts
}

// view is one node's record set as the DFS holds it: a word bitmap over
// the records when the node is dense (intset.IsDense, the cut-off the item
// Reps use), its sorted tid-list otherwise. Support only falls going down
// the tree, so the dense nodes form the top of every subtree and a sparse
// node never has a dense child. A view lives in per-depth scratch (the
// root's is its own Tids or a bitmap of every record) and is read-only to
// the subtree below it.
type view struct {
	words []uint64 // non-nil iff the node is dense
	tids  []uint32 // the tid-list of a sparse node
	sup   int
}

// level is one DFS depth's scratch: the candidate being tried there is
// counted and closed in it before any node is built.
type level struct {
	words   []uint64 // candidate bitmap, when its parent is dense
	tids    []uint32 // candidate tid-list, when it is sparse
	closure []int    // candidate closure, as order indices
}

// workerState carries one worker's mutable DFS state. inSet mirrors the
// sequential miner's invariant: inSet[oi] is true exactly for oi in the
// closure currently on the DFS stack.
type workerState struct {
	m      *miner
	inSet  []bool
	nodes  []*Node  // this task's subtree in DFS pre-order
	levels []*level // per-depth scratch, reused across the worker's tasks
}

// level returns depth d's scratch, growing the stack on first use.
func (ws *workerState) level(d int) *level {
	for len(ws.levels) <= d {
		lv := &level{}
		if ws.m.denseRoot {
			lv.words = make([]uint64, intset.Words(ws.m.enc.NumRecords))
		}
		ws.levels = append(ws.levels, lv)
	}
	return ws.levels[d]
}

// mineRootChild runs the body of the root-level enumeration loop for a
// single first-level candidate: extend the root closure with cand, apply
// the prefix-preservation check, and if the pattern survives, emit its
// node and expand the subtree below it.
func (ws *workerState) mineRootChild(root *Node, rv view, rootClosure []int, cand int) error {
	m := ws.m
	if m.opts.MaxLen > 0 && len(rootClosure) >= m.opts.MaxLen {
		return nil
	}
	child, cv, newClosure, err := ws.extend(root, rv, rootClosure, cand)
	if err != nil || child == nil {
		return err
	}
	for _, oi := range newClosure[len(rootClosure):] {
		ws.inSet[oi] = true
	}
	err = ws.expand(child, cv, newClosure, cand)
	for _, oi := range newClosure[len(rootClosure):] {
		ws.inSet[oi] = false
	}
	return err
}

// extend tries to grow node's closure with candidate cand. The candidate
// is counted in depth scratch first — an AND+popcount of the parent's and
// the item's bitmaps when both are dense, membership probes of the item's
// tid-list into the parent's bitmap, or a merge of two tid-lists — and
// closed there with early-exit subset tests, so an infrequent or pruned
// candidate allocates nothing. It returns the new child node (nil when the
// extension is infrequent, too long, or pruned by prefix preservation)
// along with the child's view and closure, both in depth scratch. Only a
// kept child materialises its Tids or Diffset, at exact size. The child is
// appended to ws.nodes but its inSet bits are NOT set; the caller owns the
// set/unset pairing around recursion.
func (ws *workerState) extend(node *Node, pv view, closure []int, cand int) (*Node, view, []int, error) {
	m := ws.m
	n := m.enc.NumRecords
	lv := ws.level(node.Depth + 1)
	rep := m.reps[cand]
	var cv view
	var cw []uint64 // the candidate's bitmap, when one was built
	switch iw := rep.Words(); {
	case pv.words != nil && iw != nil:
		cw = lv.words
		cv.sup = intset.AndInto(cw, pv.words, iw)
		if cv.sup < m.opts.MinSup {
			return nil, view{}, nil, nil
		}
		if intset.IsDense(n, cv.sup) {
			cv.words = cw
		} else {
			lv.tids = intset.AppendWords(lv.tids[:0], cw)
			cv.tids = lv.tids
		}
	case pv.words != nil:
		// A sparse item under a dense parent. Candidates after a dense
		// core item are dense, so in practice the parent is the root.
		lv.tids = intset.AppendMembers(lv.tids[:0], pv.words, rep.Ids)
		cv.tids, cv.sup = lv.tids, len(lv.tids)
	default:
		lv.tids = rep.IntersectInto(lv.tids[:0], pv.tids)
		cv.tids, cv.sup = lv.tids, len(lv.tids)
	}
	if cv.sup < m.opts.MinSup {
		return nil, view{}, nil, nil
	}

	// Closure of the extended record set: every item (not already in
	// the closure) whose tid-list covers it. A superset needs at least as
	// many records, and items are in ascending support order, so only the
	// suffix from the first item with support >= cv.sup can qualify; a
	// dense candidate's suffix items are dense too and carry bitmaps.
	// Prefix-preservation: if any such item is ordered before cand, this
	// closed pattern belongs to (and was generated by) an earlier branch.
	newClosure := append(lv.closure[:0], closure...)
	newClosure = append(newClosure, cand)
	lv.closure = newClosure
	for oi, _ := slices.BinarySearch(m.sups, cv.sup); oi < len(m.freq); oi++ {
		if oi == cand || ws.inSet[oi] {
			continue
		}
		var covers bool
		if cv.words != nil {
			covers = intset.SubsetWords(cv.words, m.reps[oi].Words())
		} else {
			covers = m.reps[oi].ContainsAll(cv.tids)
		}
		if covers {
			if oi < cand {
				return nil, view{}, nil, nil
			}
			newClosure = append(newClosure, oi)
		}
	}
	lv.closure = newClosure
	if m.opts.MaxLen > 0 && len(newClosure) > m.opts.MaxLen {
		return nil, view{}, nil, nil
	}

	child := &Node{
		Closure:     m.itemsOf(newClosure),
		Support:     cv.sup,
		Parent:      node,
		ClassCounts: m.classCounts(cv),
		Depth:       node.Depth + 1,
	}
	switch {
	case !m.opts.StoreDiffsets || 2*cv.sup <= pv.sup:
		tids := make([]uint32, 0, cv.sup)
		if cv.words != nil {
			child.Tids = intset.AppendWords(tids, cv.words)
		} else {
			child.Tids = append(tids, cv.tids...)
		}
	case pv.words == nil:
		child.Diff = intset.DiffInto(make([]uint32, 0, pv.sup-cv.sup), pv.tids, cv.tids)
	case cw != nil:
		child.Diff = intset.AppendAndNot(make([]uint32, 0, pv.sup-cv.sup), pv.words, cw)
	default:
		child.Diff = intset.AppendExcept(make([]uint32, 0, pv.sup-cv.sup), pv.words, cv.tids)
	}
	ws.nodes = append(ws.nodes, child)
	if err := m.chargeNode(); err != nil {
		return nil, view{}, nil, err
	}
	return child, cv, newClosure, nil
}

// expand grows the set-enumeration tree below node, whose closure (as
// order indices) is closure and whose record set is v. core is the order
// index of the extension item that produced node.
//
// Invariant: ws.inSet[oi] is true exactly for oi ∈ closure.
func (ws *workerState) expand(node *Node, v view, closure []int, core int) error {
	m := ws.m
	if m.opts.MaxLen > 0 && len(closure) >= m.opts.MaxLen {
		return nil
	}
	for cand := core + 1; cand < len(m.freq); cand++ {
		if ws.inSet[cand] {
			continue
		}
		if m.stop.Load() {
			return errStopped
		}
		child, cv, newClosure, err := ws.extend(node, v, closure, cand)
		if err != nil {
			return err
		}
		if child == nil {
			continue
		}
		for _, oi := range newClosure[len(closure):] {
			ws.inSet[oi] = true
		}
		err = ws.expand(child, cv, newClosure, cand)
		for _, oi := range newClosure[len(closure):] {
			ws.inSet[oi] = false
		}
		if err != nil {
			return err
		}
	}
	return nil
}
