package permute

import (
	"fmt"
	"sort"

	"repro/internal/stats"
)

// This file implements sequential early-stopping ("adaptive") permutation
// testing (DESIGN.md §7): instead of paying for a fixed permutation count
// up front, the engine runs geometrically growing rounds and retires rules
// whose correction fate is already decided — in the spirit of Besag &
// Clifford's sequential Monte Carlo p-values — shrinking the live rule set
// (and the tree walk that counts it) each round. Permutation j's shuffle
// always derives from (Seed, j), so the labels an adaptive run evaluates
// are exactly the prefix a fixed run of MaxPerms would evaluate: an
// adaptive run that retires nothing is byte-identical to the fixed run.
// A fixed run of N permutations is itself a schedule of this driver —
// Adaptive{MinPerms: N, MaxPerms: N, Exceedances: -1}, one round over
// [0, N) in which nothing retires — which is how core runs every
// permutation correction.

// Default Adaptive knobs: the first round is DefaultMinPerms permutations,
// and the soft retirement prong needs at least DefaultExceedances observed
// exceedances before it trusts a rule's empirical rate.
const (
	DefaultMinPerms    = 100
	DefaultExceedances = 20
)

// retireZ is the normal-score width of the Wilson confidence bound behind
// the soft retirement prong. Four standard units keep the per-decision
// error probability around 3e-5, so even ten thousand retirement decisions
// stay overwhelmingly likely to all be correct.
const retireZ = 4.0

// Adaptive configures sequential early-stopping permutation testing.
// A positive MaxPerms enables the mode (see Engine.RunAdaptive); the zero
// value leaves the engine in fixed mode.
type Adaptive struct {
	// MinPerms is the first round's permutation count (default
	// DefaultMinPerms, clamped to MaxPerms). Each following round doubles
	// the total executed so far, so the schedule is MinPerms, 2·MinPerms,
	// 4·MinPerms, ... capped at MaxPerms.
	MinPerms int
	// MaxPerms is the total permutation budget; a positive value enables
	// adaptive mode and takes the place of Config.NumPerms.
	MaxPerms int
	// Exceedances is the minimum exceedance count a rule must accumulate
	// before the soft (confidence-bound) retirement prong may fire: larger
	// values resolve each rule's empirical rate more precisely before
	// acting on it. 0 picks DefaultExceedances; a negative value disables
	// retirement entirely — rounds still run, and the results are
	// byte-identical to a fixed run of MaxPerms permutations.
	Exceedances int
}

// Enabled reports whether the configuration switches the engine into
// adaptive mode.
func (a Adaptive) Enabled() bool { return a.MaxPerms > 0 }

// Normalized fills the defaults in: MinPerms and Exceedances get their
// package defaults, and MinPerms is clamped to MaxPerms. Callers that key
// caches on an Adaptive value should normalize first so equivalent
// configurations collide.
func (a Adaptive) Normalized() Adaptive {
	if !a.Enabled() {
		return a
	}
	if a.MinPerms <= 0 {
		a.MinPerms = DefaultMinPerms
	}
	if a.MinPerms > a.MaxPerms {
		a.MinPerms = a.MaxPerms
	}
	if a.Exceedances == 0 {
		a.Exceedances = DefaultExceedances
	}
	return a
}

// AdaptiveMode selects the correction family the adaptive run is feeding,
// which determines the exceedance statistic driving retirement.
type AdaptiveMode int

const (
	// AdaptFWER drives Westfall–Young min-p FWER control: a rule's
	// exceedance count is the number of permutations whose live-set
	// minimum p-value falls strictly below the rule's original p-value.
	AdaptFWER AdaptiveMode = iota
	// AdaptFDR drives pooled empirical FDR control: a rule's exceedance
	// count is the number of counted (rule, permutation) p-values at or
	// below the rule's original p-value, pooled across all live rules.
	AdaptFDR
)

// String names the mode.
func (m AdaptiveMode) String() string {
	switch m {
	case AdaptFWER:
		return "fwer"
	case AdaptFDR:
		return "fdr"
	default:
		return fmt.Sprintf("AdaptiveMode(%d)", int(m))
	}
}

// AdaptiveResult reports one adaptive permutation run.
type AdaptiveResult struct {
	// Mode records which retirement statistic drove the run; only
	// AdaptFDR results carry a pooled histogram (see PoolLE).
	Mode AdaptiveMode
	// MinP is the per-permutation minimum p-value over the rules live
	// during that permutation's round, one entry per executed permutation.
	// With retirement disabled it equals the fixed engine's MinP.
	MinP []float64
	// PoolLE[r] counts the (rule', permutation) p-values in the pool at or
	// below rule r's original p-value — the numerator of the pooled
	// empirical adjusted p-value of §4.2. The pool holds every counted
	// pair, TotalSamples in all. Only AdaptFDR runs accumulate the pool
	// (nothing on the FWER path reads it, and the per-value histogram
	// update is the dominant bookkeeping cost); under AdaptFWER the slice
	// is all zeros.
	PoolLE []int64
	// MinPLE[r] counts executed permutations whose MinP falls strictly
	// below rule r's original p-value — the Westfall–Young exceedances.
	MinPLE []int64
	// Samples[r] is the number of permutations rule r was counted on
	// (MaxPerms unless it retired early).
	Samples []int64
	// TotalSamples is the pool size: the sum of Samples over all rules.
	TotalSamples int64
	// PermsRun is the number of permutations executed (MaxPerms unless
	// every rule retired first); Rounds the number of rounds.
	PermsRun int
	Rounds   int
	// RulesRetired counts rules that retired before MaxPerms.
	RulesRetired int
	// PermsSaved is the number of (rule, permutation) evaluations avoided
	// relative to a fixed run of MaxPerms: Σ_r (MaxPerms - Samples[r]).
	PermsSaved int64
}

// RunAdaptive executes the adaptive permutation schedule and returns the
// accumulated exceedance statistics. mode selects the retirement
// statistic; alpha is the error level the downstream correction will run
// at (the stopping rule needs it — a retirement decision is a claim about
// the final decision at that level).
//
// Two retirement prongs fire after each round, both gated on
// Adaptive.Exceedances >= 0:
//
//   - sealed: the rule's final decision can no longer change. Under
//     AdaptFWER a rule with MinPLE >= floor(alpha·MaxPerms) is provably
//     non-significant in the full fixed run (MinPLE only grows, and the
//     live-set MinP is an upper bound on the all-rules MinP, so the bound
//     transfers). Under AdaptFDR a rule whose pooled count already
//     satisfies PoolLE > alpha·NumRules·MaxPerms has a final pooled
//     adjusted p-value above alpha no matter what the remaining
//     permutations contribute, and BH at level alpha can never select it.
//   - resolved: the rule accumulated at least Adaptive.Exceedances
//     exceedances and the Wilson lower confidence bound (retireZ normal
//     units) of its exceedance rate clears alpha — its empirical p-value
//     is precisely enough above the level that keeping it alive cannot
//     change the outcome except with negligible probability.
//
// Retired rules stop contributing to the following rounds' counting (their
// dead subtrees drop out of the walk entirely), which is where the cost
// saving comes from. The exactness ledger (derived in DESIGN.md §7):
// retirement-disabled runs are byte-identical to fixed runs; retired rules
// are never significant in the fixed run; under AdaptFWER the live-set
// min-p null can only raise the cut-off, so the fixed run's significant
// set is always contained in the adaptive one and extra admissions are
// confined to the (fixed cutoff, adaptive cutoff] drift window — empty
// whenever the p-value spectrum has a gap at the cut-off; under AdaptFDR
// the pooled estimator divides by the pool's true sample count, which
// keeps it unbiased under retirement.
//
// RunAdaptive recomputes from scratch on every call; run it once and share
// the result.
//
//armine:ctxok -- cancellation arrives via Config.Ctx, wired to the stop flag by runSpan
func (e *Engine) RunAdaptive(mode AdaptiveMode, alpha float64) (*AdaptiveResult, error) {
	if !e.cfg.Adaptive.Enabled() {
		return nil, fmt.Errorf("permute: RunAdaptive needs Config.Adaptive.MaxPerms > 0")
	}
	return DriveAdaptive(e.origPs(), e.cfg.Adaptive, mode, alpha, e.ShardSpan)
}

// RoundRunner evaluates the permutations [lo, hi) against the rules still
// live and returns the round's mergeable statistics: per-permutation
// live-set minima and — when withPool is set — the pooled histogram over
// the sorted original p-values. Engine.ShardSpan is the single-node
// runner; the distributed coordinator's Span (internal/shard) fans each
// range out to its workers and merges their replies into the same shape.
type RoundRunner func(lo, hi int, live []bool, withPool bool) (*ShardStats, error)

// DriveAdaptive executes RunAdaptive's round schedule over an abstract
// round runner. ps holds the rules' original p-values by rule index; ad
// must have MaxPerms > 0. Factoring the driver out of the engine is what
// makes distributed adaptive runs byte-identical by construction
// (DESIGN.md §10): retirement depends only on the aggregated exceedance
// histograms, so the driver makes every retirement decision centrally and
// broadcasts the resulting frontier to the next round through the
// runner's live mask. Any runner that returns exact span statistics —
// one engine, or any merge of per-shard replies — yields the exact result
// a single-node run would.
func DriveAdaptive(ps []float64, ad Adaptive, mode AdaptiveMode, alpha float64, run RoundRunner) (*AdaptiveResult, error) {
	ad = ad.Normalized()
	if !ad.Enabled() {
		return nil, fmt.Errorf("permute: DriveAdaptive needs Adaptive.MaxPerms > 0")
	}
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("permute: adaptive alpha %g outside (0, 1]", alpha)
	}
	nR := len(ps)
	maxPerms := ad.MaxPerms

	// The exceedance tallies are kept as histograms over the sorted
	// original p-values (the CountLE technique): each permutation p-value
	// lands in one bucket by binary search, and a prefix sum recovers
	// every rule's count, so a round costs O(values · log rules + rules)
	// bookkeeping regardless of how many rules a value affects.
	rank := NewRank(ps)
	order, sorted := rank.Order, rank.Sorted

	live := make([]bool, nR)
	for i := range live {
		live[i] = true
	}
	numLive := nR
	poolHist := make([]int64, nR+1) // pooled p-values, bucketed over sorted positions
	minHist := make([]int64, nR+1)  // per-permutation MinP, bucketed over sorted positions
	samples := make([]int64, nR)    // permutations each rule was counted on
	var totalSamples int64
	minP := make([]float64, maxPerms)
	for i := range minP {
		minP[i] = 1
	}

	// kmax is the bound ⌊alpha·MaxPerms⌋ PermFWERCutoff applies to the
	// final min-p distribution: its cut-off is at most the kmax-th smallest
	// MinP, so a rule with kmax strictly smaller MinP values below its
	// p-value can never sit at or below the cut-off.
	kmax := int64(alpha * float64(maxPerms))

	res := &AdaptiveResult{Mode: mode}
	permsRun := 0
	roundLen := ad.MinPerms
	// A rule-free run still executes its rounds, so its minima are the
	// all-ones null a fixed run reports rather than an empty one.
	for permsRun < maxPerms && (numLive > 0 || nR == 0) {
		hi := permsRun + roundLen
		if hi > maxPerms {
			hi = maxPerms
		}
		// Only the FDR path consumes the pool; skipping the histogram
		// spares the FWER hot loop a binary search per (rule, permutation)
		// p-value.
		st, err := run(permsRun, hi, live, mode == AdaptFDR)
		if err != nil {
			return nil, err
		}
		copy(minP[permsRun:hi], st.MinP)
		if mode == AdaptFDR {
			for i, c := range st.PoolHist {
				poolHist[i] += c
			}
		}
		res.Rounds++
		for ri := range live {
			if live[ri] {
				samples[ri] += int64(hi - permsRun)
			}
		}
		totalSamples += int64(numLive) * int64(hi-permsRun)
		for j := permsRun; j < hi; j++ {
			// First sorted position whose p-value lies strictly above this
			// permutation's MinP: the permutation is an exceedance for
			// every rule from that position on.
			idx := sort.Search(nR, func(i int) bool { return sorted[i] > minP[j] })
			minHist[idx]++
		}
		permsRun = hi

		if ad.Exceedances >= 0 && permsRun < maxPerms {
			retireLive(mode, alpha, kmax, int64(ad.Exceedances), maxPerms, permsRun, totalSamples,
				order, poolHist, minHist, live, &numLive, &res.RulesRetired)
		}
		roundLen = permsRun // double the executed total each round
	}

	res.MinP = minP[:permsRun]
	res.PoolLE = make([]int64, nR)
	res.MinPLE = make([]int64, nR)
	res.Samples = samples
	res.TotalSamples = totalSamples
	res.PermsRun = permsRun
	var pc, mc int64
	for i := 0; i < nR; i++ {
		pc += poolHist[i]
		mc += minHist[i]
		res.PoolLE[order[i]] = pc
		res.MinPLE[order[i]] = mc
	}
	for _, n := range samples {
		res.PermsSaved += int64(maxPerms) - n
	}
	return res, nil
}

// retireLive applies the two retirement prongs to every live rule and
// reports whether any rule retired. The histograms are cumulative over all
// executed permutations; walking the sorted order keeps the per-rule
// counts as running prefix sums.
func retireLive(mode AdaptiveMode, alpha float64, kmax, exceedTarget int64, maxPerms, permsRun int, totalSamples int64,
	order []int, poolHist, minHist []int64, live []bool, numLive, retired *int) bool {
	nR := len(order)
	changed := false
	var pc, mc int64
	for i := 0; i < nR; i++ {
		pc += poolHist[i]
		mc += minHist[i]
		ri := order[i]
		if !live[ri] {
			continue
		}
		drop := false
		switch mode {
		case AdaptFWER:
			switch {
			case mc >= kmax:
				// Sealed: at least kmax permutations already have a MinP
				// strictly below this rule's p-value, so the final cut-off
				// (at most the kmax-th smallest MinP) lies below it for certain.
				// (kmax < 1 means the budget cannot certify the level and
				// nothing can ever be significant.)
				drop = true
			case exceedTarget > 0 && mc >= exceedTarget:
				if lo, _ := stats.WilsonBounds(mc, int64(permsRun), retireZ); lo > alpha {
					drop = true
				}
			}
		case AdaptFDR:
			switch {
			case float64(pc) > alpha*float64(nR)*float64(maxPerms):
				// Sealed: the pooled count only grows and the final pool
				// holds at most nR·MaxPerms values, so the final adjusted
				// p-value exceeds alpha no matter what follows.
				drop = true
			case exceedTarget > 0 && pc >= exceedTarget:
				if lo, _ := stats.WilsonBounds(pc, totalSamples, retireZ); lo > alpha {
					drop = true
				}
			}
		}
		if drop {
			live[ri] = false
			*numLive--
			*retired++
			changed = true
		}
	}
	return changed
}

// compactLive rebuilds the walk indexes over the still-live rules: a node
// whose subtree holds no live rule drops out of the children adjacency, so
// the per-round DFS — and the packed tid-word views it consults — only
// touches the live part of the tree. Nodes without live rules of their own
// but with live descendants stay as Diffset bridges.
func (e *Engine) compactLive(live []bool) (rulesByNode, children *adjacency) {
	n := len(e.tree.Nodes)
	alive := make([]bool, n)
	for ri := range e.rules {
		if live[ri] {
			alive[e.rules[ri].Node.Index] = true
		}
	}
	rulesByNode = newAdjacency(n, func(add func(row int, val int32)) {
		for ri := range e.rules {
			if live[ri] {
				add(e.rules[ri].Node.Index, int32(ri))
			}
		}
	})
	// Nodes are in DFS pre-order (children after parents), so a reverse
	// sweep propagates liveness up to the root.
	for i := n - 1; i >= 0; i-- {
		if alive[i] && e.tree.Nodes[i].Parent != nil {
			alive[e.tree.Nodes[i].Parent.Index] = true
		}
	}
	children = newAdjacency(n, func(add func(row int, val int32)) {
		for _, nd := range e.tree.Nodes {
			if nd.Parent != nil && alive[nd.Index] {
				add(nd.Parent.Index, int32(nd.Index))
			}
		}
	})
	return rulesByNode, children
}
