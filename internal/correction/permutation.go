package correction

import (
	"sort"

	"repro/internal/mining"
	"repro/internal/permute"
)

// PermFWERCutoff derives the FWER-controlling cut-off from the per-
// permutation minimum p-values (§4.2): the largest min-p value v such
// that at most k = ⌊alpha·N⌋ permutations have a min-p at or below v. Any
// rule at or below this threshold would have been the most extreme rule
// on at most an alpha fraction of null datasets. When the
// k-th smallest min-p ties the (k+1)-th, the cut-off steps down past the
// whole tie: taking the k-th value itself would let more than k
// permutations reach it. Returns a negative cut-off (nothing significant)
// when no value qualifies — ⌊alpha·N⌋ < 1, too few permutations to
// certify the level, or a tie that reaches the smallest min-p.
func PermFWERCutoff(minP []float64, alpha float64) float64 {
	k := int(alpha * float64(len(minP)))
	if k < 1 {
		return -1
	}
	sorted := make([]float64, len(minP))
	copy(sorted, minP)
	sort.Float64s(sorted)
	if k >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	// sorted[i] qualifies iff it is strictly below sorted[k]: then every
	// value at or below it sits among the first k.
	i := k - 1
	for i >= 0 && sorted[i] == sorted[k] {
		i--
	}
	if i < 0 {
		return -1
	}
	return sorted[i]
}

// NullSource supplies the permutation null statistics the fixed-run
// correction procedures consume; *permute.Engine is the source. Both
// statistics come out of the engine's one walk (Engine.ShardSpan), the
// same walk every permute.DriveAdaptive round runs, so PermFWER/PermFDR
// and AdaptivePermFWER/AdaptivePermFDR over a one-round schedule agree
// bit for bit.
type NullSource interface {
	// MinP returns the per-permutation minimum p-values.
	MinP() []float64
	// CountLE returns, per rule, the pooled count of permutation p-values
	// at or below its original p-value.
	CountLE() []int64
	// NumPerms returns the evaluated permutation count.
	NumPerms() int
}

// PermFWER runs the full permutation FWER procedure: build the min-p null
// distribution with the engine, derive the cut-off, and mark the rules at
// or below it.
func PermFWER(engine NullSource, rules []mining.Rule, alpha float64) *Outcome {
	return fwerOutcome(engine.MinP(), rules, alpha)
}

// PermAdjustedP converts pooled ≤-counts into the empirical adjusted
// p-values of §4.2: p_adj(R) = |{p' : p' <= p(R)}| / (N·Nt), where the
// pool holds all Nt rules' p-values on all N permutations.
func PermAdjustedP(countLE []int64, numPerms, numTests int) []float64 {
	return adjustedP(countLE, float64(numPerms)*float64(numTests))
}

// PermFDR runs the full permutation FDR procedure (§4.2): each rule's
// p-value is replaced by its pooled empirical adjusted p-value, then
// Benjamini–Hochberg is applied to the adjusted values at level alpha.
func PermFDR(engine NullSource, rules []mining.Rule, alpha float64) *Outcome {
	return fdrOutcome(PermAdjustedP(engine.CountLE(), engine.NumPerms(), len(rules)), rules, alpha)
}

// AdaptivePermFWER derives the Westfall–Young FWER outcome of an adaptive
// permutation run (DESIGN.md §7): the cut-off comes from the executed
// permutations' live-set min-p distribution via the same PermFWERCutoff
// PermFWER uses. When the run retired nothing, the outcome is
// byte-identical to PermFWER over a fixed run of the same budget.
func AdaptivePermFWER(res *permute.AdaptiveResult, rules []mining.Rule, alpha float64) *Outcome {
	return fwerOutcome(res.MinP, rules, alpha)
}

// AdaptivePermFDR derives the pooled empirical FDR outcome of an adaptive
// run: each rule's adjusted p-value is its pooled exceedance count divided
// by the pool's actual size (the sum of per-rule sample counts — equal to
// N·Nt when nothing retired, making the outcome byte-identical to
// PermFDR), then Benjamini–Hochberg runs on the adjusted values. The run
// must have executed in AdaptFDR mode — only FDR runs accumulate the
// pool, and deriving an FDR outcome from an all-zero pool would silently
// declare everything significant.
func AdaptivePermFDR(res *permute.AdaptiveResult, rules []mining.Rule, alpha float64) *Outcome {
	if res.Mode != permute.AdaptFDR {
		panic("correction: AdaptivePermFDR needs a RunAdaptive(AdaptFDR, ...) result")
	}
	return fdrOutcome(adjustedP(res.PoolLE, float64(res.TotalSamples)), rules, alpha)
}

// fwerOutcome marks the rules at or below the min-p null's FWER cut-off —
// the one body behind PermFWER and AdaptivePermFWER.
func fwerOutcome(minP []float64, rules []mining.Rule, alpha float64) *Outcome {
	cutoff := PermFWERCutoff(minP, alpha)
	o := &Outcome{Method: "Perm_FWER", Alpha: alpha, NumTests: len(rules), Cutoff: cutoff}
	if cutoff < 0 {
		return o
	}
	for i := range rules {
		if rules[i].P <= cutoff {
			o.Significant = append(o.Significant, i)
		}
	}
	return o
}

// adjustedP divides pooled ≤-counts by the pool size.
func adjustedP(counts []int64, pool float64) []float64 {
	out := make([]float64, len(counts))
	for i, c := range counts {
		out[i] = float64(c) / pool
	}
	return out
}

// fdrOutcome runs Benjamini–Hochberg on pooled adjusted p-values — the one
// body behind PermFDR and AdaptivePermFDR.
func fdrOutcome(adj []float64, rules []mining.Rule, alpha float64) *Outcome {
	o := BenjaminiHochberg(adj, len(rules), alpha)
	o.Method = "Perm_FDR"
	o.NumTests = len(rules)
	return o
}
