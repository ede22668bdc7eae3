package correction

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/dataset"
	"repro/internal/intset"
	"repro/internal/mining"
	"repro/internal/stats"
)

// HoldoutConfig configures Webb-style holdout evaluation (§4.3).
type HoldoutConfig struct {
	// MinSupExplore is the minimum support used when mining the
	// exploratory dataset. The paper sets it to half of the whole-dataset
	// min_sup in all experiments (§5.1).
	MinSupExplore int
	// Alpha is the error level; it doubles as the candidate filter on the
	// exploratory dataset (rules with exploratory p <= Alpha advance).
	Alpha float64
	// UseFDR selects Benjamini–Hochberg on the evaluation dataset (HD_BH);
	// false selects Bonferroni (HD_BC).
	UseFDR bool
	// Policy/Class control rule generation (see mining.RuleOptions).
	Policy mining.RuleClassPolicy
	Class  int32
	// MaxLen caps mined pattern length (0 = unlimited).
	MaxLen int
	// Workers bounds the exploratory miner's goroutines (0 = GOMAXPROCS).
	Workers int
	// Ctx, when non-nil, cancels the run (nil = no cancellation).
	Ctx context.Context
}

// HoldoutRule is one candidate rule with its statistics on both halves.
type HoldoutRule struct {
	Attrs []int   // LHS attribute indices
	Vals  []int32 // LHS value index per attribute
	Class int32   // RHS class

	ExploreCvg, ExploreSupp int
	ExploreP                float64
	EvalCvg, EvalSupp       int
	EvalConf                float64
	EvalP                   float64
}

// HoldoutResult reports a holdout run.
type HoldoutResult struct {
	// NumExploreTested is the number of rules tested on the exploratory
	// dataset (before the p <= alpha filter).
	NumExploreTested int
	// Candidates are the rules that passed the exploratory filter, in
	// exploratory p-value order of discovery; Outcome indexes into it.
	Candidates []HoldoutRule
	// Outcome is the Bonferroni/BH decision over the candidates'
	// evaluation p-values, with NumTests = len(Candidates) (nil from
	// HoldoutCandidates; see HoldoutOutcome).
	Outcome *Outcome
}

// Holdout mines the exploratory dataset, filters rules with exploratory
// p-value <= Alpha, recomputes their p-values on the evaluation dataset,
// and corrects those with Bonferroni (FWER) or Benjamini–Hochberg (FDR)
// over the candidate count only — typically orders of magnitude smaller
// than the number of rules tested on the whole dataset (§4.3).
//
// The two datasets must share the same schema (they are the two halves of
// one dataset).
func Holdout(explore, eval *dataset.Dataset, cfg HoldoutConfig) (*HoldoutResult, error) {
	res, err := HoldoutCandidates(explore, eval, cfg)
	if err != nil {
		return nil, err
	}
	res.Outcome = HoldoutOutcome(res.Candidates, cfg.Alpha, cfg.UseFDR)
	return res, nil
}

// HoldoutCandidates is the part of Holdout that the error measure does not
// touch: mine and score the exploratory dataset, keep the rules with
// exploratory p-value <= Alpha, and re-test them on the evaluation
// dataset. cfg.UseFDR is ignored and the result's Outcome is nil, so the
// HD_BC and HD_BH decisions on one split can share one call through
// HoldoutOutcome.
func HoldoutCandidates(explore, eval *dataset.Dataset, cfg HoldoutConfig) (*HoldoutResult, error) {
	if explore.Schema != eval.Schema {
		return nil, fmt.Errorf("correction: holdout halves must share a schema")
	}
	if cfg.MinSupExplore < 1 {
		return nil, fmt.Errorf("correction: MinSupExplore must be >= 1, got %d", cfg.MinSupExplore)
	}
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	enc := dataset.Encode(explore)
	tree, err := mining.MineClosedContext(ctx, enc, mining.Options{
		MinSup:        cfg.MinSupExplore,
		StoreDiffsets: true,
		MaxLen:        cfg.MaxLen,
		Workers:       cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	rules, err := mining.GenerateRules(tree, mining.RuleOptions{Policy: cfg.Policy, Class: cfg.Class})
	if err != nil {
		return nil, err
	}

	res := &HoldoutResult{NumExploreTested: len(rules)}
	ev := newEvalHalf(eval)
	for i := range rules {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r := &rules[i]
		if r.P > cfg.Alpha {
			continue
		}
		attrs, vals := patternOf(enc.Enc, r.Node.Closure)
		hr := HoldoutRule{
			Attrs:       attrs,
			Vals:        vals,
			Class:       r.Class,
			ExploreCvg:  r.Coverage,
			ExploreSupp: r.Support,
			ExploreP:    r.P,
			EvalP:       1,
		}
		hr.EvalCvg, hr.EvalSupp = ev.counts(r.Node.Closure, r.Class)
		if hr.EvalCvg > 0 {
			hr.EvalConf = float64(hr.EvalSupp) / float64(hr.EvalCvg)
			hr.EvalP = ev.pools[r.Class].PValue(hr.EvalCvg, hr.EvalSupp)
		}
		res.Candidates = append(res.Candidates, hr)
	}
	return res, nil
}

// HoldoutOutcome is the holdout's decision over its candidates'
// evaluation p-values: Benjamini–Hochberg (HD_BH) when useFDR is set,
// Bonferroni (HD_BC) otherwise, with NumTests = len(cands). It reads
// cands only, so several decisions may share one candidate set.
func HoldoutOutcome(cands []HoldoutRule, alpha float64, useFDR bool) *Outcome {
	ps := make([]float64, len(cands))
	for i := range cands {
		ps[i] = cands[i].EvalP
	}
	if useFDR {
		o := BenjaminiHochberg(ps, len(ps), alpha)
		o.Method = "HD_BH"
		return o
	}
	o := Bonferroni(ps, len(ps), alpha)
	o.Method = "HD_BC"
	return o
}

// evalHalf is the evaluation dataset in the form the re-test reads: a word
// bitmap of records per item and per class, and one p-value ladder pool
// per class. The item encoding comes from the schema, so the exploratory
// closures' item ids index items directly.
type evalHalf struct {
	items   [][]uint64 // items[i]: the records holding item i
	classes [][]uint64 // classes[c]: the records labelled c
	scratch []uint64
	pools   []*stats.BufferPool // pools[c]: class c's ladders over [1, n]
}

func newEvalHalf(eval *dataset.Dataset) *evalHalf {
	enc := dataset.Encode(eval)
	w := intset.Words(enc.NumRecords)
	nItems := enc.Enc.NumItems()
	slab := make([]uint64, w*(nItems+enc.NumClasses+1))
	row := func(i int) []uint64 { return slab[i*w : (i+1)*w : (i+1)*w] }
	e := &evalHalf{
		items:   make([][]uint64, nItems),
		classes: make([][]uint64, enc.NumClasses),
		scratch: row(nItems + enc.NumClasses),
		pools:   make([]*stats.BufferPool, enc.NumClasses),
	}
	for c, h := range mining.NewHypergeoms(enc) {
		e.pools[c] = stats.NewBufferPool(h, 1, enc.NumRecords)
	}
	for i, tids := range enc.Tids {
		e.items[i] = row(i)
		intset.SetWords(e.items[i], tids)
	}
	for c := range e.classes {
		e.classes[c] = row(nItems + c)
	}
	for r, c := range enc.Labels {
		e.classes[c][r>>6] |= 1 << (r & 63)
	}
	return e
}

// counts returns the evaluation coverage of the non-empty pattern items
// and the support of the rule items ⇒ class: the popcount of the AND of
// the items' bitmaps, without and with the class bitmap.
func (e *evalHalf) counts(items []dataset.Item, class int32) (cvg, supp int) {
	s := e.scratch
	copy(s, e.items[items[0]])
	for _, it := range items[1:] {
		b := e.items[it]
		for j := range s {
			s[j] &= b[j]
		}
	}
	for _, w := range s {
		cvg += bits.OnesCount64(w)
	}
	return cvg, intset.IntersectCountWords(s, e.classes[class])
}

// patternOf converts a closure's item ids into parallel attribute/value
// slices (items are sorted, and items of one attribute are contiguous, so
// the attrs come out ascending).
func patternOf(e *dataset.Encoding, items []dataset.Item) (attrs []int, vals []int32) {
	attrs = make([]int, len(items))
	vals = make([]int32, len(items))
	for i, it := range items {
		attrs[i], vals[i] = e.AttrValue(it)
	}
	return attrs, vals
}
