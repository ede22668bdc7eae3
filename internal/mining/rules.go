package mining

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// Rule is a class association rule X ⇒ c (§2.1) built from a closed
// pattern. Coverage is supp(X), Support is supp(R) = supp(X ∪ {c}),
// Confidence = Support/Coverage, and P is the two-tailed Fisher exact
// p-value of the rule on the original labels.
type Rule struct {
	Node       *Node
	Class      int32
	Support    int
	Coverage   int
	Confidence float64
	P          float64
}

// Length returns the number of items in the rule's LHS.
func (r *Rule) Length() int { return len(r.Node.Closure) }

// String renders the rule with the encoding of enc, e.g.
// "color=red ∧ size=L ⇒ class=yes (cvg=12 conf=0.83 p=1.2e-05)".
func (r *Rule) Format(enc *dataset.Encoding) string {
	var b strings.Builder
	for i, it := range r.Node.Closure {
		if i > 0 {
			b.WriteString(" ∧ ")
		}
		b.WriteString(enc.String(it))
	}
	fmt.Fprintf(&b, " ⇒ %s=%s (cvg=%d conf=%.3f p=%.3g)",
		enc.Schema.Class.Name, enc.Schema.Class.Values[r.Class],
		r.Coverage, r.Confidence, r.P)
	return b.String()
}

// RuleClassPolicy selects which rule(s) each closed pattern generates.
type RuleClassPolicy int

const (
	// PaperPolicy follows §3: with two classes, one rule per pattern
	// (testing X ⇒ c is equivalent to testing X ⇒ ¬c under the two-tailed
	// test; the enriched class is reported); with m > 2 classes, m rules
	// per pattern.
	PaperPolicy RuleClassPolicy = iota
	// AllClasses generates one rule per class for every pattern.
	AllClasses
	// FixedClass generates a single rule per pattern with the class given
	// in RuleOptions.Class (used e.g. for Table 4, whose RHS is fixed to
	// class=good).
	FixedClass
)

// TestKind selects the statistical test scoring each rule.
type TestKind int

const (
	// TestFisher is the paper's two-tailed Fisher exact test (§2.2).
	TestFisher TestKind = iota
	// TestMidP is the mid-p variant of the Fisher test (less
	// conservative; extension).
	TestMidP
	// TestChiSquare is the Pearson χ² test of Brin et al., the common
	// alternative the paper cites (§2.2/[5]).
	TestChiSquare
)

// String names the test.
func (k TestKind) String() string {
	switch k {
	case TestFisher:
		return "fisher"
	case TestMidP:
		return "mid-p"
	case TestChiSquare:
		return "chi2"
	default:
		return fmt.Sprintf("TestKind(%d)", int(k))
	}
}

// RuleOptions configures rule generation.
type RuleOptions struct {
	Policy RuleClassPolicy
	// Class is the RHS class index when Policy == FixedClass.
	Class int32
	// MinConf drops rules below this confidence. The paper sets it to 0
	// in all experiments (domain significance is orthogonal to the
	// statistical question studied); it is exposed for the library API.
	MinConf float64
	// Test selects the significance test (default TestFisher).
	Test TestKind
}

// NewHypergeoms builds one hypergeometric evaluator per class, sharing a
// single log-factorial table.
func NewHypergeoms(enc *dataset.Encoded) []*stats.Hypergeom {
	lf := stats.NewLogFact(enc.NumRecords)
	hs := make([]*stats.Hypergeom, enc.NumClasses)
	for c := range hs {
		hs[c] = stats.NewHypergeom(enc.NumRecords, enc.ClassCounts[c], lf)
	}
	return hs
}

// GenerateRules produces the tested rule set of a mined tree under the
// given policy. The root is skipped when its closure is empty (the empty
// pattern is not a rule LHS). Rules appear in tree (DFS) order; for
// multi-class policies the per-pattern rules appear in class order.
//
// Fisher p-values come from one ladder per (class, coverage) for the
// length of the call: each class gets a buffer pool whose static range
// spans every coverage a pattern can have, [tree.MinSup, n], and the pools
// are dropped on return. The ladders are built by the same construction
// as Hypergeom.FisherTwoTailed, so every p-value is bit-identical to the
// per-rule evaluation.
func GenerateRules(tree *Tree, opts RuleOptions) ([]Rule, error) {
	enc := tree.Enc
	hs := NewHypergeoms(enc)
	pools := make([]*stats.BufferPool, len(hs))
	pval := func(class int32, cvg, k int) float64 {
		h := hs[class]
		switch opts.Test {
		case TestMidP:
			return h.FisherMidP(k, cvg)
		case TestChiSquare:
			return stats.ChiSquarePValue(stats.ChiSquare2x2(k, cvg, h.N(), h.NC()), 1)
		default:
			if pools[class] == nil {
				pools[class] = stats.NewBufferPool(h, tree.MinSup, enc.NumRecords)
			}
			return pools[class].PValue(cvg, k)
		}
	}

	var rules []Rule
	emit := func(node *Node, class int32) {
		k := int(node.ClassCounts[class])
		conf := float64(k) / float64(node.Support)
		if conf < opts.MinConf {
			return
		}
		rules = append(rules, Rule{
			Node:       node,
			Class:      class,
			Support:    k,
			Coverage:   node.Support,
			Confidence: conf,
			P:          pval(class, node.Support, k),
		})
	}

	for _, node := range tree.Nodes {
		if len(node.Closure) == 0 {
			continue
		}
		switch opts.Policy {
		case PaperPolicy:
			if enc.NumClasses == 2 {
				emit(node, enrichedClass(node, enc))
			} else {
				for c := int32(0); int(c) < enc.NumClasses; c++ {
					emit(node, c)
				}
			}
		case AllClasses:
			for c := int32(0); int(c) < enc.NumClasses; c++ {
				emit(node, c)
			}
		case FixedClass:
			if int(opts.Class) >= enc.NumClasses {
				return nil, fmt.Errorf("mining: FixedClass %d out of range [0,%d)", opts.Class, enc.NumClasses)
			}
			emit(node, opts.Class)
		default:
			return nil, fmt.Errorf("mining: unknown rule class policy %d", opts.Policy)
		}
	}
	return rules, nil
}

// enrichedClass returns, for a two-class dataset, the class whose observed
// count within the pattern exceeds its expectation under independence
// (ties break toward class 0). The two-tailed p-value is identical for
// either choice; this only affects the reported confidence.
func enrichedClass(node *Node, enc *dataset.Encoded) int32 {
	// observed0/sup >= n0/n  <=>  observed0*n >= n0*sup (integer-exact).
	if int(node.ClassCounts[0])*enc.NumRecords >= enc.ClassCounts[0]*node.Support {
		return 0
	}
	return 1
}

// SortRulesByP orders rules by ascending p-value (ties broken by higher
// coverage then tree order) — the presentation order used throughout the
// experiments.
func SortRulesByP(rules []Rule) {
	sort.SliceStable(rules, func(i, j int) bool {
		if rules[i].P != rules[j].P {
			return rules[i].P < rules[j].P
		}
		if rules[i].Coverage != rules[j].Coverage {
			return rules[i].Coverage > rules[j].Coverage
		}
		return rules[i].Node.Index < rules[j].Node.Index
	})
}
