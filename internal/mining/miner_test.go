package mining

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/intset"
)

// randomDataset builds a random categorical dataset for cross-checking the
// miner against the brute-force reference.
func randomDataset(rng *rand.Rand, n, attrs, valsPerAttr, classes int) *dataset.Dataset {
	s := &dataset.Schema{}
	for a := 0; a < attrs; a++ {
		attr := dataset.Attribute{Name: fmt.Sprintf("A%d", a)}
		for v := 0; v < valsPerAttr; v++ {
			attr.Values = append(attr.Values, fmt.Sprintf("v%d", v))
		}
		s.Attrs = append(s.Attrs, attr)
	}
	for c := 0; c < classes; c++ {
		s.Class.Values = append(s.Class.Values, fmt.Sprintf("c%d", c))
	}
	s.Class.Name = "class"
	d := dataset.New(s, n)
	for r := 0; r < n; r++ {
		cells := make([]int32, attrs)
		for a := range cells {
			cells[a] = int32(rng.IntN(valsPerAttr))
		}
		d.Append(cells, int32(rng.IntN(classes)))
	}
	return d
}

func patternKey(items []dataset.Item) string {
	b := make([]byte, 0, 2*len(items))
	for _, it := range items {
		b = append(b, byte(it), byte(it>>8))
	}
	return string(b)
}

func TestMineClosedMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for trial := 0; trial < 30; trial++ {
		n := 20 + rng.IntN(60)
		attrs := 2 + rng.IntN(4)
		vals := 2 + rng.IntN(3)
		minSup := 2 + rng.IntN(6)
		d := randomDataset(rng, n, attrs, vals, 2)
		enc := dataset.Encode(d)

		for _, diffsets := range []bool{false, true} {
			tree, err := MineClosed(enc, Options{MinSup: minSup, StoreDiffsets: diffsets})
			if err != nil {
				t.Fatal(err)
			}
			brute := BruteForceClosed(enc, minSup)

			got := make(map[string]int)
			for _, node := range tree.Nodes {
				if len(node.Closure) == 0 {
					continue
				}
				got[patternKey(node.Closure)] = node.Support
			}
			want := make(map[string]int)
			for _, p := range brute {
				want[patternKey(p.Items)] = p.Support
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d diffsets=%v: miner found %d closed patterns, brute force %d",
					trial, diffsets, len(got), len(want))
			}
			for k, sup := range want {
				if got[k] != sup {
					t.Fatalf("trial %d: pattern support mismatch: miner %d, brute %d", trial, got[k], sup)
				}
			}
		}
	}
}

func TestMineClosedTidsConsistent(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	d := randomDataset(rng, 80, 4, 3, 2)
	enc := dataset.Encode(d)
	tree, err := MineClosed(enc, Options{MinSup: 3, StoreDiffsets: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range tree.Nodes {
		tids := node.MaterializeTids()
		if len(tids) != node.Support {
			t.Fatalf("node %d: |tids| = %d, support = %d", node.Index, len(tids), node.Support)
		}
		if !intset.IsSorted(tids) {
			t.Fatalf("node %d: tids not sorted", node.Index)
		}
		// Tid-list must be exactly the records containing the closure.
		for r := 0; r < enc.NumRecords; r++ {
			contains := true
			for _, it := range node.Closure {
				if !intset.Contains(enc.Tids[it], uint32(r)) {
					contains = false
					break
				}
			}
			if contains != intset.Contains(tids, uint32(r)) {
				t.Fatalf("node %d (closure %v): record %d membership mismatch", node.Index, node.Closure, r)
			}
		}
		// Class counts must match the labels over the tid-list.
		counts := CountClasses(tids, enc.Labels, enc.NumClasses)
		for c := range counts {
			if counts[c] != node.ClassCounts[c] {
				t.Fatalf("node %d: class %d count %d, want %d", node.Index, c, node.ClassCounts[c], counts[c])
			}
		}
	}
}

func TestMineClosedDiffsetRule(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 19))
	d := randomDataset(rng, 100, 5, 2, 2)
	enc := dataset.Encode(d)
	tree, err := MineClosed(enc, Options{MinSup: 2, StoreDiffsets: true})
	if err != nil {
		t.Fatal(err)
	}
	sawDiff, sawFull := false, false
	for _, node := range tree.Nodes[1:] {
		if node.HasDiff() {
			sawDiff = true
			// §4.2.2: diffsets only when supp > parent/2.
			if 2*node.Support <= node.Parent.Support {
				t.Errorf("node %d stores a diffset but support %d <= parent/2 (%d)",
					node.Index, node.Support, node.Parent.Support)
			}
			if len(node.Diff) != node.Parent.Support-node.Support {
				t.Errorf("node %d: |diff| = %d, want %d", node.Index, len(node.Diff),
					node.Parent.Support-node.Support)
			}
		} else {
			sawFull = true
			if 2*node.Support > node.Parent.Support {
				t.Errorf("node %d stores full tids but support %d > parent/2 (%d)",
					node.Index, node.Support, node.Parent.Support)
			}
		}
	}
	if !sawDiff || !sawFull {
		t.Logf("coverage note: sawDiff=%v sawFull=%v", sawDiff, sawFull)
	}
}

func TestMineClosedDFSOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 29))
	d := randomDataset(rng, 60, 4, 3, 2)
	enc := dataset.Encode(d)
	tree, err := MineClosed(enc, Options{MinSup: 2, StoreDiffsets: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, node := range tree.Nodes {
		if node.Index != i {
			t.Fatalf("node at position %d has Index %d", i, node.Index)
		}
		if node.Parent != nil && node.Parent.Index >= node.Index {
			t.Fatalf("node %d appears before its parent %d", node.Index, node.Parent.Index)
		}
		if node.Parent != nil && node.Depth != node.Parent.Depth+1 {
			t.Fatalf("node %d depth %d, parent depth %d", node.Index, node.Depth, node.Parent.Depth)
		}
	}
}

func TestMineClosedUniquePatterns(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 37))
	for trial := 0; trial < 10; trial++ {
		d := randomDataset(rng, 50+rng.IntN(50), 5, 3, 2)
		enc := dataset.Encode(d)
		tree, err := MineClosed(enc, Options{MinSup: 2, StoreDiffsets: trial%2 == 0})
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]bool)
		tidsSeen := make(map[string]bool)
		for _, node := range tree.Nodes {
			k := patternKey(node.Closure)
			if seen[k] {
				t.Fatalf("duplicate closed pattern %v", node.Closure)
			}
			seen[k] = true
			// Closed patterns have pairwise distinct record sets.
			tids := node.MaterializeTids()
			tk := fmt.Sprint(tids)
			if tidsSeen[tk] {
				t.Fatalf("two closed patterns share a record set (pattern %v)", node.Closure)
			}
			tidsSeen[tk] = true
		}
	}
}

func TestMineClosedMinSupRespected(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 43))
	d := randomDataset(rng, 100, 4, 2, 2)
	enc := dataset.Encode(d)
	for _, minSup := range []int{2, 5, 10, 25, 60} {
		tree, err := MineClosed(enc, Options{MinSup: minSup})
		if err != nil {
			t.Fatal(err)
		}
		for _, node := range tree.Nodes {
			if node.Support < minSup {
				t.Fatalf("minSup=%d: pattern %v has support %d", minSup, node.Closure, node.Support)
			}
		}
	}
	// Monotonicity: higher minSup yields no more patterns.
	prev := -1
	for _, minSup := range []int{2, 5, 10, 25, 60} {
		tree, _ := MineClosed(enc, Options{MinSup: minSup})
		if prev >= 0 && len(tree.Nodes) > prev {
			t.Fatalf("pattern count increased when minSup rose to %d", minSup)
		}
		prev = len(tree.Nodes)
	}
}

func TestMineClosedMaxLen(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 53))
	d := randomDataset(rng, 60, 6, 2, 2)
	enc := dataset.Encode(d)
	tree, err := MineClosed(enc, Options{MinSup: 2, MaxLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range tree.Nodes {
		if len(node.Closure) > 2 {
			t.Fatalf("MaxLen=2 violated by pattern %v", node.Closure)
		}
	}
}

func TestMineClosedMaxNodes(t *testing.T) {
	rng := rand.New(rand.NewPCG(59, 61))
	d := randomDataset(rng, 100, 6, 3, 2)
	enc := dataset.Encode(d)
	if _, err := MineClosed(enc, Options{MinSup: 2, MaxNodes: 5}); err == nil {
		t.Error("expected node budget error")
	}
}

func TestMineClosedInvalidMinSup(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	d := randomDataset(rng, 10, 2, 2, 2)
	if _, err := MineClosed(dataset.Encode(d), Options{MinSup: 0}); err == nil {
		t.Error("MinSup=0 should be rejected")
	}
}

func TestMineClosedConstantAttribute(t *testing.T) {
	// An attribute with a single value appears in every record; its item
	// belongs to the root closure and every pattern's closure.
	s := &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "const", Values: []string{"only"}},
			{Name: "x", Values: []string{"a", "b"}},
		},
		Class: dataset.Attribute{Name: "class", Values: []string{"y", "n"}},
	}
	d := dataset.New(s, 6)
	for r := 0; r < 6; r++ {
		d.Append([]int32{0, int32(r % 2)}, int32(r%2))
	}
	enc := dataset.Encode(d)
	tree, err := MineClosed(enc, Options{MinSup: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Root.Closure) != 1 {
		t.Fatalf("root closure = %v, want the constant item", tree.Root.Closure)
	}
	for _, node := range tree.Nodes {
		found := false
		for _, it := range node.Closure {
			if it == 0 {
				found = true
			}
		}
		if !found {
			t.Fatalf("pattern %v misses the constant item", node.Closure)
		}
	}
}

func TestGenerateRulesPaperPolicyTwoClasses(t *testing.T) {
	rng := rand.New(rand.NewPCG(67, 71))
	d := randomDataset(rng, 80, 4, 2, 2)
	enc := dataset.Encode(d)
	tree, err := MineClosed(enc, Options{MinSup: 3})
	if err != nil {
		t.Fatal(err)
	}
	rules, err := GenerateRules(tree, RuleOptions{Policy: PaperPolicy})
	if err != nil {
		t.Fatal(err)
	}
	// One rule per non-root pattern.
	if got, want := len(rules), tree.NumPatterns(); got != want {
		t.Fatalf("generated %d rules, want %d (one per pattern)", got, want)
	}
	hs := NewHypergeoms(enc)
	for _, r := range rules {
		if r.Coverage != r.Node.Support {
			t.Errorf("rule coverage %d != node support %d", r.Coverage, r.Node.Support)
		}
		if r.Support != int(r.Node.ClassCounts[r.Class]) {
			t.Errorf("rule support inconsistent")
		}
		want := hs[r.Class].FisherTwoTailed(r.Support, r.Coverage)
		if diff := r.P - want; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("rule p-value %g, want %g", r.P, want)
		}
		// Both classes give the same two-tailed p-value.
		other := 1 - r.Class
		pOther := hs[other].FisherTwoTailed(int(r.Node.ClassCounts[other]), r.Coverage)
		if rel := (r.P - pOther) / (r.P + 1e-300); rel > 1e-6 || rel < -1e-6 {
			t.Errorf("two-class symmetry broken: p(c)=%g p(¬c)=%g", r.P, pOther)
		}
	}
}

func TestGenerateRulesMultiClass(t *testing.T) {
	rng := rand.New(rand.NewPCG(73, 79))
	d := randomDataset(rng, 90, 3, 2, 3)
	enc := dataset.Encode(d)
	tree, err := MineClosed(enc, Options{MinSup: 3})
	if err != nil {
		t.Fatal(err)
	}
	rules, err := GenerateRules(tree, RuleOptions{Policy: PaperPolicy})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(rules), 3*tree.NumPatterns(); got != want {
		t.Fatalf("generated %d rules, want %d (m per pattern)", got, want)
	}
}

func TestGenerateRulesFixedClass(t *testing.T) {
	rng := rand.New(rand.NewPCG(83, 89))
	d := randomDataset(rng, 60, 3, 2, 2)
	enc := dataset.Encode(d)
	tree, _ := MineClosed(enc, Options{MinSup: 3})
	rules, err := GenerateRules(tree, RuleOptions{Policy: FixedClass, Class: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		if r.Class != 1 {
			t.Fatalf("FixedClass produced class %d", r.Class)
		}
	}
	if _, err := GenerateRules(tree, RuleOptions{Policy: FixedClass, Class: 5}); err == nil {
		t.Error("out-of-range fixed class should be rejected")
	}
}

func TestGenerateRulesMinConf(t *testing.T) {
	rng := rand.New(rand.NewPCG(97, 101))
	d := randomDataset(rng, 80, 4, 2, 2)
	enc := dataset.Encode(d)
	tree, _ := MineClosed(enc, Options{MinSup: 3})
	rules, err := GenerateRules(tree, RuleOptions{Policy: AllClasses, MinConf: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		if r.Confidence < 0.6 {
			t.Fatalf("rule with confidence %f below MinConf", r.Confidence)
		}
	}
}

// TestGenerateRulesMatchPerRuleFisher pins scoring's shared ladders to
// the per-rule oracle: every Fisher p-value GenerateRules reads from its
// per-call pools equals Hypergeom.FisherTwoTailed bit for bit, under
// every class policy, on two- and three-class data.
func TestGenerateRulesMatchPerRuleFisher(t *testing.T) {
	for _, classes := range []int{2, 3} {
		rng := rand.New(rand.NewPCG(109, uint64(classes)))
		enc := dataset.Encode(randomDataset(rng, 240, 4, 3, classes))
		tree, err := MineClosed(enc, Options{MinSup: 3})
		if err != nil {
			t.Fatal(err)
		}
		hs := NewHypergeoms(enc)
		for _, opts := range []RuleOptions{
			{Policy: PaperPolicy},
			{Policy: AllClasses},
			{Policy: FixedClass, Class: int32(classes - 1)},
		} {
			rules, err := GenerateRules(tree, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(rules) < tree.NumPatterns() {
				t.Fatalf("%d classes, policy %d: %d rules for %d patterns", classes, opts.Policy, len(rules), tree.NumPatterns())
			}
			cvgs := map[int]bool{}
			for i, r := range rules {
				cvgs[r.Coverage] = true
				if want := hs[r.Class].FisherTwoTailed(r.Support, r.Coverage); r.P != want {
					t.Fatalf("%d classes, policy %d: rule %d (class %d, cvg %d, supp %d): p %v, per-rule oracle %v",
						classes, opts.Policy, i, r.Class, r.Coverage, r.Support, r.P, want)
				}
			}
			if len(cvgs) >= len(rules) {
				t.Fatalf("%d classes, policy %d: no coverage repeats, so no ladder is reused", classes, opts.Policy)
			}
		}
	}
}

func TestSortRulesByP(t *testing.T) {
	rng := rand.New(rand.NewPCG(103, 107))
	d := randomDataset(rng, 100, 4, 3, 2)
	enc := dataset.Encode(d)
	tree, _ := MineClosed(enc, Options{MinSup: 3})
	rules, _ := GenerateRules(tree, RuleOptions{Policy: PaperPolicy})
	SortRulesByP(rules)
	if !sort.SliceIsSorted(rules, func(i, j int) bool { return rules[i].P < rules[j].P }) {
		for i := 1; i < len(rules); i++ {
			if rules[i].P < rules[i-1].P {
				t.Fatalf("rules not sorted at %d: %g > %g", i, rules[i-1].P, rules[i].P)
			}
		}
	}
}

func TestRuleFormat(t *testing.T) {
	s := &dataset.Schema{
		Attrs: []dataset.Attribute{{Name: "color", Values: []string{"red", "blue"}}},
		Class: dataset.Attribute{Name: "class", Values: []string{"yes", "no"}},
	}
	d := dataset.New(s, 4)
	d.Append([]int32{0}, 0)
	d.Append([]int32{0}, 0)
	d.Append([]int32{1}, 1)
	d.Append([]int32{1}, 1)
	enc := dataset.Encode(d)
	tree, _ := MineClosed(enc, Options{MinSup: 1})
	rules, _ := GenerateRules(tree, RuleOptions{Policy: AllClasses})
	if len(rules) == 0 {
		t.Fatal("no rules")
	}
	got := rules[0].Format(enc.Enc)
	if got == "" || len(got) < 10 {
		t.Errorf("Format produced %q", got)
	}
}
