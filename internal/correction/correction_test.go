package correction

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/mining"
	"repro/internal/permute"
	"repro/internal/synth"
)

func TestNone(t *testing.T) {
	ps := []float64{0.01, 0.04, 0.05, 0.06, 0.9}
	o := None(ps, 0.05)
	want := []int{0, 1, 2}
	if len(o.Significant) != len(want) {
		t.Fatalf("Significant = %v, want %v", o.Significant, want)
	}
	for i := range want {
		if o.Significant[i] != want[i] {
			t.Fatalf("Significant = %v, want %v", o.Significant, want)
		}
	}
}

func TestBonferroni(t *testing.T) {
	ps := []float64{0.0004, 0.0006, 0.01, 0.04}
	o := Bonferroni(ps, 100, 0.05) // cutoff 0.0005
	if len(o.Significant) != 1 || o.Significant[0] != 0 {
		t.Fatalf("Significant = %v, want [0]", o.Significant)
	}
	if math.Abs(o.Cutoff-0.0005) > 1e-12 {
		t.Errorf("Cutoff = %g, want 0.0005", o.Cutoff)
	}
	// Boundary p == cutoff is significant (<=).
	o = Bonferroni([]float64{0.0005}, 100, 0.05)
	if len(o.Significant) != 1 {
		t.Error("boundary p-value not declared significant")
	}
	// numTests below 1 is clamped.
	o = Bonferroni([]float64{0.04}, 0, 0.05)
	if len(o.Significant) != 1 {
		t.Error("numTests=0 should behave like a single test")
	}
}

func TestBenjaminiHochbergKnownExample(t *testing.T) {
	// Standard worked example: n = 10 p-values, alpha = 0.05.
	ps := []float64{0.0001, 0.0004, 0.0019, 0.0095, 0.0201, 0.0278, 0.0298, 0.0344, 0.0459, 0.3240}
	o := BenjaminiHochberg(ps, len(ps), 0.05)
	// Thresholds i*0.05/10 = 0.005i: p(8)=0.0344 <= 0.040 passes while
	// p(9)=0.0459 > 0.045 and p(10)=0.324 > 0.05 fail, so the largest
	// passing rank is k=8 and the 8 smallest p-values are significant.
	if len(o.Significant) != 8 {
		t.Fatalf("BH declared %d significant, want 8 (%v)", len(o.Significant), o.Significant)
	}
	for _, i := range o.Significant {
		if i > 7 {
			t.Errorf("rule %d should not be significant", i)
		}
	}
}

func TestBenjaminiHochbergEdgeCases(t *testing.T) {
	if o := BenjaminiHochberg(nil, 0, 0.05); len(o.Significant) != 0 {
		t.Error("empty input produced significances")
	}
	// Nothing passes.
	o := BenjaminiHochberg([]float64{0.5, 0.9}, 2, 0.05)
	if len(o.Significant) != 0 || o.Cutoff >= 0 {
		t.Error("no p-value should pass")
	}
	// Everything passes.
	o = BenjaminiHochberg([]float64{0.001, 0.002, 0.003}, 3, 0.05)
	if len(o.Significant) != 3 {
		t.Errorf("all should pass, got %v", o.Significant)
	}
	// BH with external numTests > len(ps) (holdout-style) is stricter.
	few := BenjaminiHochberg([]float64{0.01, 0.02}, 2, 0.05)
	many := BenjaminiHochberg([]float64{0.01, 0.02}, 1000, 0.05)
	if len(many.Significant) > len(few.Significant) {
		t.Error("larger numTests must not admit more rules")
	}
}

func TestBHNeverFewerThanBonferroni(t *testing.T) {
	f := func(raw []float64) bool {
		ps := make([]float64, 0, len(raw))
		for _, v := range raw {
			v = math.Abs(v)
			v -= math.Floor(v) // into [0,1)
			ps = append(ps, v)
		}
		bc := Bonferroni(ps, len(ps), 0.05)
		bh := BenjaminiHochberg(ps, len(ps), 0.05)
		// BH is uniformly more powerful than Bonferroni: every BC
		// discovery is a BH discovery.
		for _, i := range bc.Significant {
			if !bh.IsSignificant(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBHAdjustedPConsistent(t *testing.T) {
	ps := []float64{0.0001, 0.0004, 0.0019, 0.0095, 0.0201, 0.0278, 0.0298, 0.0344, 0.0459, 0.3240}
	adj := BHAdjustedP(ps, len(ps))
	o := BenjaminiHochberg(ps, len(ps), 0.05)
	for i := range ps {
		sig := adj[i] <= 0.05
		if sig != o.IsSignificant(i) {
			t.Errorf("rule %d: adjusted-p significance %v disagrees with BH %v (q=%g)",
				i, sig, o.IsSignificant(i), adj[i])
		}
	}
	// Adjusted p-values preserve the order of raw p-values.
	type pair struct{ raw, adj float64 }
	pairs := make([]pair, len(ps))
	for i := range ps {
		pairs[i] = pair{ps[i], adj[i]}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].raw < pairs[b].raw })
	for i := 1; i < len(pairs); i++ {
		if pairs[i].adj < pairs[i-1].adj-1e-15 {
			t.Error("adjusted p-values not monotone in raw p-values")
		}
	}
}

func TestPermFWERCutoff(t *testing.T) {
	// 20 min-p values 0.01..0.20; alpha=0.05 → k = ⌊0.05·20⌋ = 1 → the
	// smallest value.
	minP := make([]float64, 20)
	for i := range minP {
		minP[i] = float64(i+1) / 100
	}
	if got := PermFWERCutoff(minP, 0.05); math.Abs(got-0.01) > 1e-12 {
		t.Errorf("cutoff = %g, want 0.01", got)
	}
	// alpha=0.25 → k=5 → 0.05.
	if got := PermFWERCutoff(minP, 0.25); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("cutoff = %g, want 0.05", got)
	}
	// Too few permutations: ⌊0.05·10⌋ = 0 → nothing certifiable.
	if got := PermFWERCutoff(minP[:10], 0.05); got >= 0 {
		t.Errorf("cutoff = %g, want negative sentinel", got)
	}
}

// TestPermFWERCutoffTies pins the cut-off at ties across the ⌊αN⌋
// boundary: it is the largest min-p value with at most ⌊αN⌋ values at or
// below it, or negative when no value qualifies.
func TestPermFWERCutoffTies(t *testing.T) {
	seq := func(head ...float64) []float64 {
		// head, then distinct values 0.5, 0.51, ... up to 20 entries.
		out := append([]float64(nil), head...)
		for v := 0.5; len(out) < 20; v += 0.01 {
			out = append(out, v)
		}
		return out
	}
	for _, tc := range []struct {
		name  string
		minP  []float64
		alpha float64
		want  float64
	}{
		// k = ⌊0.05·20⌋ = 1.
		{"k-th ties the next", seq(0.01, 0.01), 0.05, -1},
		{"k-th strictly below the next", seq(0.01, 0.02), 0.05, 0.01},
		// k = ⌊0.25·20⌋ = 5.
		{"tie straddles k", seq(0.01, 0.02, 0.03, 0.04, 0.04, 0.04), 0.25, 0.03},
		{"tie ends at k", seq(0.01, 0.02, 0.04, 0.04, 0.04, 0.06), 0.25, 0.04},
		{"tie from the smallest", seq(0.04, 0.04, 0.04, 0.04, 0.04, 0.04), 0.25, -1},
		{"all tie", []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 0.25, -1},
		// Input order must not matter.
		{"unsorted tie", []float64{0.9, 0.04, 0.04, 0.04, 0.01, 0.7, 0.04, 0.6, 0.55, 0.02, 0.8, 0.81, 0.82, 0.83, 0.84, 0.85, 0.86, 0.87, 0.88, 0.89}, 0.25, 0.02},
		// k ≥ N: every value qualifies, so the largest is the cut-off.
		{"k covers every permutation", []float64{0.3, 0.3, 0.1}, 1, 0.3},
	} {
		if got := PermFWERCutoff(tc.minP, tc.alpha); got != tc.want {
			t.Errorf("%s: cut-off %g, want %g", tc.name, got, tc.want)
		}
		// Whatever the ties, the cut-off admits at most ⌊αN⌋ permutations.
		cut := PermFWERCutoff(tc.minP, tc.alpha)
		at := 0
		for _, v := range tc.minP {
			if v <= cut {
				at++
			}
		}
		if k := int(tc.alpha * float64(len(tc.minP))); at > k {
			t.Errorf("%s: %d permutations at or below the cut-off, more than ⌊αN⌋ = %d", tc.name, at, k)
		}
	}
}

func TestPermAdjustedP(t *testing.T) {
	counts := []int64{0, 5, 100}
	adj := PermAdjustedP(counts, 10, 10) // N·Nt = 100
	want := []float64{0, 0.05, 1}
	for i := range want {
		if math.Abs(adj[i]-want[i]) > 1e-12 {
			t.Errorf("adj[%d] = %g, want %g", i, adj[i], want[i])
		}
	}
}

func TestLayeredCriticalValues(t *testing.T) {
	ps := []float64{0.001, 0.02, 0.001, 0.02}
	lengths := []int{1, 1, 2, 2}
	// maxLen=2: per-layer budget 0.025; layer 1 has 2 rules → cutoff
	// 0.0125; layer 2 likewise.
	o, err := LayeredCriticalValues(ps, lengths, 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Significant) != 2 || o.Significant[0] != 0 || o.Significant[1] != 2 {
		t.Fatalf("Significant = %v, want [0 2]", o.Significant)
	}
	if _, err := LayeredCriticalValues(ps, lengths[:2], 2, 0.05); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := LayeredCriticalValues(ps, []int{0, 1, 2, 2}, 2, 0.05); err == nil {
		t.Error("zero rule length accepted")
	}
}

func TestOutcomeIsSignificant(t *testing.T) {
	o := &Outcome{Significant: []int{2, 5, 9}}
	for _, i := range []int{2, 5, 9} {
		if !o.IsSignificant(i) {
			t.Errorf("IsSignificant(%d) = false", i)
		}
	}
	for _, i := range []int{0, 3, 10} {
		if o.IsSignificant(i) {
			t.Errorf("IsSignificant(%d) = true", i)
		}
	}
}

// End-to-end: on a pure-noise dataset the permutation FWER procedure at
// alpha=0.05 almost never declares anything significant, while "no
// correction" at 0.05 floods.
func TestPermutationControlsNoiseEndToEnd(t *testing.T) {
	p := synth.PaperDefaults()
	p.N = 400
	p.Attrs = 12
	p.Seed = 2024
	res, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	enc := dataset.Encode(res.Data)
	tree, err := mining.MineClosed(enc, mining.Options{MinSup: 30, StoreDiffsets: true})
	if err != nil {
		t.Fatal(err)
	}
	rules, err := mining.GenerateRules(tree, mining.RuleOptions{Policy: mining.PaperPolicy})
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) < 50 {
		t.Skipf("only %d rules mined; dataset too small for this test", len(rules))
	}
	ps := make([]float64, len(rules))
	for i := range rules {
		ps[i] = rules[i].P
	}
	raw := None(ps, 0.05)

	engine, err := permute.NewEngine(tree, rules, permute.Config{NumPerms: 200, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	perm := PermFWER(engine, rules, 0.05)
	if len(perm.Significant) > len(raw.Significant)/2 && len(perm.Significant) > 3 {
		t.Errorf("permutation FWER admitted %d of %d raw discoveries on noise",
			len(perm.Significant), len(raw.Significant))
	}

	fdr := PermFDR(engine, rules, 0.05)
	if len(fdr.Significant) > len(rules)/10 {
		t.Errorf("permutation FDR admitted %d of %d rules on noise", len(fdr.Significant), len(rules))
	}
}

// End-to-end: a strongly embedded rule survives permutation FWER.
func TestPermutationDetectsStrongSignal(t *testing.T) {
	p := synth.PaperDefaults()
	p.N = 1000
	p.Attrs = 15
	p.NumRules = 1
	p.MinCvg, p.MaxCvg = 200, 200
	p.MinConf, p.MaxConf = 0.9, 0.9
	p.Seed = 77
	res, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	enc := dataset.Encode(res.Data)
	tree, err := mining.MineClosed(enc, mining.Options{MinSup: 80, StoreDiffsets: true})
	if err != nil {
		t.Fatal(err)
	}
	rules, err := mining.GenerateRules(tree, mining.RuleOptions{Policy: mining.PaperPolicy})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := permute.NewEngine(tree, rules, permute.Config{NumPerms: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	o := PermFWER(engine, rules, 0.05)
	if len(o.Significant) == 0 {
		t.Fatal("a coverage-200 confidence-0.9 rule in n=1000 should be detected")
	}
}

func TestHoldoutEndToEnd(t *testing.T) {
	p := synth.PaperDefaults()
	p.N = 1000
	p.Attrs = 12
	p.NumRules = 1
	p.MinCvg, p.MaxCvg = 300, 300
	p.MinConf, p.MaxConf = 0.9, 0.9
	p.Seed = 13
	whole, first, second, err := synth.GeneratePaired(p)
	if err != nil {
		t.Fatal(err)
	}
	_ = whole
	res, err := Holdout(first, second, HoldoutConfig{
		MinSupExplore: 50,
		Alpha:         0.05,
		Policy:        mining.PaperPolicy,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumExploreTested == 0 {
		t.Fatal("no rules tested on the exploratory dataset")
	}
	if len(res.Candidates) == 0 {
		t.Fatal("no candidates passed the exploratory filter despite an embedded rule")
	}
	if len(res.Candidates) > res.NumExploreTested {
		t.Error("more candidates than tested rules")
	}
	if res.Outcome.NumTests != len(res.Candidates) {
		t.Errorf("holdout corrected for %d tests, want %d (candidate count)",
			res.Outcome.NumTests, len(res.Candidates))
	}
	// The strongly embedded rule should survive evaluation.
	if len(res.Outcome.Significant) == 0 {
		t.Error("holdout failed to confirm a strong embedded rule")
	}
	// Candidates carry consistent evaluation statistics.
	for _, c := range res.Candidates {
		if c.EvalCvg < 0 || c.EvalSupp > c.EvalCvg {
			t.Errorf("candidate has inconsistent eval stats: cvg=%d supp=%d", c.EvalCvg, c.EvalSupp)
		}
		if c.EvalP < 0 || c.EvalP > 1 {
			t.Errorf("eval p-value %g outside [0,1]", c.EvalP)
		}
	}
	// FDR flavour also runs.
	resFDR, err := Holdout(first, second, HoldoutConfig{
		MinSupExplore: 50,
		Alpha:         0.05,
		UseFDR:        true,
		Policy:        mining.PaperPolicy,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resFDR.Outcome.Method != "HD_BH" {
		t.Errorf("method = %q, want HD_BH", resFDR.Outcome.Method)
	}
	if len(resFDR.Outcome.Significant) < len(res.Outcome.Significant) {
		t.Error("BH on the evaluation half should be at least as powerful as Bonferroni")
	}
}

func TestHoldoutSchemaMismatch(t *testing.T) {
	p := synth.PaperDefaults()
	p.N = 100
	p.Attrs = 5
	p.Seed = 1
	a, _ := synth.Generate(p)
	p.Seed = 2
	b, _ := synth.Generate(p)
	if _, err := Holdout(a.Data, b.Data, HoldoutConfig{MinSupExplore: 10, Alpha: 0.05}); err == nil {
		t.Error("different schemas accepted")
	}
}

func TestHoldoutBadMinSup(t *testing.T) {
	p := synth.PaperDefaults()
	p.N = 100
	p.Attrs = 5
	p.Seed = 1
	res, _ := synth.Generate(p)
	a, b := res.Data.SplitHalves()
	if _, err := Holdout(a, b, HoldoutConfig{MinSupExplore: 0, Alpha: 0.05}); err == nil {
		t.Error("MinSupExplore=0 accepted")
	}
}
