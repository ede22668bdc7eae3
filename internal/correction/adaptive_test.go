package correction

import (
	"context"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mining"
	"repro/internal/permute"
	"repro/internal/synth"
)

// adaptiveCase mines a synthetic dataset and returns the tree and scored
// rule set an adaptive-vs-fixed comparison runs on.
func adaptiveCase(t *testing.T, seed uint64, n, attrs, minSup int, diffsets bool) (*mining.Tree, []mining.Rule) {
	t.Helper()
	p := synth.PaperDefaults()
	p.N = n
	p.Attrs = attrs
	p.Seed = seed
	res, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	enc := dataset.Encode(res.Data)
	tree, err := mining.MineClosed(enc, mining.Options{MinSup: minSup, StoreDiffsets: diffsets})
	if err != nil {
		t.Fatal(err)
	}
	rules, err := mining.GenerateRules(tree, mining.RuleOptions{Policy: mining.PaperPolicy})
	if err != nil {
		t.Fatal(err)
	}
	return tree, rules
}

func sameOutcome(t *testing.T, label string, got, want *Outcome) {
	t.Helper()
	if got.Cutoff != want.Cutoff {
		t.Errorf("%s: cutoff %g != %g", label, got.Cutoff, want.Cutoff)
	}
	if len(got.Significant) != len(want.Significant) {
		t.Fatalf("%s: %d significant != %d", label, len(got.Significant), len(want.Significant))
	}
	for i := range got.Significant {
		if got.Significant[i] != want.Significant[i] {
			t.Fatalf("%s: significant[%d] = %d != %d", label, i, got.Significant[i], want.Significant[i])
		}
	}
}

// TestAdaptiveNoRetireByteIdentical pins the tentpole contract: an
// adaptive run with retirement disabled (Exceedances < 0) is byte-
// identical to a fixed run of the same budget — per-permutation min-p,
// pooled counts and both correction outcomes — at every optimisation
// level and worker count, because every permutation derives its labels
// from (Seed, perm-index) regardless of round boundaries.
func TestAdaptiveNoRetireByteIdentical(t *testing.T) {
	const maxPerms = 120
	const alpha = 0.05
	for _, opt := range []permute.OptLevel{permute.OptNone, permute.OptDynamicBuffer, permute.OptDiffsets, permute.OptStaticBuffer} {
		tree, rules := adaptiveCase(t, 5, 300, 8, 20, opt.WantDiffsets())
		for _, workers := range []int{1, 3} {
			fixed, err := permute.NewEngine(tree, rules, permute.Config{
				NumPerms: maxPerms, Seed: 9, Opt: opt, Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			mkAdaptive := func(mode permute.AdaptiveMode) *permute.AdaptiveResult {
				adaptive, err := permute.NewEngine(tree, rules, permute.Config{
					Seed: 9, Opt: opt, Workers: workers,
					Adaptive: permute.Adaptive{MinPerms: 16, MaxPerms: maxPerms, Exceedances: -1},
				})
				if err != nil {
					t.Fatal(err)
				}
				res, err := adaptive.RunAdaptive(mode, alpha)
				if err != nil {
					t.Fatal(err)
				}
				if res.PermsRun != maxPerms || res.Rounds < 2 {
					t.Fatalf("opt=%v: PermsRun=%d Rounds=%d, want full budget over several rounds", opt, res.PermsRun, res.Rounds)
				}
				if res.RulesRetired != 0 || res.PermsSaved != 0 {
					t.Fatalf("opt=%v: retirement disabled but %d retired, %d saved", opt, res.RulesRetired, res.PermsSaved)
				}
				return res
			}
			fres := mkAdaptive(permute.AdaptFWER)
			wantMinP := fixed.MinP()
			for j := range wantMinP {
				if fres.MinP[j] != wantMinP[j] {
					t.Fatalf("opt=%v workers=%d perm %d: adaptive MinP %g != fixed %g",
						opt, workers, j, fres.MinP[j], wantMinP[j])
				}
			}
			sameOutcome(t, "FWER", AdaptivePermFWER(fres, rules, alpha), PermFWER(fixed, rules, alpha))

			dres := mkAdaptive(permute.AdaptFDR)
			wantLE := fixed.CountLE()
			for i := range wantLE {
				if dres.PoolLE[i] != wantLE[i] {
					t.Fatalf("opt=%v workers=%d rule %d: adaptive PoolLE %d != fixed CountLE %d",
						opt, workers, i, dres.PoolLE[i], wantLE[i])
				}
			}
			if want := int64(maxPerms) * int64(len(rules)); dres.TotalSamples != want {
				t.Fatalf("opt=%v: TotalSamples %d != %d", opt, dres.TotalSamples, want)
			}
			sameOutcome(t, "FDR", AdaptivePermFDR(dres, rules, alpha), PermFDR(fixed, rules, alpha))
		}
	}
}

// TestAdaptiveMatchesFixedSignificantSet is the property test of the
// retirement prongs: with retirement ON, the adaptive and fixed runs must
// agree on the significant SET (not just the p-value ordering) across
// randomized synthetic datasets, seeds and worker counts — while
// actually retiring rules, or the test would be vacuous. The permute
// package's variant tests check that the element walk retires the same
// rules as the blocked kernel.
func TestAdaptiveMatchesFixedSignificantSet(t *testing.T) {
	const maxPerms = 400
	const alpha = 0.05
	type cell struct {
		dataSeed uint64
		permSeed uint64
	}
	cells := []cell{{5, 101}, {11, 7}, {31, 42}}
	totalRetired := 0
	for _, c := range cells {
		tree, rules := adaptiveCase(t, c.dataSeed, 400, 10, 25, true)
		for _, workers := range []int{1, 4} {
			for _, fdr := range []bool{false, true} {
				fixed, err := permute.NewEngine(tree, rules, permute.Config{
					NumPerms: maxPerms, Seed: c.permSeed, Workers: workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				adaptive, err := permute.NewEngine(tree, rules, permute.Config{
					Seed: c.permSeed, Workers: workers,
					Adaptive: permute.Adaptive{MinPerms: 50, MaxPerms: maxPerms},
				})
				if err != nil {
					t.Fatal(err)
				}
				mode := permute.AdaptFWER
				if fdr {
					mode = permute.AdaptFDR
				}
				res, err := adaptive.RunAdaptive(mode, alpha)
				if err != nil {
					t.Fatal(err)
				}
				totalRetired += res.RulesRetired
				var got, want *Outcome
				if fdr {
					got, want = AdaptivePermFDR(res, rules, alpha), PermFDR(fixed, rules, alpha)
				} else {
					got, want = AdaptivePermFWER(res, rules, alpha), PermFWER(fixed, rules, alpha)
				}
				if len(got.Significant) != len(want.Significant) {
					t.Fatalf("seed=%d/%d workers=%d mode=%v: adaptive %d significant != fixed %d",
						c.dataSeed, c.permSeed, workers, mode, len(got.Significant), len(want.Significant))
				}
				for i := range got.Significant {
					if got.Significant[i] != want.Significant[i] {
						t.Fatalf("seed=%d/%d mode=%v: significant sets differ at %d: %d != %d",
							c.dataSeed, c.permSeed, mode, i, got.Significant[i], want.Significant[i])
					}
				}
			}
		}
	}
	if totalRetired == 0 {
		t.Fatal("no rule ever retired: the property test exercised nothing")
	}
}

// TestAdaptiveRetirementSavesWork asserts the cost story: on a dataset
// where most rules are nowhere near significance, retirement must shrink
// the evaluation count by a large factor.
func TestAdaptiveRetirementSavesWork(t *testing.T) {
	tree, rules := adaptiveCase(t, 5, 400, 10, 25, true)
	e, err := permute.NewEngine(tree, rules, permute.Config{
		Seed:     3,
		Adaptive: permute.Adaptive{MinPerms: 50, MaxPerms: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunAdaptive(permute.AdaptFWER, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(1000) * int64(len(rules))
	if res.PermsSaved*2 < total {
		t.Errorf("adaptive saved only %d of %d rule-permutation evaluations", res.PermsSaved, total)
	}
	if res.RulesRetired == 0 {
		t.Error("no rules retired on a mostly-noise dataset")
	}
}

// TestAdaptiveConfigErrors covers the mode's input validation.
func TestAdaptiveConfigErrors(t *testing.T) {
	tree, rules := adaptiveCase(t, 51, 100, 4, 10, true)
	fixed, err := permute.NewEngine(tree, rules, permute.Config{NumPerms: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fixed.RunAdaptive(permute.AdaptFWER, 0.05); err == nil {
		t.Error("RunAdaptive accepted a fixed-mode engine")
	}
	e, err := permute.NewEngine(tree, rules, permute.Config{
		Seed: 1, Adaptive: permute.Adaptive{MaxPerms: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunAdaptive(permute.AdaptFWER, 0); err == nil {
		t.Error("RunAdaptive accepted alpha=0")
	}
	if _, err := e.RunAdaptive(permute.AdaptFWER, 1.5); err == nil {
		t.Error("RunAdaptive accepted alpha=1.5")
	}
}

// TestAdaptiveContextCancelled aborts an adaptive run between rounds.
func TestAdaptiveContextCancelled(t *testing.T) {
	tree, rules := adaptiveCase(t, 61, 200, 6, 12, true)
	ctx, cancel := context.WithCancel(context.Background())
	e, err := permute.NewEngine(tree, rules, permute.Config{
		Seed: 9, Ctx: ctx, Workers: 2,
		Adaptive: permute.Adaptive{MinPerms: 8, MaxPerms: 4000, Exceedances: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := e.RunAdaptive(permute.AdaptFWER, 0.05); err != context.Canceled {
		t.Fatalf("RunAdaptive err = %v, want context.Canceled", err)
	}
}

// TestEmpiricalP covers the per-rule empirical p-value helpers.
func TestEmpiricalP(t *testing.T) {
	counts := []int64{5, 0, 100}
	samples := []int64{100, 0, 100}
	ps := EmpiricalP(counts, samples)
	if ps[0] != 0.05 || ps[1] != 1 || ps[2] != 1 {
		t.Errorf("EmpiricalP = %v, want [0.05 1 1]", ps)
	}
	ups := EmpiricalPUpper(counts, samples, 1.96)
	if ups[0] <= ps[0] || ups[0] > 1 {
		t.Errorf("upper bound %g should exceed the point estimate %g", ups[0], ps[0])
	}
	if ups[1] != 1 {
		t.Errorf("zero samples should give the vacuous bound 1, got %g", ups[1])
	}
	// The Wilson upper bound at count 0 must stay informative (strictly
	// between 0 and 1).
	z := EmpiricalPUpper([]int64{0}, []int64{50}, 1.96)
	if z[0] <= 0 || z[0] >= 1 {
		t.Errorf("Wilson upper bound at 0/50 = %g, want within (0,1)", z[0])
	}
}
