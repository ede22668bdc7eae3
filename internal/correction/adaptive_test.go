package correction

import (
	"context"
	"fmt"
	"reflect"
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

// TestAdaptiveNoRetireByteIdentical pins the tentpole contract: an
// adaptive run with retirement disabled (Exceedances < 0) is byte-
// identical to a fixed run of the same budget — per-permutation min-p,
// pooled counts and both correction outcomes — at every optimisation
// level and worker count, because every permutation derives its labels
// from (Seed, perm-index) regardless of round boundaries. Two schedules
// run: a multi-round one on an adaptive engine, and the one-round
// schedule Adaptive{N, N, -1} driven over a deferred-label engine's
// ShardSpan — the way core runs every fixed permutation correction.
func TestAdaptiveNoRetireByteIdentical(t *testing.T) {
	const maxPerms = 120
	const alpha = 0.05
	for _, opt := range []permute.OptLevel{permute.OptNone, permute.OptDynamicBuffer, permute.OptDiffsets, permute.OptStaticBuffer} {
		tree, rules := adaptiveCase(t, 5, 300, 8, 20, opt.WantDiffsets())
		ps := make([]float64, len(rules))
		for i := range rules {
			ps[i] = rules[i].P
		}
		for _, workers := range []int{1, 3} {
			fixed, err := permute.NewEngine(tree, rules, permute.Config{
				NumPerms: maxPerms, Seed: 9, Opt: opt, Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			wantMinP := fixed.MinP()
			wantLE := fixed.CountLE()
			wantFWER, wantFDR := PermFWER(fixed, rules, alpha), PermFDR(fixed, rules, alpha)
			for _, sched := range []struct {
				name string
				run  func(mode permute.AdaptiveMode) (*permute.AdaptiveResult, error)
				// oneRound marks the fixed schedule; the other must span
				// several rounds.
				oneRound bool
			}{
				{"multi-round", func(mode permute.AdaptiveMode) (*permute.AdaptiveResult, error) {
					adaptive, err := permute.NewEngine(tree, rules, permute.Config{
						Seed: 9, Opt: opt, Workers: workers,
						Adaptive: permute.Adaptive{MinPerms: 16, MaxPerms: maxPerms, Exceedances: -1},
					})
					if err != nil {
						return nil, err
					}
					return adaptive.RunAdaptive(mode, alpha)
				}, false},
				{"one-round", func(mode permute.AdaptiveMode) (*permute.AdaptiveResult, error) {
					e, err := permute.NewEngine(tree, rules, permute.Config{
						NumPerms: maxPerms, Seed: 9, Opt: opt, Workers: workers, DeferLabels: true,
					})
					if err != nil {
						return nil, err
					}
					one := permute.Adaptive{MinPerms: maxPerms, MaxPerms: maxPerms, Exceedances: -1}
					return permute.DriveAdaptive(ps, one, mode, alpha, e.ShardSpan)
				}, true},
			} {
				label := fmt.Sprintf("opt=%v workers=%d %s", opt, workers, sched.name)
				check := func(mode permute.AdaptiveMode) *permute.AdaptiveResult {
					res, err := sched.run(mode)
					if err != nil {
						t.Fatal(err)
					}
					if res.PermsRun != maxPerms || (res.Rounds == 1) != sched.oneRound || res.Rounds < 1 {
						t.Fatalf("%s: PermsRun=%d Rounds=%d, want the full budget over the schedule's rounds",
							label, res.PermsRun, res.Rounds)
					}
					if res.RulesRetired != 0 || res.PermsSaved != 0 {
						t.Fatalf("%s: retirement disabled but %d retired, %d saved", label, res.RulesRetired, res.PermsSaved)
					}
					if want := int64(maxPerms) * int64(len(rules)); res.TotalSamples != want {
						t.Fatalf("%s: TotalSamples %d != %d", label, res.TotalSamples, want)
					}
					for j := range wantMinP {
						if res.MinP[j] != wantMinP[j] {
							t.Fatalf("%s perm %d: adaptive MinP %g != fixed %g", label, j, res.MinP[j], wantMinP[j])
						}
					}
					return res
				}
				if got := AdaptivePermFWER(check(permute.AdaptFWER), rules, alpha); !reflect.DeepEqual(got, wantFWER) {
					t.Fatalf("%s: FWER outcome %+v != fixed %+v", label, got, wantFWER)
				}

				dres := check(permute.AdaptFDR)
				for i := range wantLE {
					if dres.PoolLE[i] != wantLE[i] {
						t.Fatalf("%s rule %d: adaptive PoolLE %d != fixed CountLE %d", label, i, dres.PoolLE[i], wantLE[i])
					}
				}
				if got := AdaptivePermFDR(dres, rules, alpha); !reflect.DeepEqual(got, wantFDR) {
					t.Fatalf("%s: FDR outcome %+v != fixed %+v", label, got, wantFDR)
				}
			}
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
