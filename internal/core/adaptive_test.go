package core

import (
	"context"
	"testing"

	"repro/internal/permute"
	"repro/internal/synth"
)

// adaptiveDataset generates a mid-size synthetic dataset with one planted
// rule, so adaptive runs have both survivors and plenty of retirable
// noise.
func adaptiveDataset(t *testing.T) *synth.Result {
	t.Helper()
	p := synth.PaperDefaults()
	p.N = 500
	p.Attrs = 10
	p.NumRules = 1
	p.MinCvg, p.MaxCvg = 100, 120
	p.MinConf, p.MaxConf = 0.85, 0.9
	p.Seed = 42
	res, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAdaptiveEndToEnd drives Config.Adaptive through the whole pipeline
// on a signal-heavy dataset (~130 co-significant rules — the hardest
// regime for early stopping) and asserts the mode's documented contract:
//
//   - FDR: the pooled empirical estimator with per-rule sample counts
//     reproduces the fixed run's significant set exactly.
//   - FWER: retirement can only move the min-p cut-off UP (retired rules'
//     permutation p-values stop feeding the null), so the fixed run's
//     significant set is always contained in the adaptive one and any
//     extra admission lies in the (fixed cutoff, adaptive cutoff] drift
//     window. DESIGN.md §7 derives both properties.
func TestAdaptiveEndToEnd(t *testing.T) {
	res := adaptiveDataset(t)
	sess := NewSession(res.Data)
	for _, control := range []Control{ControlFWER, ControlFDR} {
		fixed, err := sess.Run(Config{
			MinSup: 30, Method: MethodPermutation, Control: control,
			Permutations: 300, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		if fixed.Perm != nil {
			t.Fatalf("%v: fixed run unexpectedly carries adaptive telemetry", control)
		}
		adaptive, err := sess.Run(Config{
			MinSup: 30, Method: MethodPermutation, Control: control,
			Seed:     9,
			Adaptive: permute.Adaptive{MinPerms: 50, MaxPerms: 300},
		})
		if err != nil {
			t.Fatal(err)
		}
		if adaptive.Perm == nil {
			t.Fatalf("%v: adaptive run has no telemetry", control)
		}
		if adaptive.Perm.MaxPerms != 300 || adaptive.Perm.Rounds < 2 {
			t.Errorf("%v: telemetry %+v, want MaxPerms=300 over several rounds", control, adaptive.Perm)
		}
		if adaptive.Perm.RulesRetired == 0 || adaptive.Perm.PermsSaved == 0 {
			t.Errorf("%v: nothing retired (%+v)", control, adaptive.Perm)
		}
		if control == ControlFDR {
			if len(adaptive.Significant) != len(fixed.Significant) {
				t.Fatalf("FDR: adaptive found %d significant, fixed %d",
					len(adaptive.Significant), len(fixed.Significant))
			}
			for i := range adaptive.Significant {
				if adaptive.Significant[i].P != fixed.Significant[i].P {
					t.Fatalf("FDR: significant rule %d differs", i)
				}
			}
			continue
		}
		// FWER: one-sided containment.
		if adaptive.Cutoff < fixed.Cutoff {
			t.Fatalf("FWER: adaptive cutoff %g below fixed %g — the drift must be one-sided",
				adaptive.Cutoff, fixed.Cutoff)
		}
		if len(adaptive.Significant) < len(fixed.Significant) {
			t.Fatalf("FWER: adaptive lost significant rules (%d < %d)",
				len(adaptive.Significant), len(fixed.Significant))
		}
		adaptiveSet := make(map[float64]bool, len(adaptive.Significant))
		for _, r := range adaptive.Significant {
			adaptiveSet[r.P] = true
		}
		for _, r := range fixed.Significant {
			if !adaptiveSet[r.P] {
				t.Fatalf("FWER: fixed-significant rule p=%g missing from the adaptive set", r.P)
			}
		}
		for _, r := range adaptive.Significant {
			if r.P > fixed.Cutoff && r.P > adaptive.Cutoff {
				t.Fatalf("FWER: extra admission p=%g outside the drift window (%g, %g]",
					r.P, fixed.Cutoff, adaptive.Cutoff)
			}
		}
	}
	st := sess.Stats()
	if st.AdaptiveRuns != 2 {
		t.Errorf("AdaptiveRuns = %d, want 2", st.AdaptiveRuns)
	}
	if st.PermsSaved <= 0 {
		t.Errorf("PermsSaved = %d, want > 0", st.PermsSaved)
	}
	// One dataset, one mining parameterisation: everything shares a single
	// mine + score despite the adaptive/fixed split.
	if st.Mines != 1 || st.Scores != 1 {
		t.Errorf("Mines=%d Scores=%d, want 1/1 (adaptive must not fork the cached stages)", st.Mines, st.Scores)
	}
}

// TestAdaptiveBatchMatchesSoloRuns pins the engine-sharing keys: a batch
// mixing fixed and adaptive permutation configs (including a duplicated
// adaptive cell and a different alpha) must reproduce each config's solo
// run byte-for-byte — adaptive engines may only be shared when control
// and alpha agree, because the retirement rule consumes both.
func TestAdaptiveBatchMatchesSoloRuns(t *testing.T) {
	res := adaptiveDataset(t)
	ad := permute.Adaptive{MinPerms: 50, MaxPerms: 200}
	base := Config{MinSup: 30, Method: MethodPermutation, Seed: 3}
	mk := func(control Control, alpha float64, adaptive bool) Config {
		cfg := base
		cfg.Control = control
		cfg.Alpha = alpha
		if adaptive {
			cfg.Adaptive = ad
		}
		return cfg
	}
	cfgs := []Config{
		mk(ControlFWER, 0.05, false),
		mk(ControlFWER, 0.05, true),
		mk(ControlFWER, 0.05, true), // duplicate: shares the adaptive engine
		mk(ControlFWER, 0.01, true), // different alpha: must NOT share
		mk(ControlFDR, 0.05, true),  // different control: must NOT share
	}
	batchSess := NewSession(res.Data)
	results, err := batchSess.RunBatch(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		solo, err := NewSession(res.Data).Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, want := results[i], solo
		if got.Cutoff != want.Cutoff || len(got.Significant) != len(want.Significant) {
			t.Fatalf("config %d: batch (cutoff %g, %d sig) != solo (cutoff %g, %d sig)",
				i, got.Cutoff, len(got.Significant), want.Cutoff, len(want.Significant))
		}
		for j := range got.Significant {
			if got.Significant[j].P != want.Significant[j].P {
				t.Fatalf("config %d: significant rule %d differs between batch and solo", i, j)
			}
		}
	}
	// Three distinct adaptive groups (0.05-FWER shared by two configs,
	// 0.01-FWER, 0.05-FDR) → three engine executions.
	if st := batchSess.Stats(); st.AdaptiveRuns != 3 {
		t.Errorf("batch AdaptiveRuns = %d, want 3 (duplicate configs must share one adaptive engine)", st.AdaptiveRuns)
	}
}

// TestAdaptiveNormalization covers the config defaulting path.
func TestAdaptiveNormalization(t *testing.T) {
	a := permute.Adaptive{MaxPerms: 40}.Normalized()
	if a.MinPerms != 40 {
		t.Errorf("MinPerms = %d, want clamped to MaxPerms=40", a.MinPerms)
	}
	if a.Exceedances != permute.DefaultExceedances {
		t.Errorf("Exceedances = %d, want default %d", a.Exceedances, permute.DefaultExceedances)
	}
	b := permute.Adaptive{MaxPerms: 1000}.Normalized()
	if b.MinPerms != permute.DefaultMinPerms {
		t.Errorf("MinPerms = %d, want default %d", b.MinPerms, permute.DefaultMinPerms)
	}
	if z := (permute.Adaptive{}).Normalized(); z.Enabled() || z.MinPerms != 0 {
		t.Errorf("zero Adaptive should stay zero, got %+v", z)
	}
}

// TestPermutationRuleFreeNull pins the null of a run that tests no rule:
// every permutation's minimum over the empty rule set is 1, so all N
// min-p values tie and none has at most ⌊αN⌋ values at or below it. The
// FWER cut-off is -1 (nothing can be significant) for a fixed run and for
// a retirement-disabled adaptive run of the same budget alike — the
// one-round and multi-round schedules of one driver must not disagree on
// the degenerate input either.
func TestPermutationRuleFreeNull(t *testing.T) {
	sess := NewSession(adaptiveDataset(t).Data)
	for _, cfg := range []Config{
		{Permutations: 200},
		{Adaptive: permute.Adaptive{MinPerms: 50, MaxPerms: 200, Exceedances: -1}},
	} {
		cfg.MinSup, cfg.Method, cfg.Seed = 100000, MethodPermutation, 3
		res, err := sess.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumTested != 0 || res.Cutoff != -1 {
			t.Errorf("adaptive=%v: %d tested, cutoff %g; want 0 tested under the all-ones null cutoff -1",
				cfg.Adaptive.Enabled(), res.NumTested, res.Cutoff)
		}
	}
}
