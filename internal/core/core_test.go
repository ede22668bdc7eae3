package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/permute"
	"repro/internal/synth"
)

// signalDataset returns a dataset with one strong embedded rule.
func signalDataset(t *testing.T, seed uint64) *synth.Result {
	t.Helper()
	p := synth.PaperDefaults()
	p.N = 1000
	p.Attrs = 15
	p.NumRules = 1
	p.MinCvg, p.MaxCvg = 250, 250
	p.MinConf, p.MaxConf = 0.9, 0.9
	p.Seed = seed
	res, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunDirectFWER(t *testing.T) {
	res := signalDataset(t, 1)
	out, err := Run(res.Data, Config{MinSup: 100, Method: MethodDirect, Control: ControlFWER})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumTested == 0 || out.NumPatterns == 0 {
		t.Fatal("nothing mined")
	}
	if len(out.Significant) == 0 {
		t.Fatal("strong embedded rule not found by Bonferroni")
	}
	// Rules are sorted by ascending p.
	for i := 1; i < len(out.Significant); i++ {
		if out.Significant[i].P < out.Significant[i-1].P {
			t.Fatal("significant rules not sorted by p")
		}
	}
	// Every reported rule respects the cutoff.
	for _, r := range out.Significant {
		if r.P > out.Cutoff {
			t.Errorf("rule with p=%g above cutoff %g", r.P, out.Cutoff)
		}
		if r.Coverage < 100 {
			t.Errorf("rule coverage %d below MinSup", r.Coverage)
		}
		if len(r.Items) != len(r.Attrs) || len(r.Attrs) != len(r.Vals) {
			t.Error("rule item slices inconsistent")
		}
	}
}

func TestRunMethodsOrdering(t *testing.T) {
	// On the same dataset: none >= permutation >= direct (discovery
	// counts, FWER control), per §7's power ordering.
	res := signalDataset(t, 2)
	count := func(m Method) int {
		out, err := Run(res.Data, Config{
			MinSup: 100, Method: m, Control: ControlFWER,
			Permutations: 150, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return len(out.Significant)
	}
	none := count(MethodNone)
	direct := count(MethodDirect)
	perm := count(MethodPermutation)
	if none < perm || perm < direct {
		t.Errorf("discovery counts none=%d perm=%d direct=%d violate none >= perm >= direct",
			none, perm, direct)
	}
}

func TestRunFDRAtLeastFWER(t *testing.T) {
	res := signalDataset(t, 3)
	fwer, err := Run(res.Data, Config{MinSup: 100, Method: MethodDirect, Control: ControlFWER})
	if err != nil {
		t.Fatal(err)
	}
	fdr, err := Run(res.Data, Config{MinSup: 100, Method: MethodDirect, Control: ControlFDR})
	if err != nil {
		t.Fatal(err)
	}
	if len(fdr.Significant) < len(fwer.Significant) {
		t.Errorf("BH found %d < Bonferroni %d", len(fdr.Significant), len(fwer.Significant))
	}
}

func TestRunHoldout(t *testing.T) {
	p := synth.PaperDefaults()
	p.N = 1000
	p.Attrs = 12
	p.NumRules = 1
	p.MinCvg, p.MaxCvg = 300, 300
	p.MinConf, p.MaxConf = 0.95, 0.95
	p.Seed = 4
	whole, _, _, err := synth.GeneratePaired(p)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(whole.Data, Config{MinSup: 100, Method: MethodHoldout, Control: ControlFWER})
	if err != nil {
		t.Fatal(err)
	}
	if out.Holdout == nil {
		t.Fatal("holdout detail missing")
	}
	if out.NumTested != out.Holdout.NumExploreTested {
		t.Error("NumTested should echo exploratory test count")
	}
	if len(out.Significant) == 0 {
		t.Error("holdout failed to confirm a strong (conf 0.95, coverage 300) rule")
	}
	// Random holdout also runs.
	out2, err := Run(whole.Data, Config{
		MinSup: 100, Method: MethodHoldout, Control: ControlFDR, HoldoutRandom: true, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out2.Outcome.Method != "HD_BH" {
		t.Errorf("outcome method %q, want HD_BH", out2.Outcome.Method)
	}
}

func TestRunMinSupFrac(t *testing.T) {
	res := signalDataset(t, 6)
	out, err := Run(res.Data, Config{MinSupFrac: 0.1, Method: MethodDirect})
	if err != nil {
		t.Fatal(err)
	}
	if out.MinSup != 100 {
		t.Errorf("MinSup = %d, want 100 (10%% of 1000)", out.MinSup)
	}
}

func TestRunConfigErrors(t *testing.T) {
	res := signalDataset(t, 7)
	if _, err := Run(res.Data, Config{}); err == nil {
		t.Error("missing MinSup accepted")
	}
	if _, err := Run(res.Data, Config{MinSup: 10, Alpha: 2}); err == nil {
		t.Error("Alpha > 1 accepted")
	}
}

func TestRunOptLevels(t *testing.T) {
	// All optimisation levels give identical significant sets.
	res := signalDataset(t, 8)
	var ref []Rule
	for _, opt := range []permute.OptLevel{
		permute.OptNone, permute.OptDynamicBuffer, permute.OptDiffsets, permute.OptStaticBuffer,
	} {
		out, err := Run(res.Data, Config{
			MinSup: 120, Method: MethodPermutation, Control: ControlFWER,
			Permutations: 60, Seed: 9, Opt: opt, OptSet: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = out.Significant
			continue
		}
		if len(out.Significant) != len(ref) {
			t.Fatalf("opt=%v: %d significant, reference %d", opt, len(out.Significant), len(ref))
		}
		for i := range ref {
			if out.Significant[i].P != ref[i].P {
				t.Fatalf("opt=%v: p mismatch at %d", opt, i)
			}
		}
	}
}

// TestPermutationFWERConstantClass is the tie repro of the permutation
// FWER cut-off: 200 records that all have class=yes. Every rule's Fisher
// p-value is 1 on the data and on every permutation, so all min-p values
// tie at 1. No cut-off keeps the share of permutations at or below it
// within α, and permutation FWER must report nothing — as direct and
// holdout do — instead of every rule at cut-off 1.
func TestPermutationFWERConstantClass(t *testing.T) {
	var csv strings.Builder
	csv.WriteString("a,b,c,class\n")
	for r := 0; r < 200; r++ {
		fmt.Fprintf(&csv, "a%d,b%d,c%d,yes\n", r%2, r%3, (r/2)%2)
	}
	tab, err := dataset.ReadTable(strings.NewReader(csv.String()))
	if err != nil {
		t.Fatal(err)
	}
	d, err := tab.ToDataset(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Method: MethodPermutation, Permutations: 50},
		{Method: MethodPermutation, Adaptive: permute.Adaptive{MinPerms: 10, MaxPerms: 50}},
		{Method: MethodDirect},
		{Method: MethodHoldout},
	} {
		cfg.MinSup, cfg.Control, cfg.Seed = 20, ControlFWER, 1
		res, err := Run(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumTested == 0 {
			t.Fatalf("method %v: no rules tested", cfg.Method)
		}
		if len(res.Significant) != 0 {
			t.Errorf("method %v adaptive=%v: %d of %d rules significant at cut-off %g, want none",
				cfg.Method, cfg.Adaptive.Enabled(), len(res.Significant), res.NumTested, res.Cutoff)
		}
		if cfg.Method == MethodPermutation && res.Cutoff >= 0 {
			t.Errorf("adaptive=%v: cut-off %g, want negative (nothing certifiable)", cfg.Adaptive.Enabled(), res.Cutoff)
		}
	}
}
