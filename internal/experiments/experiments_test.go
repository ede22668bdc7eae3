package experiments

import (
	"math"
	"strings"
	"testing"
)

// tiny returns the smallest useful scale for experiment smoke tests.
func tiny() Options {
	return Options{Datasets: 2, Perms: 20, Seed: 1}
}

func TestFig1Shape(t *testing.T) {
	f := Fig1()
	if len(f.Series) != 6 {
		t.Fatalf("%d series, want 6 coverages", len(f.Series))
	}
	for _, s := range f.Series {
		// p-values decrease (weakly) as confidence grows.
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] > s.Y[i-1]+1e-12 {
				t.Fatalf("%s: p increased from %g to %g at x=%g", s.Label, s.Y[i-1], s.Y[i], s.X[i])
			}
		}
	}
	// Larger coverage gives (weakly) smaller p at high confidence.
	last := func(s Series) float64 { return s.Y[len(s.Y)-1] }
	for i := 1; i < len(f.Series); i++ {
		if last(f.Series[i]) > last(f.Series[i-1])*1.0001 {
			t.Errorf("coverage order violated at conf=1: %s=%g vs %s=%g",
				f.Series[i].Label, last(f.Series[i]), f.Series[i-1].Label, last(f.Series[i-1]))
		}
	}
	if !strings.Contains(f.Render(), "supp(X)=100") {
		t.Error("render missing series")
	}
}

// Figure 2's published table, to four significant digits.
func TestFig2MatchesPaper(t *testing.T) {
	tab := Fig2()
	wantP := []string{"0.002167183", "0.0498452", "0.3359133", "1", "0.6424149", "0.1571207", "0.01408669"}
	wantOrder := []string{"0", "2", "4", "6", "5", "3", "1"}
	if len(tab.Rows) != 7 {
		t.Fatalf("%d rows, want 7", len(tab.Rows))
	}
	for k, row := range tab.Rows {
		if row[2] != wantP[k] {
			t.Errorf("k=%d: p = %s, want %s", k, row[2], wantP[k])
		}
		if row[3] != wantOrder[k] {
			t.Errorf("k=%d: sum-up order = %s, want %s", k, row[3], wantOrder[k])
		}
	}
}

func TestFig9Shape(t *testing.T) {
	f := Fig9()
	if len(f.Series) != 3 {
		t.Fatalf("%d series, want 3", len(f.Series))
	}
	// At every confidence, the N=1000/cvg=200 p-value is >= the
	// N=2000/cvg=400 p-value (halving the data weakens significance).
	full := f.Series[1]
	halved := f.Series[2]
	for i := range full.Y {
		if halved.Y[i] < full.Y[i]*(1-1e-9) {
			t.Errorf("halved dataset more significant at conf=%g: %g < %g",
				full.X[i], halved.Y[i], full.Y[i])
		}
	}
}

func TestFig3Shape(t *testing.T) {
	f, err := Fig3(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 3 {
		t.Fatalf("%d series, want 3", len(f.Series))
	}
	random, c200, c400 := f.Series[0], f.Series[1], f.Series[2]
	// Random data has (essentially) no rules below 1e-6.
	for i, x := range random.X {
		if x <= 1e-6 && random.Y[i] > 2 {
			t.Errorf("random dataset has %g rules at p <= %g", random.Y[i], x)
		}
	}
	// The embedded-rule datasets dominate random at low p, and coverage
	// 400 dominates coverage 200.
	for i, x := range c400.X {
		if x > 1e-3 {
			continue
		}
		if c400.Y[i] < c200.Y[i] {
			t.Errorf("at p <= %g: cvg400 count %g < cvg200 count %g", x, c400.Y[i], c200.Y[i])
		}
		if c200.Y[i] < random.Y[i] {
			t.Errorf("at p <= %g: cvg200 count %g < random count %g", x, c200.Y[i], random.Y[i])
		}
	}
}

func TestFig6Controls(t *testing.T) {
	o := tiny()
	figs, err := Fig6(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 3 {
		t.Fatalf("%d panels, want 3", len(figs))
	}
	fwer := figs[0]
	// "No correction" must have FWER 1 at the lowest min_sup; the
	// corrected methods must all stay below it there.
	var none, maxCorrected float64
	for _, s := range fwer.Series {
		if s.Label == MNone {
			none = s.Y[0]
		} else if s.Y[0] > maxCorrected {
			maxCorrected = s.Y[0]
		}
	}
	if none < 0.99 {
		t.Errorf("no-correction FWER at lowest min_sup = %g, want 1", none)
	}
	if maxCorrected > none {
		t.Errorf("a corrected method has FWER %g above no-correction %g", maxCorrected, none)
	}
	// Rules tested decrease with min_sup.
	tested := figs[1].Series[0]
	for i := 1; i < len(tested.Y); i++ {
		if tested.Y[i] > tested.Y[i-1] {
			t.Errorf("rules tested increased with min_sup: %v", tested.Y)
		}
	}
}

// TestTieHeavyNullControlsFWER runs the Monte Carlo battery on the
// tie-heavy null (tieNullParams, MinSup 8): permutation FWER's estimated
// FWER must stay at or below α. Taking the ⌊αN⌋-th smallest min-p even
// when it ties the next one put this estimate at 0.083; the tie-exact
// cut-off gives 0.013.
func TestTieHeavyNullControlsFWER(t *testing.T) {
	const alpha = 0.05
	res, err := runBattery(batteryConfig{
		params:      tieNullParams(),
		minSupWhole: 8,
		alpha:       alpha,
		datasets:    300,
		perms:       100,
		seed:        1,
		workers:     2,
		methods:     []string{MPermFWER},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.testedWhole < 5 {
		t.Fatalf("only %.1f rules tested per dataset; the null is too thin to mean anything", res.testedWhole)
	}
	got := res.byMethod[MPermFWER].FWER
	if got > alpha {
		t.Errorf("permutation FWER on the tie-heavy null = %.3f over 300 datasets, want <= %g", got, alpha)
	}
}

func TestFig8PowerMonotone(t *testing.T) {
	o := tiny()
	o.Datasets = 3
	figs, err := Fig8(o)
	if err != nil {
		t.Fatal(err)
	}
	power := figs[0]
	// "No correction" detects the embedded rule everywhere (power 1).
	for _, s := range power.Series {
		if s.Label != MNone {
			continue
		}
		for i, y := range s.Y {
			if y < 0.99 {
				t.Errorf("no-correction power %g at conf=%g, want 1", y, s.X[i])
			}
		}
	}
	// Power at the highest confidence >= power at the lowest, per method.
	for _, s := range power.Series {
		if s.Y[len(s.Y)-1]+1e-9 < s.Y[0] {
			t.Errorf("%s: power decreased from %g to %g as confidence rose",
				s.Label, s.Y[0], s.Y[len(s.Y)-1])
		}
	}
}

func TestTable4Consistent(t *testing.T) {
	o := tiny()
	tab, err := Table4(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 || len(tab.Headers) != 5 {
		t.Fatalf("table shape %dx%d, want 9x5", len(tab.Rows), len(tab.Headers))
	}
	// High-p bands must be empty at high confidence: a german-scale rule
	// with confidence >= 0.9 and coverage >= 60 cannot have p > 0.05.
	top := tab.Rows[0] // (0.05,1]
	for c := 2; c < 5; c++ {
		if top[c] != "0" {
			t.Errorf("(0.05,1] × %s = %s, want 0", tab.Headers[c], top[c])
		}
	}
	if !strings.Contains(tab.Title, "cutoff") {
		t.Error("title missing cutoffs")
	}
}

func TestRenderFigure(t *testing.T) {
	f := &Figure{
		ID: "x", Title: "t", XLabel: "xs", YLabel: "ys",
		Series: []Series{{Label: "a", X: []float64{1, 2}, Y: []float64{3, 4}}},
	}
	out := f.Render()
	for _, want := range []string{"# x — t", "xs", "a", "3", "4"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestOptionsScaling(t *testing.T) {
	var o Options
	if o.datasets() != 10 || o.perms() != 100 {
		t.Errorf("scaled defaults = %d/%d, want 10/100", o.datasets(), o.perms())
	}
	o.Full = true
	if o.datasets() != 100 || o.perms() != 1000 {
		t.Errorf("full defaults = %d/%d, want 100/1000", o.datasets(), o.perms())
	}
	o.Datasets, o.Perms = 3, 7
	if o.datasets() != 3 || o.perms() != 7 {
		t.Error("overrides ignored")
	}
	if runtimePerms(Options{Full: true, Perms: 500}) != 500 {
		t.Error("full runtime perms should not be capped")
	}
	if runtimePerms(Options{Perms: 500}) != 20 {
		t.Error("scaled runtime perms should cap at 20")
	}
	if math.IsNaN(float64(o.workers())) || o.workers() < 1 {
		t.Error("workers must be >= 1")
	}
}
