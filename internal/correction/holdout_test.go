package correction

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mining"
	"repro/internal/stats"
)

// checkAgainstRowScan re-derives a holdout's candidates by the reference
// path — mine and score the exploratory half, keep p <= Alpha, then count
// each candidate on the evaluation half with a ContainsPattern row scan
// and a per-rule FisherTwoTailed p-value — and fails unless res matches
// it exactly. It returns how many candidates have evaluation coverage 0.
func checkAgainstRowScan(t *testing.T, explore, eval *dataset.Dataset, cfg HoldoutConfig, res *HoldoutResult) (zeroCvg int) {
	t.Helper()
	enc := dataset.Encode(explore)
	tree, err := mining.MineClosed(enc, mining.Options{MinSup: cfg.MinSupExplore, StoreDiffsets: true, MaxLen: cfg.MaxLen})
	if err != nil {
		t.Fatal(err)
	}
	rules, err := mining.GenerateRules(tree, mining.RuleOptions{Policy: cfg.Policy, Class: cfg.Class})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumExploreTested != len(rules) {
		t.Fatalf("NumExploreTested = %d, want %d", res.NumExploreTested, len(rules))
	}
	counts := eval.ClassCounts()
	hyper := make([]*stats.Hypergeom, len(counts))
	for c := range hyper {
		hyper[c] = stats.NewHypergeom(eval.NumRecords(), counts[c], nil)
	}
	j := 0
	for i := range rules {
		r := &rules[i]
		if r.P > cfg.Alpha {
			continue
		}
		if j >= len(res.Candidates) {
			t.Fatalf("%d candidates, but more explore rules pass p <= %g", len(res.Candidates), cfg.Alpha)
		}
		got := res.Candidates[j]
		j++
		attrs, vals := patternOf(enc.Enc, r.Node.Closure)
		want := HoldoutRule{
			Attrs: attrs, Vals: vals, Class: r.Class,
			ExploreCvg: r.Coverage, ExploreSupp: r.Support, ExploreP: r.P,
			EvalP: 1,
		}
		for rec := 0; rec < eval.NumRecords(); rec++ {
			if eval.ContainsPattern(rec, attrs, vals) {
				want.EvalCvg++
				if eval.Labels[rec] == r.Class {
					want.EvalSupp++
				}
			}
		}
		if want.EvalCvg > 0 {
			want.EvalConf = float64(want.EvalSupp) / float64(want.EvalCvg)
			want.EvalP = hyper[r.Class].FisherTwoTailed(want.EvalSupp, want.EvalCvg)
		} else {
			zeroCvg++
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("candidate %d:\n got %+v\nwant %+v (row scan)", j-1, got, want)
		}
	}
	if j != len(res.Candidates) {
		t.Fatalf("%d candidates, want %d", len(res.Candidates), j)
	}
	return zeroCvg
}

// testSchema returns a schema of attrs attributes with vals values each
// and classes class labels.
func testSchema(attrs, vals, classes int) *dataset.Schema {
	s := &dataset.Schema{Class: dataset.Attribute{Name: "class"}}
	for a := 0; a < attrs; a++ {
		attr := dataset.Attribute{Name: fmt.Sprintf("A%d", a)}
		for v := 0; v < vals; v++ {
			attr.Values = append(attr.Values, fmt.Sprintf("v%d", v))
		}
		s.Attrs = append(s.Attrs, attr)
	}
	for c := 0; c < classes; c++ {
		s.Class.Values = append(s.Class.Values, fmt.Sprintf("c%d", c))
	}
	return s
}

// exploreOnlyHalves builds a random dataset over attrs attributes and
// returns its two halves. Cells are missing (-1) with probability missing.
// Attribute 0 has one extra value that only the first half carries, so
// every pattern using it has evaluation coverage 0.
func exploreOnlyHalves(seed uint64, n, attrs, vals, classes int, missing float64) (explore, eval *dataset.Dataset) {
	rng := rand.New(rand.NewPCG(seed, 3))
	s := testSchema(attrs, vals, classes)
	s.Attrs[0].Values = append(s.Attrs[0].Values, "explore-only")
	d := dataset.New(s, n)
	for r := 0; r < n; r++ {
		cells := make([]int32, attrs)
		for a := range cells {
			cells[a] = int32(rng.IntN(vals))
			if rng.Float64() < missing {
				cells[a] = -1
			}
		}
		if r < n/2 && rng.IntN(3) == 0 {
			cells[0] = int32(vals)
		}
		d.Append(cells, int32(rng.IntN(classes)))
	}
	return d.SplitHalves()
}

// TestHoldoutEvalMatchesRowScan checks the holdout's bitmap evaluation
// against the row-scan reference on missing cells, three classes, the
// FixedClass policy, and candidates the evaluation half never covers
// (which keep EvalP = 1 and EvalConf = 0).
func TestHoldoutEvalMatchesRowScan(t *testing.T) {
	for _, tc := range []struct {
		name    string
		classes int
		missing float64
		cfg     HoldoutConfig
	}{
		{"two classes, missing cells", 2, 0.25, HoldoutConfig{MinSupExplore: 4, Alpha: 1, Policy: mining.PaperPolicy}},
		{"two classes, all classes, filtered", 2, 0.1, HoldoutConfig{MinSupExplore: 3, Alpha: 0.3, Policy: mining.AllClasses}},
		{"three classes", 3, 0.1, HoldoutConfig{MinSupExplore: 4, Alpha: 1, Policy: mining.PaperPolicy}},
		{"three classes, fixed class", 3, 0.1, HoldoutConfig{MinSupExplore: 4, Alpha: 1, Policy: mining.FixedClass, Class: 2}},
		{"three classes, fixed class, short patterns", 3, 0.3, HoldoutConfig{MinSupExplore: 2, Alpha: 1, Policy: mining.FixedClass, Class: 1, MaxLen: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			explore, eval := exploreOnlyHalves(uint64(len(tc.name)), 300, 5, 3, tc.classes, tc.missing)
			res, err := Holdout(explore, eval, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Candidates) == 0 {
				t.Fatal("no candidates")
			}
			if zero := checkAgainstRowScan(t, explore, eval, tc.cfg, res); zero == 0 {
				t.Error("no candidate with evaluation coverage 0; the case is not exercised")
			}
		})
	}
}

// holdoutFromBytes decodes a small dataset for FuzzHoldoutEval and its
// halves. The first four bytes pick the attribute count (1–4), values per
// attribute (1–3), class count (2–3) and rule class policy; every record
// then takes one byte per cell — b % (vals+1) - 1, so -1 (missing) is as
// likely as any value — and one class byte. Records past 64 are dropped.
func holdoutFromBytes(b []byte) (explore, eval *dataset.Dataset, cfg HoldoutConfig, ok bool) {
	if len(b) < 4 {
		return nil, nil, cfg, false
	}
	attrs, vals, classes := 1+int(b[0]%4), 1+int(b[1]%3), 2+int(b[2]%2)
	cfg = HoldoutConfig{
		MinSupExplore: 1,
		Alpha:         1,
		Policy:        mining.RuleClassPolicy(b[3] % 3),
		Class:         int32(b[3]/3) % int32(classes),
		Workers:       1,
	}
	b = b[4:]
	n := min(len(b)/(attrs+1), 64)
	if n < 2 {
		return nil, nil, cfg, false
	}
	d := dataset.New(testSchema(attrs, vals, classes), n)
	for r := 0; r < n; r++ {
		rec := b[r*(attrs+1) : (r+1)*(attrs+1)]
		cells := make([]int32, attrs)
		for a := range cells {
			cells[a] = int32(rec[a]%byte(vals+1)) - 1
		}
		d.Append(cells, int32(rec[attrs]%byte(classes)))
	}
	explore, eval = d.SplitHalves()
	return explore, eval, cfg, true
}

// FuzzHoldoutEval checks the holdout's bitmap evaluation against the
// row-scan reference on small fuzzed datasets with missing cells.
func FuzzHoldoutEval(f *testing.F) {
	f.Add([]byte{1, 1, 0, 0, 0, 1, 0, 1, 1, 1, 2, 0, 0, 2, 1, 1, 0, 0, 0, 1, 1, 1, 2, 0})
	f.Add([]byte{3, 2, 1, 5, 0, 1, 2, 3, 0, 1, 2, 3, 3, 2, 1, 0, 1, 1, 1, 1, 2, 2, 2, 2, 0, 0, 0, 0, 3, 3, 3, 3, 1})
	f.Add([]byte{2, 0, 1, 4, 1, 1, 1, 0, 1, 1, 1, 1, 1, 0, 0, 2, 1, 1, 1})
	f.Fuzz(func(t *testing.T, b []byte) {
		explore, eval, cfg, ok := holdoutFromBytes(b)
		if !ok {
			return
		}
		res, err := Holdout(explore, eval, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstRowScan(t, explore, eval, cfg, res)
	})
}
