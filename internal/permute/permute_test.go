package permute

import (
	"context"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mining"
	"repro/internal/synth"
)

// buildCase mines a synthetic dataset and returns everything a permutation
// test needs.
func buildCase(t *testing.T, seed uint64, n, attrs, minSup int, diffsets bool) (*mining.Tree, []mining.Rule) {
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

// naivePValues recomputes every rule's p-value on every permutation from
// scratch: regenerate the same label shuffles, materialise every node's
// tid-list, count supports, and call Fisher directly. ps[j][ri] is rule
// ri's p-value under permutation j. FisherTwoTailed is bit-identical to
// the engine's buffered lookups, so the engine must match it exactly.
func naivePValues(tree *mining.Tree, rules []mining.Rule, numPerms int, seed uint64) [][]float64 {
	enc := tree.Enc
	hyper := mining.NewHypergeoms(enc)
	shuffled := make([]int32, enc.NumRecords)
	tidsOf := make([][]uint32, len(tree.Nodes))
	for i, node := range tree.Nodes {
		tidsOf[i] = node.MaterializeTids()
	}
	ps := make([][]float64, numPerms)
	for j := range ps {
		shufflePerm(shuffled, enc.Labels, seed, j)
		ps[j] = make([]float64, len(rules))
		for ri := range rules {
			r := &rules[ri]
			k := 0
			for _, t := range tidsOf[r.Node.Index] {
				if shuffled[t] == r.Class {
					k++
				}
			}
			ps[j][ri] = hyper[r.Class].FisherTwoTailed(k, r.Coverage)
		}
	}
	return ps
}

// naiveMinP is the per-permutation minimum of naivePValues.
func naiveMinP(tree *mining.Tree, rules []mining.Rule, numPerms int, seed uint64) []float64 {
	out := make([]float64, numPerms)
	for j, ps := range naivePValues(tree, rules, numPerms, seed) {
		out[j] = 1
		for _, p := range ps {
			out[j] = min(out[j], p)
		}
	}
	return out
}

// naiveCountLE counts, per rule, the pooled naivePValues that are <= the
// rule's original p-value.
func naiveCountLE(tree *mining.Tree, rules []mining.Rule, numPerms int, seed uint64) []int64 {
	out := make([]int64, len(rules))
	for _, ps := range naivePValues(tree, rules, numPerms, seed) {
		for _, p := range ps {
			for ri := range rules {
				if p <= rules[ri].P {
					out[ri]++
				}
			}
		}
	}
	return out
}

func TestEngineMinPMatchesNaiveAllOptLevels(t *testing.T) {
	const numPerms = 25
	const seed = 99
	for _, opt := range []OptLevel{OptNone, OptDynamicBuffer, OptDiffsets, OptStaticBuffer} {
		tree, rules := buildCase(t, 5, 300, 8, 20, opt.WantDiffsets())
		want := naiveMinP(tree, rules, numPerms, seed)
		for _, workers := range []int{1, 4} {
			e, err := NewEngine(tree, rules, Config{
				NumPerms: numPerms, Seed: seed, Opt: opt, Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			got := e.MinP()
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("opt=%v workers=%d perm %d: minP = %g, want %g",
						opt, workers, j, got[j], want[j])
				}
			}
		}
	}
}

func TestEngineCountLEMatchesNaive(t *testing.T) {
	const numPerms = 20
	const seed = 7
	tree, rules := buildCase(t, 11, 250, 7, 15, true)

	want := naiveCountLE(tree, rules, numPerms, seed)

	for _, workers := range []int{1, 3} {
		e, err := NewEngine(tree, rules, Config{
			NumPerms: numPerms, Seed: seed, Opt: OptStaticBuffer, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := e.CountLE()
		for ri := range rules {
			if got[ri] != want[ri] {
				t.Fatalf("workers=%d rule %d: CountLE = %d, want %d", workers, ri, got[ri], want[ri])
			}
		}
	}
}

func TestEngineDeterministicAcrossWorkerCounts(t *testing.T) {
	tree, rules := buildCase(t, 21, 400, 10, 25, true)
	var ref []float64
	for _, workers := range []int{1, 2, 8} {
		e, err := NewEngine(tree, rules, Config{NumPerms: 30, Seed: 3, Opt: OptStaticBuffer, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got := e.MinP()
		if ref == nil {
			ref = got
			continue
		}
		for j := range ref {
			if got[j] != ref[j] {
				t.Fatalf("workers=%d: minP[%d] = %g differs from reference %g", workers, j, got[j], ref[j])
			}
		}
	}
}

func TestEngineMinPInUnitInterval(t *testing.T) {
	tree, rules := buildCase(t, 41, 150, 5, 10, true)
	e, _ := NewEngine(tree, rules, Config{NumPerms: 15, Seed: 1, Opt: OptDiffsets})
	for j, p := range e.MinP() {
		if p < 0 || p > 1 {
			t.Errorf("perm %d: minP = %g outside [0,1]", j, p)
		}
	}
}

func TestEngineRejectsBadConfig(t *testing.T) {
	tree, rules := buildCase(t, 51, 100, 4, 10, true)
	if _, err := NewEngine(tree, rules, Config{NumPerms: 0}); err == nil {
		t.Error("NumPerms=0 accepted")
	}
}

func TestOptLevelStrings(t *testing.T) {
	labels := map[OptLevel]string{
		OptNone:          "no optimization",
		OptDynamicBuffer: "dynamic buf",
		OptDiffsets:      "Diffsets+dynamic buf",
		OptStaticBuffer:  "16M static buf+Diffsets+dynamic buf",
	}
	for lvl, want := range labels {
		if lvl.String() != want {
			t.Errorf("OptLevel(%d).String() = %q, want %q", lvl, lvl.String(), want)
		}
	}
	if !OptDiffsets.WantDiffsets() || OptDynamicBuffer.WantDiffsets() {
		t.Error("WantDiffsets boundaries wrong")
	}
}

func TestEngineContextCancelled(t *testing.T) {
	tree, rules := buildCase(t, 61, 200, 6, 12, true)

	// Already-cancelled context: construction itself aborts.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewEngine(tree, rules, Config{NumPerms: 50, Seed: 9, Opt: OptStaticBuffer, Ctx: ctx, Workers: 2}); err != context.Canceled {
		t.Fatalf("NewEngine err = %v, want context.Canceled", err)
	}

	// Cancellation between construction and the run: Err() reports it.
	ctx2, cancel2 := context.WithCancel(context.Background())
	e, err := NewEngine(tree, rules, Config{NumPerms: 50, Seed: 9, Opt: OptStaticBuffer, Ctx: ctx2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cancel2()
	e.MinP()
	if e.Err() != context.Canceled {
		t.Fatalf("Err() = %v, want context.Canceled", e.Err())
	}
}
