package permute

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/mining"
	"repro/internal/synth"
)

// TestEngineThreeClasses checks the engine against the naive oracle when
// every pattern generates m rules (m > 2 classes, §3).
func TestEngineThreeClasses(t *testing.T) {
	p := synth.PaperDefaults()
	p.Classes = 3
	p.N = 300
	p.Attrs = 7
	p.Seed = 55
	res, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	enc := dataset.Encode(res.Data)
	tree, err := mining.MineClosed(enc, mining.Options{MinSup: 20, StoreDiffsets: true})
	if err != nil {
		t.Fatal(err)
	}
	rules, err := mining.GenerateRules(tree, mining.RuleOptions{Policy: mining.PaperPolicy})
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3*tree.NumPatterns() {
		t.Fatalf("%d rules for %d patterns; want 3 per pattern", len(rules), tree.NumPatterns())
	}

	const numPerms = 15
	const seed = 77
	e, err := NewEngine(tree, rules, Config{NumPerms: numPerms, Seed: seed, Opt: OptStaticBuffer, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, want := e.MinP(), naiveMinP(tree, rules, numPerms, seed)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("perm %d: engine minP %g != naive %g", j, got[j], want[j])
		}
	}
}

// TestEngineOneClass runs the engine on data where every record carries
// the same class. The blocked kernel serves this input too: its striped
// matrix has no class rows and the class-0 remainder is the stored-list
// length. MinP and CountLE must equal the from-scratch oracle at every
// optimisation level and worker count.
func TestEngineOneClass(t *testing.T) {
	p := synth.PaperDefaults()
	p.N = 300
	p.Attrs = 7
	p.Seed = 56
	res, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	schema := *res.Data.Schema
	schema.Class.Values = schema.Class.Values[:1]
	d := &dataset.Dataset{Schema: &schema, Cells: res.Data.Cells, Labels: make([]int32, len(res.Data.Labels))}
	enc := dataset.Encode(d)
	if enc.NumClasses != 1 {
		t.Fatalf("encoded %d classes, want 1", enc.NumClasses)
	}

	const numPerms = 13
	const seed = 4
	for _, opt := range []OptLevel{OptNone, OptDynamicBuffer, OptDiffsets, OptStaticBuffer} {
		tree, err := mining.MineClosed(enc, mining.Options{MinSup: 20, StoreDiffsets: opt.WantDiffsets()})
		if err != nil {
			t.Fatal(err)
		}
		rules, err := mining.GenerateRules(tree, mining.RuleOptions{Policy: mining.PaperPolicy})
		if err != nil {
			t.Fatal(err)
		}
		if len(rules) == 0 {
			t.Fatal("no rules mined")
		}
		wantP := naiveMinP(tree, rules, numPerms, seed)
		wantC := naiveCountLE(tree, rules, numPerms, seed)
		for _, workers := range []int{1, 3} {
			e, err := NewEngine(tree, rules, Config{NumPerms: numPerms, Seed: seed, Opt: opt, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if e.lab.stripes == nil || len(e.lab.stripes) != 0 || e.nw == nil {
				t.Fatalf("opt=%v: one-class engine is not on the blocked kernel", opt)
			}
			gotP, gotC := e.MinP(), e.CountLE()
			for j := range wantP {
				if gotP[j] != wantP[j] {
					t.Fatalf("opt=%v workers=%d perm %d: MinP %g != naive %g", opt, workers, j, gotP[j], wantP[j])
				}
			}
			for ri := range wantC {
				if gotC[ri] != wantC[ri] {
					t.Fatalf("opt=%v workers=%d rule %d: CountLE %d != naive %d", opt, workers, ri, gotC[ri], wantC[ri])
				}
			}
		}
	}
}
