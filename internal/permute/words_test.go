package permute

import (
	"testing"
)

// countVariants are the two counting paths: the blocked striped kernel
// (the engine's only production path) and the element walk it is checked
// against (the test-only Config.elementWalk). Every test asserting
// byte-identity quantifies over both.
var countVariants = []struct {
	name        string
	elementWalk bool
}{
	{"blocked", false},
	{"scalar", true},
}

// TestEngineWordVsScalarByteIdentical pins the kernel's guarantee: the
// blocked word-parallel kernel and the element walk produce exactly the
// same results — not approximately — at every optimisation level and
// worker count, for both the FWER (MinP) and FDR (CountLE) outputs.
func TestEngineWordVsScalarByteIdentical(t *testing.T) {
	for _, opt := range []OptLevel{OptNone, OptDynamicBuffer, OptDiffsets, OptStaticBuffer} {
		// 300 records: a universe that is not a multiple of 64.
		tree, rules := buildCase(t, 5, 300, 8, 20, opt.WantDiffsets())
		for _, workers := range []int{1, 3} {
			var refP []float64
			var refC []int64
			for _, v := range countVariants {
				e, err := NewEngine(tree, rules, Config{
					NumPerms: 40, Seed: 11, Opt: opt, Workers: workers,
					elementWalk: v.elementWalk,
				})
				if err != nil {
					t.Fatal(err)
				}
				if v.elementWalk {
					if e.lab.stripes != nil || e.lab.permLabels == nil || e.nw != nil {
						t.Fatalf("opt=%v: scalar engine still carries word state", opt)
					}
				} else if e.lab.stripes == nil || e.lab.permLabels != nil || e.nw == nil {
					t.Fatalf("opt=%v %s: word engine lacks the striped matrix", opt, v.name)
				}
				gotP, gotC := e.MinP(), e.CountLE()
				if refP == nil {
					refP, refC = gotP, gotC
					continue
				}
				for j := range refP {
					if gotP[j] != refP[j] {
						t.Fatalf("opt=%v workers=%d %s perm %d: MinP %g != blocked %g",
							opt, workers, v.name, j, gotP[j], refP[j])
					}
				}
				for i := range refC {
					if gotC[i] != refC[i] {
						t.Fatalf("opt=%v workers=%d %s rule %d: CountLE %d != blocked %d",
							opt, workers, v.name, i, gotC[i], refC[i])
					}
				}
			}
		}
	}
}

// TestEngineAdaptiveVariantsByteIdentical extends the byte-identity
// guarantee to adaptive runs: both counting paths must retire the
// same rules on the same rounds and report identical statistics.
func TestEngineAdaptiveVariantsByteIdentical(t *testing.T) {
	for _, opt := range []OptLevel{OptNone, OptStaticBuffer} {
		tree, rules := buildCase(t, 5, 300, 8, 20, opt.WantDiffsets())
		for _, workers := range []int{1, 3} {
			var ref *AdaptiveResult
			for _, v := range countVariants {
				e, err := NewEngine(tree, rules, Config{
					Seed: 11, Opt: opt, Workers: workers,
					elementWalk: v.elementWalk,
					Adaptive:    Adaptive{MinPerms: 16, MaxPerms: 96},
				})
				if err != nil {
					t.Fatal(err)
				}
				got, err := e.RunAdaptive(AdaptFDR, 0.05)
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = got
					continue
				}
				if got.PermsRun != ref.PermsRun || got.Rounds != ref.Rounds ||
					got.RulesRetired != ref.RulesRetired || got.TotalSamples != ref.TotalSamples {
					t.Fatalf("opt=%v workers=%d %s: run shape %+v != blocked %+v",
						opt, workers, v.name, got, ref)
				}
				for j := range ref.MinP {
					if got.MinP[j] != ref.MinP[j] {
						t.Fatalf("opt=%v workers=%d %s perm %d: adaptive MinP %g != blocked %g",
							opt, workers, v.name, j, got.MinP[j], ref.MinP[j])
					}
				}
				for i := range ref.PoolLE {
					if got.PoolLE[i] != ref.PoolLE[i] || got.MinPLE[i] != ref.MinPLE[i] ||
						got.Samples[i] != ref.Samples[i] {
						t.Fatalf("opt=%v workers=%d %s rule %d: adaptive counts diverge",
							opt, workers, v.name, i)
					}
				}
			}
		}
	}
}

// TestEngineWordPathSmallBlocks drives block lengths down to one
// permutation per worker — partial stripe tiles everywhere — where the
// outputs must not care about the counting path.
func TestEngineWordPathSmallBlocks(t *testing.T) {
	tree, rules := buildCase(t, 21, 400, 10, 25, true)
	var ref []float64
	for _, workers := range []int{1, 7} {
		for _, v := range countVariants {
			e, err := NewEngine(tree, rules, Config{
				NumPerms: 7, Seed: 2, Opt: OptDiffsets, Workers: workers,
				elementWalk: v.elementWalk,
			})
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
					t.Fatalf("workers=%d %s: MinP[%d] = %g, want %g",
						workers, v.name, j, got[j], ref[j])
				}
			}
		}
	}
}
