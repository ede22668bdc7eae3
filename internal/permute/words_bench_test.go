package permute

import "testing"

// BenchmarkPermute* measure the word-parallel counting path against the
// element walk (the test-only Config.elementWalk) on the Fig 4-style
// synthetic workload, for the two optimisation levels where counting
// dominates: OptNone (full tid-lists everywhere) and OptDiffsets
// (difference-list subtraction).

func benchPermute(b *testing.B, opt OptLevel, elementWalk bool) {
	tree, rules := benchTree(b, opt.WantDiffsets())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := NewEngine(tree, rules, Config{
			NumPerms: 50, Seed: 3, Opt: opt, Workers: 1,
			elementWalk: elementWalk,
		})
		if err != nil {
			b.Fatal(err)
		}
		sinkMinP = e.MinP()
	}
}

func BenchmarkPermuteWordNone(b *testing.B)       { benchPermute(b, OptNone, false) }
func BenchmarkPermuteScalarNone(b *testing.B)     { benchPermute(b, OptNone, true) }
func BenchmarkPermuteWordDiffsets(b *testing.B)   { benchPermute(b, OptDiffsets, false) }
func BenchmarkPermuteScalarDiffsets(b *testing.B) { benchPermute(b, OptDiffsets, true) }
