package mining

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/synth"
	"repro/internal/uci"
)

// Ablation: mining with and without Diffset storage. Diffsets trade a
// cheaper permutation phase for slightly different memory traffic during
// mining; these benches isolate the mining side (the permutation side is
// covered in internal/permute). Most of their nodes fall below the
// density cut-off and are mined on sorted tid-lists; BenchmarkMineClosedDense
// is the other side, where every node is a word bitmap.

func benchDataset(b *testing.B, n, attrs int) *dataset.Encoded {
	b.Helper()
	p := synth.PaperDefaults()
	p.N = n
	p.Attrs = attrs
	p.NumRules = 2
	p.MinCvg, p.MaxCvg = n/10, n/5
	p.MinConf, p.MaxConf = 0.7, 0.9
	p.Seed = 9
	res, err := synth.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	return dataset.Encode(res.Data)
}

func BenchmarkMineClosedTidlists(b *testing.B) {
	enc := benchDataset(b, 2000, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree, err := MineClosed(enc, Options{MinSup: 60, StoreDiffsets: false})
		if err != nil {
			b.Fatal(err)
		}
		sinkTree = tree
	}
}

func BenchmarkMineClosedDiffsets(b *testing.B) {
	enc := benchDataset(b, 2000, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree, err := MineClosed(enc, Options{MinSup: 60, StoreDiffsets: true})
		if err != nil {
			b.Fatal(err)
		}
		sinkTree = tree
	}
}

// BenchmarkMineClosedDense mines the hypo stand-in (3163 records) at
// MinSup 600, the shape of a direct-dense run: every node's support is
// above the density cut-off, so the whole tree is mined on word bitmaps.
func BenchmarkMineClosedDense(b *testing.B) {
	d, err := uci.Load("hypo", 1)
	if err != nil {
		b.Fatal(err)
	}
	enc := dataset.Encode(d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree, err := MineClosed(enc, Options{MinSup: 600, StoreDiffsets: true})
		if err != nil {
			b.Fatal(err)
		}
		sinkTree = tree
	}
}

func BenchmarkGenerateRules(b *testing.B) {
	enc := benchDataset(b, 2000, 20)
	tree, err := MineClosed(enc, Options{MinSup: 60, StoreDiffsets: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rules, err := GenerateRules(tree, RuleOptions{Policy: PaperPolicy})
		if err != nil {
			b.Fatal(err)
		}
		sinkRules = rules
	}
}

func BenchmarkMaterializeTids(b *testing.B) {
	enc := benchDataset(b, 2000, 20)
	tree, err := MineClosed(enc, Options{MinSup: 60, StoreDiffsets: true})
	if err != nil {
		b.Fatal(err)
	}
	nodes := tree.Nodes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkTids = nodes[i%len(nodes)].MaterializeTids()
	}
}

var (
	sinkTree  *Tree
	sinkRules []Rule
	sinkTids  []uint32
)
