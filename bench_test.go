// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5). Each benchmark runs its experiment at a reduced but
// shape-preserving scale (a few Monte-Carlo datasets, tens of
// permutations); `go run ./cmd/experiments -fig <id> -full` runs the
// paper-scale version, recording paper-vs-measured numbers for each.
package repro

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/experiments"
)

// benchOptions returns deterministic, benchmark-sized experiment options.
func benchOptions() experiments.Options {
	return experiments.Options{
		Datasets: 2,
		Perms:    20,
		Seed:     1,
	}
}

// sink prevents dead-code elimination of experiment results.
var sink any

func BenchmarkFig01PValueCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = experiments.Fig1()
	}
}

func BenchmarkFig02PValueBuffer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = experiments.Fig2()
	}
}

func BenchmarkFig03PValueDistribution(b *testing.B) {
	o := benchOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := experiments.Fig3(o)
		if err != nil {
			b.Fatal(err)
		}
		sink = f
	}
}

func BenchmarkFig04OptimizationLadder(b *testing.B) {
	o := benchOptions()
	o.Perms = 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := experiments.Fig4(o)
		if err != nil {
			b.Fatal(err)
		}
		sink = f
	}
}

func BenchmarkFig05ApproachRuntime(b *testing.B) {
	o := benchOptions()
	o.Perms = 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := experiments.Fig5(o)
		if err != nil {
			b.Fatal(err)
		}
		sink = f
	}
}

func BenchmarkFig06RandomDatasets(b *testing.B) {
	o := benchOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := experiments.Fig6(o)
		if err != nil {
			b.Fatal(err)
		}
		sink = f
	}
}

func BenchmarkFig07RulesTested(b *testing.B) {
	o := benchOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := experiments.Fig7(o)
		if err != nil {
			b.Fatal(err)
		}
		sink = f
	}
}

func BenchmarkFig08PowerFWER(b *testing.B) {
	o := benchOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := experiments.Fig8(o)
		if err != nil {
			b.Fatal(err)
		}
		sink = f
	}
}

func BenchmarkFig09PValueHalving(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = experiments.Fig9()
	}
}

func BenchmarkFig10PowerFDR(b *testing.B) {
	o := benchOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := experiments.Fig10(o)
		if err != nil {
			b.Fatal(err)
		}
		sink = f
	}
}

func BenchmarkFig11RulesTestedMinSup(b *testing.B) {
	o := benchOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := experiments.Fig11(o)
		if err != nil {
			b.Fatal(err)
		}
		sink = f
	}
}

func BenchmarkFig12MinSupFWER(b *testing.B) {
	o := benchOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := experiments.Fig12(o)
		if err != nil {
			b.Fatal(err)
		}
		sink = f
	}
}

func BenchmarkFig13MinSupFDR(b *testing.B) {
	o := benchOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := experiments.Fig13(o)
		if err != nil {
			b.Fatal(err)
		}
		sink = f
	}
}

func BenchmarkFig14RealFWER(b *testing.B) {
	o := benchOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := experiments.Fig14(o)
		if err != nil {
			b.Fatal(err)
		}
		sink = f
	}
}

func BenchmarkFig15RealPDistribution(b *testing.B) {
	o := benchOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := experiments.Fig15(o)
		if err != nil {
			b.Fatal(err)
		}
		sink = f
	}
}

func BenchmarkFig16RealFDR(b *testing.B) {
	o := benchOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := experiments.Fig16(o)
		if err != nil {
			b.Fatal(err)
		}
		sink = f
	}
}

func BenchmarkTable4ConfidencePValue(b *testing.B) {
	o := benchOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := experiments.Table4(o)
		if err != nil {
			b.Fatal(err)
		}
		sink = t
	}
}

// Parallel engine benchmarks: one synthetic mining / mining+permutation
// workload at Workers = 1, 2 and NumCPU. The worker counts appear as
// sub-benchmark names, so the parallel speedup on your hardware is
//
//	go test -bench 'BenchmarkParallel' -benchtime 5x .
//
// and comparing the workers=1 line against workers=NumCPU. Results are
// byte-identical across worker counts; only the wall clock moves.

// benchWorkerCounts returns {1, 2, NumCPU} deduplicated and sorted.
func benchWorkerCounts() []int {
	counts := []int{1}
	if runtime.NumCPU() > 2 {
		counts = append(counts, 2)
	}
	if runtime.NumCPU() > 1 {
		counts = append(counts, runtime.NumCPU())
	}
	return counts
}

// benchDataset generates the workload once per benchmark: a D5kA25
// synthetic dataset with 10 embedded rules.
func benchDataset(b *testing.B) *Dataset {
	b.Helper()
	p := SyntheticDefaults()
	p.N = 5000
	p.Attrs = 25
	p.NumRules = 10
	p.MinCvg = 200
	p.MaxCvg = 400
	p.MinConf = 0.7
	p.MaxConf = 0.9
	p.Seed = 7
	res, err := Synthetic(p)
	if err != nil {
		b.Fatal(err)
	}
	return res.Data
}

func BenchmarkParallelMine(b *testing.B) {
	d := benchDataset(b)
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := Mine(d, Config{
					MinSup:  120,
					Method:  MethodDirect,
					Control: ControlFWER,
					Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				sink = res
			}
		})
	}
}

func BenchmarkParallelMinePermute(b *testing.B) {
	d := benchDataset(b)
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := Mine(d, Config{
					MinSup:       120,
					Method:       MethodPermutation,
					Control:      ControlFWER,
					Permutations: 60,
					Seed:         1,
					Workers:      workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				sink = res
			}
		})
	}
}

// sessionBatchConfigs returns N configs that differ only in correction
// method/control/alpha — the "many configs, one dataset" shape Sessions
// amortise (one encode + one mine + one score instead of N).
func sessionBatchConfigs() []Config {
	return []Config{
		{MinSup: 120, Method: MethodNone},
		{MinSup: 120, Method: MethodDirect, Control: ControlFWER},
		{MinSup: 120, Method: MethodDirect, Control: ControlFDR},
		{MinSup: 120, Method: MethodDirect, Control: ControlFDR, Alpha: 0.01},
		{MinSup: 120, Method: MethodLayered, Control: ControlFWER},
		{MinSup: 120, Method: MethodPermutation, Control: ControlFWER, Permutations: 30, Seed: 1},
	}
}

// BenchmarkSessionBatch compares N independent Mine calls against one
// Session.MineBatch over the same N configs. Mining dominates each
// independent call, so the batch is expected to spend ≈N× less mining
// time (the corrections still run once per config).
func BenchmarkSessionBatch(b *testing.B) {
	d := benchDataset(b)
	cfgs := sessionBatchConfigs()

	b.Run("fresh-mines", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, cfg := range cfgs {
				res, err := Mine(d, cfg)
				if err != nil {
					b.Fatal(err)
				}
				sink = res
			}
		}
	})
	b.Run("session-batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			results, err := NewSession(d).MineBatch(context.Background(), cfgs)
			if err != nil {
				b.Fatal(err)
			}
			sink = results
		}
	})
	// The serving-layer shape: the Session outlives the batch, so later
	// requests pay only their correction.
	b.Run("session-warm", func(b *testing.B) {
		sess := NewSession(d)
		if _, err := sess.MineBatch(context.Background(), cfgs); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := sess.Mine(cfgs[i%len(cfgs)])
			if err != nil {
				b.Fatal(err)
			}
			sink = res
		}
	})
}

// Extension ablations (beyond the paper's figures).

func BenchmarkExtRedundancyAblation(b *testing.B) {
	o := benchOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := experiments.ExtRedundancy(o)
		if err != nil {
			b.Fatal(err)
		}
		sink = f
	}
}

func BenchmarkExtTestKinds(b *testing.B) {
	o := benchOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := experiments.ExtTestKinds(o)
		if err != nil {
			b.Fatal(err)
		}
		sink = t
	}
}

func BenchmarkExtBufferBudget(b *testing.B) {
	o := benchOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := experiments.ExtBufferBudget(o)
		if err != nil {
			b.Fatal(err)
		}
		sink = t
	}
}
