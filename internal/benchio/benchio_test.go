package benchio

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/permute"
	"repro/internal/synth"
)

func tinySpec(t *testing.T) Spec {
	t.Helper()
	p := synth.PaperDefaults()
	p.N = 300
	p.Attrs = 6
	p.Seed = 3
	res, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return Spec{
		Datasets: []Dataset{{Name: "tiny", Data: res.Data, MinSup: 20}},
		Opts:     []permute.OptLevel{permute.OptNone, permute.OptDiffsets},
		Workers:  []int{1},
		Perms:    []int{5},
		Warmup:   0,
		Repeat:   1,
		Seed:     7,
	}
}

func TestRunMatrixAndRoundTrip(t *testing.T) {
	rep, err := Run(context.Background(), tinySpec(t), "test-rev")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) != 2 {
		t.Fatalf("%d entries, want 2 (2 opts × 1 workers × 1 perms)", len(rep.Entries))
	}
	for _, e := range rep.Entries {
		if e.NsPerOp <= 0 {
			t.Errorf("%s/%s: ns_per_op = %d, want > 0", e.Dataset, e.Opt, e.NsPerOp)
		}
		if e.SpeedupVsNone <= 0 {
			t.Errorf("%s/%s: speedup_vs_none = %g, want > 0", e.Dataset, e.Opt, e.SpeedupVsNone)
		}
		if e.Records != 300 || e.Rules == 0 || e.MinSup != 20 {
			t.Errorf("entry metadata wrong: %+v", e)
		}
	}
	if rep.Entries[0].Opt != "none" || rep.Entries[0].SpeedupVsNone != 1.0 {
		t.Errorf("none-level entry should have speedup 1.0, got %+v", rep.Entries[0])
	}

	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := WriteFile(path, rep); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rev != "test-rev" || back.SchemaVersion != SchemaVersion || len(back.Entries) != len(rep.Entries) {
		t.Fatalf("round trip mangled the report: %+v", back)
	}
}

// TestRunShardDimension: Spec.Shards adds sharded cells that time the same
// pass through the shard coordinator — they must carry the shard count,
// skip the ablation columns, and coexist with the single-node cells.
func TestRunShardDimension(t *testing.T) {
	spec := tinySpec(t)
	spec.Opts = []permute.OptLevel{permute.OptDiffsets}
	spec.Shards = []int{1, 3}
	rep, err := Run(context.Background(), spec, "test-rev")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) != 2 {
		t.Fatalf("%d entries, want 2 (shards 1 and 3)", len(rep.Entries))
	}
	var single, sharded *Entry
	for i := range rep.Entries {
		switch rep.Entries[i].Shards {
		case 0:
			single = &rep.Entries[i]
		case 3:
			sharded = &rep.Entries[i]
		}
	}
	if single == nil || sharded == nil {
		t.Fatalf("missing single-node or sharded cell: %+v", rep.Entries)
	}
	if single.NsPerOp <= 0 || sharded.NsPerOp <= 0 {
		t.Fatalf("unmeasured cells: single=%d sharded=%d ns/op", single.NsPerOp, sharded.NsPerOp)
	}
	if sharded.AdaptiveNsPerOp != 0 {
		t.Fatalf("sharded cell ran ablations: %+v", sharded)
	}
}

// TestCompareSkipsShardedCellsWithoutBaseline: a baseline recorded before
// the shard dimension existed must keep gating the single-node cells while
// never gating (or crashing on) shards>1 cells it has no counterpart for.
func TestCompareSkipsShardedCellsWithoutBaseline(t *testing.T) {
	entry := func(shards int, speedup float64) Entry {
		return Entry{Dataset: "d", Opt: "diffsets", Workers: 1, Perms: 100,
			Shards: shards, NsPerOp: 100, SpeedupVsNone: speedup}
	}
	base := &Report{SchemaVersion: SchemaVersion, Entries: []Entry{entry(0, 10)}}

	// A pre-shard-dimension baseline: the shards=3 cell is skipped even
	// when its speedup cratered, and the single-node cell still gates.
	cur := &Report{SchemaVersion: SchemaVersion, Entries: []Entry{entry(1, 10), entry(3, 1)}}
	if regs := Compare(base, cur, 0.20); len(regs) != 0 {
		t.Fatalf("sharded cell gated by a shardless baseline: %v", regs)
	}
	cur = &Report{SchemaVersion: SchemaVersion, Entries: []Entry{entry(1, 5), entry(3, 1)}}
	regs := Compare(base, cur, 0.20)
	if len(regs) != 1 || regs[0].Metric != "speedup_vs_none" || regs[0].Shards != 1 {
		t.Fatalf("single-node regression lost among sharded cells: %v", regs)
	}

	// Once a baseline records shards=3, that cell gates like any other.
	base.Entries = append(base.Entries, entry(3, 8))
	regs = Compare(base, cur, 0.20)
	if len(regs) != 2 {
		t.Fatalf("matched sharded cell not gated: %v", regs)
	}
	var found bool
	for _, r := range regs {
		if r.Shards == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no regression attributed to the sharded cell: %v", regs)
	}
}

// TestRunStoreDimension: Spec.MeasureStore doubles each single-node cell
// with an out-of-core twin that snapshots a segment store inside the
// timed region — the twin must carry the store mark, skip the ablation
// columns, and ladder against the store "none" cell.
func TestRunStoreDimension(t *testing.T) {
	spec := tinySpec(t)
	spec.MeasureStore = true
	rep, err := Run(context.Background(), spec, "test-rev")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) != 4 {
		t.Fatalf("%d entries, want 4 (2 opts × {memory, store})", len(rep.Entries))
	}
	byStore := map[bool]int{}
	for _, e := range rep.Entries {
		byStore[e.Store]++
		if e.NsPerOp <= 0 {
			t.Errorf("%s/%s store=%v: ns_per_op = %d, want > 0", e.Dataset, e.Opt, e.Store, e.NsPerOp)
		}
		if e.Store {
			if e.AdaptiveNsPerOp != 0 {
				t.Errorf("store cell ran ablations: %+v", e)
			}
			if e.SpeedupVsNone <= 0 {
				t.Errorf("store cell missing its own ladder: %+v", e)
			}
		}
	}
	if byStore[false] != 2 || byStore[true] != 2 {
		t.Fatalf("cell split %v, want 2 in-memory + 2 store", byStore)
	}
}

// TestCompareSkipsStoreCellsWithoutBaseline: a baseline recorded before
// the store dimension existed must keep gating the in-memory cells while
// never gating the store cells it has no counterpart for.
func TestCompareSkipsStoreCellsWithoutBaseline(t *testing.T) {
	entry := func(store bool, speedup float64) Entry {
		return Entry{Dataset: "d", Opt: "diffsets", Workers: 1, Perms: 100,
			Store: store, NsPerOp: 100, SpeedupVsNone: speedup}
	}
	base := &Report{SchemaVersion: SchemaVersion, Entries: []Entry{entry(false, 10)}}

	cur := &Report{SchemaVersion: SchemaVersion, Entries: []Entry{entry(false, 10), entry(true, 1)}}
	if regs := Compare(base, cur, 0.20); len(regs) != 0 {
		t.Fatalf("store cell gated by a storeless baseline: %v", regs)
	}
	cur = &Report{SchemaVersion: SchemaVersion, Entries: []Entry{entry(false, 5), entry(true, 1)}}
	regs := Compare(base, cur, 0.20)
	if len(regs) != 1 || regs[0].Metric != "speedup_vs_none" || regs[0].Store {
		t.Fatalf("in-memory regression lost among store cells: %v", regs)
	}

	// Once a baseline records the store cell, it gates like any other.
	base.Entries = append(base.Entries, entry(true, 8))
	regs = Compare(base, cur, 0.20)
	if len(regs) != 2 {
		t.Fatalf("matched store cell not gated: %v", regs)
	}
	var found bool
	for _, r := range regs {
		if r.Store {
			found = true
		}
	}
	if !found {
		t.Fatalf("no regression attributed to the store cell: %v", regs)
	}
}

func TestRunRejectsEmptyMatrix(t *testing.T) {
	if _, err := Run(context.Background(), Spec{}, "r"); err == nil {
		t.Fatal("empty spec accepted")
	}
}

func TestReadFileRejectsUnknownSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_bad.json")
	if err := WriteFile(path, &Report{SchemaVersion: SchemaVersion + 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("unknown schema version accepted")
	}
}

func TestCompareFlagsRelativeRegressions(t *testing.T) {
	mk := func(speedup float64) *Report {
		return &Report{
			SchemaVersion: SchemaVersion,
			Entries: []Entry{
				{Dataset: "d", Opt: "diffsets", Workers: 1, Perms: 100,
					NsPerOp: 100, SpeedupVsNone: speedup},
			},
		}
	}
	base := mk(10)

	if regs := Compare(base, mk(9.5), 0.20); len(regs) != 0 {
		t.Fatalf("within-tolerance drift flagged: %v", regs)
	}
	regs := Compare(base, mk(5), 0.20)
	if len(regs) != 1 || regs[0].Metric != "speedup_vs_none" {
		t.Fatalf("halved speedup not flagged correctly: %v", regs)
	}
	// Cells only in one report are ignored.
	other := mk(1)
	other.Entries[0].Dataset = "elsewhere"
	if regs := Compare(base, other, 0.20); len(regs) != 0 {
		t.Fatalf("unmatched cell flagged: %v", regs)
	}
}

func TestCompareGatesAdaptiveVsNone(t *testing.T) {
	mk := func(speedup, adaptive float64) *Report {
		return &Report{
			SchemaVersion: SchemaVersion,
			Entries: []Entry{
				{Dataset: "d", Opt: "static", Workers: 1, Perms: 10000,
					NsPerOp: 100, SpeedupVsNone: speedup, AdaptiveSpeedup: adaptive},
			},
		}
	}
	// The PR 6 shape: the fixed pass gets 3x faster, so the raw
	// adaptive_speedup ratio halves — but the adaptive run's own speedup
	// over "none" grew (10×4=40 -> 30×2=60). Not a regression.
	base := mk(10, 4)
	if regs := Compare(base, mk(30, 2), 0.20); len(regs) != 0 {
		t.Fatalf("faster fixed pass flagged as adaptive regression: %v", regs)
	}
	// A genuinely slower adaptive path (same fixed ladder, ratio halved)
	// is flagged, as adaptive_vs_none.
	regs := Compare(base, mk(10, 2), 0.20)
	if len(regs) != 1 || regs[0].Metric != "adaptive_vs_none" {
		t.Fatalf("halved adaptive path not flagged correctly: %v", regs)
	}
}

func TestCompareFlagsAllocGrowth(t *testing.T) {
	mk := func(allocs uint64) *Report {
		return &Report{
			SchemaVersion: SchemaVersion,
			Entries: []Entry{
				{Dataset: "d", Opt: "static", Workers: 1, Perms: 100,
					NsPerOp: 100, AllocsPerOp: allocs, SpeedupVsNone: 10},
			},
		}
	}
	base := mk(1000)

	// Growth within tolerance + slack passes; beyond it regresses.
	if regs := Compare(base, mk(1100), 0.20); len(regs) != 0 {
		t.Fatalf("within-tolerance alloc growth flagged: %v", regs)
	}
	regs := Compare(base, mk(2000), 0.20)
	if len(regs) != 1 || regs[0].Metric != "allocs_per_op" {
		t.Fatalf("doubled allocs not flagged correctly: %v", regs)
	}
	// Shrinking is never a regression (it is the point of this PR), and
	// tiny baselines get absolute slack so single-object noise passes.
	if regs := Compare(base, mk(100), 0.20); len(regs) != 0 {
		t.Fatalf("alloc reduction flagged: %v", regs)
	}
	small := mk(10)
	if regs := Compare(small, mk(70), 0.20); len(regs) != 0 {
		t.Fatalf("slack-covered growth on a tiny baseline flagged: %v", regs)
	}
	if regs := Compare(small, mk(100), 0.20); len(regs) != 1 {
		t.Fatalf("beyond-slack growth on a tiny baseline not flagged: %v", regs)
	}
}
