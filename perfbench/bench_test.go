package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
)

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// TestTail pins the percentile rule: the highest whole percentile with
// at least ten samples beyond it, by nearest rank.
func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n, pct int
		value  float64
	}{
		{100, 90, 90}, // p90 = 90th smallest; 10 samples beyond
		{200, 95, 190},
		{101, 90, 91},
		{20, 50, 10},
		{11, 9, 1},
	} {
		pct, v, ok := tail(seq(tc.n))
		if !ok || pct != tc.pct || v != tc.value {
			t.Errorf("n=%d: tail = p%d %g (ok=%v), want p%d %g", tc.n, pct, v, ok, tc.pct, tc.value)
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: only %d samples beyond p%d", tc.n, beyond, pct)
		}
	}
	if _, _, ok := tail(seq(10)); ok {
		t.Error("ten samples leave no percentile with ten beyond it")
	}
	if got := nearestRank(seq(100), 90); got != 90 {
		t.Errorf("nearestRank p90 of 1..100 = %g, want 90", got)
	}
}

// TestSelfTime checks that self time subtracts the union of the direct
// children's intervals, clipped to the parent, counting overlap once.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 10},
		{ID: 1, Parent: 0, Start: 1, End: 3},
		{ID: 2, Parent: 0, Start: 2, End: 5},  // overlaps span 1
		{ID: 3, Parent: 0, Start: 8, End: 12}, // runs past the parent
		{ID: 4, Parent: 1, Start: 1, End: 2},  // grandchild: not subtracted from 0
		{ID: 5, Parent: -1, Start: 0, End: 4}, // unrelated root
	}
	if got := selfTime(spans, 0); got != 4 {
		t.Errorf("self time of parent = %g, want 10 - (4 + 2) = 4", got)
	}
	if got := selfTime(spans, 1); got != 1 {
		t.Errorf("self time of span 1 = %g, want 1", got)
	}
	if got := selfTime(spans, 5); got != 4 {
		t.Errorf("childless span self time = %g, want its duration 4", got)
	}
	total, self, count := totals(spans)
	if total[""] != 10+2+3+4+1+4 || self[""] != 4+1+3+4+1+4 || count[""] != 6 {
		t.Errorf("totals = %v %v %v", total, self, count)
	}
}

// TestCacheModelLabels walks two cycles and an upload through the
// warm/cold labelling: the first mine at each support after an upload or
// an append is cold, permutation runs warm their support too.
func TestCacheModelLabels(t *testing.T) {
	cycle := serveCycle(1)
	want := []string{"mine-cold", "mine-cold", "perm", "mine-warm", "perm", "mine-warm", "mine-warm"}
	var m cacheModel
	for round := 0; round < 2; round++ {
		var got []string
		for _, op := range cycle {
			if op.append {
				m.reset()
				continue
			}
			got = append(got, m.label(op))
		}
		if !slices.Equal(got, want) {
			t.Errorf("round %d labels = %v, want %v", round, got, want)
		}
	}
	m.reset()
	perm := serveOp{cfg: cycle[2].cfg}
	if m.label(perm) != "perm" || m.label(cycle[0]) != "mine-warm" {
		t.Error("a permutation run should warm its support for the next direct mine")
	}
}

// TestBenchmarkJSONNames keeps BENCHMARK.json and the metrics the command
// reports in step.
func TestBenchmarkJSONNames(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	if got := names(spec.EndToEnd); !slices.Equal(got, e2eNames) {
		t.Errorf("end_to_end = %v, command reports %v", got, e2eNames)
	}
	if got := names(spec.PerLayer); !slices.Equal(got, layerNames) {
		t.Errorf("per_layer = %v, command reports %v", got, layerNames)
	}
	if got := names(spec.Workloads); !slices.Equal(got, workloads) {
		t.Errorf("workloads = %v, command runs %v", got, workloads)
	}
}
