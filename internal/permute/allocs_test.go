package permute

import "testing"

// TestEngineSteadyStateAllocs pins the allocation discipline of the
// blocked kernel and the per-worker arenas: once an engine has run once
// (arenas grown, buffer pools and Fisher scratch warmed, worker states
// cached), repeated full MinP evaluations allocate only the handful of
// per-run bookkeeping objects (span statistics, visitors, goroutine
// plumbing)
// — nothing per node, per rule or per permutation. The bound is
// deliberately loose against scheduler noise but two orders of magnitude
// below what any per-node allocation would cost on this tree
// (hundreds of nodes × dozens of permutations).
func TestEngineSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  OptLevel
	}{
		{"static", OptStaticBuffer},
		{"none", OptNone},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tree, rules := buildCase(t, 5, 300, 8, 20, tc.opt.WantDiffsets())
			e, err := NewEngine(tree, rules, Config{
				NumPerms: 48, Seed: 11, Opt: tc.opt, Workers: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			e.MinP() // warm: arena chunks, pools, scratch, worker state
			allocs := testing.AllocsPerRun(10, func() { sinkMinP = e.MinP() })
			if allocs > 25 {
				t.Fatalf("opt=%v: steady-state MinP allocates %.0f times per run, want <= 25",
					tc.opt, allocs)
			}
		})
	}
}
