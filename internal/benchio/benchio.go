// Package benchio is the measurement half of the armine bench harness: it
// runs a fixed dataset × optimisation-level × workers × permutations
// matrix over the permutation engine — mining excluded from the timings,
// exactly what Fig 4 measures — with explicit warmup/repeat control, and
// reads, writes and compares the machine-readable BENCH_<rev>.json files
// that record the repo's performance trajectory (DESIGN.md §6).
//
// Each matrix cell times engine construction plus a full MinP pass
// (repeat times, keeping the minimum — the standard way to suppress
// scheduler noise). Absolute ns/op is machine-dependent; the regression
// gate (Compare) therefore checks machine-independent ratios — speedup
// versus the "none" level, directly and on the adaptive path — rather
// than raw times, plus the allocation count per op, which is
// deterministic on a given build and so gated directly (relative growth,
// like the ratios).
package benchio

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/colstore"
	"repro/internal/dataset"
	"repro/internal/mining"
	"repro/internal/permute"
	"repro/internal/shard"
)

// SchemaVersion identifies the BENCH json layout; bump on incompatible
// changes so downstream tooling can reject files it cannot read.
const SchemaVersion = 1

// Dataset is one named input of a bench run.
type Dataset struct {
	// Name labels the dataset in entries (e.g. "synth-n1000-a15",
	// "german", or a CSV base name).
	Name string
	// Data is the loaded dataset.
	Data *dataset.Dataset
	// MinSup is the absolute minimum support used when mining it.
	MinSup int
}

// Spec fixes the benchmark matrix and its measurement discipline.
type Spec struct {
	Datasets []Dataset
	// Opts, Workers and Perms span the matrix (each combination is one
	// entry). A workers value of 0 means GOMAXPROCS.
	Opts    []permute.OptLevel
	Workers []int
	Perms   []int
	// Shards adds a distributed-counting dimension: each count > 1 times
	// the same fixed pass through a shard coordinator over that many
	// in-process workers (nil or empty = single-node only). Sharded cells
	// skip the adaptive ablation — they measure dispatch + merge
	// overhead, not counting variants.
	Shards []int
	// Warmup runs per cell are discarded; Repeat timed runs follow and
	// the minimum is kept. Repeat < 1 is treated as 1.
	Warmup, Repeat int
	// Seed drives the permutation shuffles of every cell.
	Seed uint64
	// MeasureAdaptive additionally times each cell as an adaptive
	// (sequential early-stopping) Westfall–Young run with the same
	// permutation budget and records fixed/adaptive as the adaptive
	// speedup.
	MeasureAdaptive bool
	// MeasureStore adds an out-of-core dimension: each single-node cell
	// is additionally measured with the dataset's vertical encoding
	// rebuilt from an on-disk segment store (internal/colstore) inside
	// the timed region — snapshot + engine build + MinP — recording what
	// not holding the dataset in memory costs per run. Store cells skip
	// the adaptive ablation (they measure storage overhead, not
	// counting variants) and are keyed separately, so baselines written
	// before the dimension keep gating the in-memory cells.
	MeasureStore bool
	// Alpha is the error level the adaptive cells stop against (default
	// 0.05 when zero).
	Alpha float64
	// MaxLen caps mined pattern length (0 = unlimited).
	MaxLen int
}

// Entry is one measured matrix cell.
type Entry struct {
	Dataset string `json:"dataset"`
	Records int    `json:"records"`
	Rules   int    `json:"rules"`
	MinSup  int    `json:"min_sup"`
	Opt     string `json:"opt"`
	Workers int    `json:"workers"`
	Perms   int    `json:"perms"`
	// Shards records the distributed-counting dimension; omitted (0) for
	// single-node cells, so reports predating the dimension stay
	// comparable.
	Shards int `json:"shards,omitempty"`
	// Store marks out-of-core cells (encoding snapshot from a segment
	// store inside the timed region); omitted (false) for in-memory
	// cells, so reports predating the dimension stay comparable.
	Store bool `json:"store,omitempty"`

	// NsPerOp is the minimum wall-clock time of one engine build + MinP
	// pass; AllocsPerOp/BytesPerOp are the allocation counters of that
	// same run (monotonic runtime counters, so GC-independent).
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp uint64 `json:"allocs_per_op"`
	BytesPerOp  uint64 `json:"bytes_per_op"`

	// SpeedupVsNone is ns/op of the matching "none"-level cell divided by
	// this cell's — the Fig 4 ladder read off the same run (1.0 for the
	// "none" cells themselves, 0 when no matching cell was measured).
	SpeedupVsNone float64 `json:"speedup_vs_none"`

	// The adaptive cell: the same budget run as an adaptive Westfall–Young
	// pass (engine build + RunAdaptive), fixed/adaptive ns ratio, and the
	// retirement telemetry of the fastest adaptive run. Zero when adaptive
	// measurement was off.
	AdaptiveNsPerOp      int64   `json:"adaptive_ns_per_op,omitempty"`
	AdaptiveSpeedup      float64 `json:"adaptive_speedup,omitempty"`
	AdaptivePermsRun     int     `json:"adaptive_perms_run,omitempty"`
	AdaptiveRulesRetired int     `json:"adaptive_rules_retired,omitempty"`
}

// Report is the persisted form of one bench run (one BENCH_<rev>.json).
type Report struct {
	SchemaVersion int     `json:"schema_version"`
	Rev           string  `json:"rev"`
	GoVersion     string  `json:"go_version"`
	GOOS          string  `json:"goos"`
	GOARCH        string  `json:"goarch"`
	CPUs          int     `json:"cpus"`
	CreatedAt     string  `json:"created_at"` // RFC 3339
	Entries       []Entry `json:"entries"`
}

// Run measures the full matrix of spec. Cells are measured strictly
// sequentially (concurrent cells would contend and corrupt each other's
// timings); ctx aborts between runs.
func Run(ctx context.Context, spec Spec, rev string) (*Report, error) {
	if len(spec.Datasets) == 0 || len(spec.Opts) == 0 || len(spec.Workers) == 0 || len(spec.Perms) == 0 {
		return nil, fmt.Errorf("benchio: empty matrix dimension (datasets/opts/workers/perms)")
	}
	if spec.Repeat < 1 {
		spec.Repeat = 1
	}
	shardCounts := spec.Shards
	if len(shardCounts) == 0 {
		shardCounts = []int{1}
	}
	rep := &Report{
		SchemaVersion: SchemaVersion,
		Rev:           rev,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		CPUs:          runtime.NumCPU(),
		CreatedAt:     time.Now().UTC().Format(time.RFC3339),
	}
	var storeRoot string
	if spec.MeasureStore {
		dir, err := os.MkdirTemp("", "armine-bench-store-")
		if err != nil {
			return nil, fmt.Errorf("benchio: store dir: %w", err)
		}
		storeRoot = dir
		defer os.RemoveAll(storeRoot)
	}

	for _, ds := range spec.Datasets {
		enc := dataset.Encode(ds.Data)
		var store *colstore.Store
		if spec.MeasureStore {
			st, err := colstore.FromDataset(filepath.Join(storeRoot, ds.Name), ds.Data, colstore.Options{})
			if err != nil {
				return nil, fmt.Errorf("benchio: store for %s: %w", ds.Name, err)
			}
			store = st
		}
		for _, opt := range spec.Opts {
			// Mining is outside the timed region: the engine consumes a
			// prepared tree, mirroring the paper's mine-once accounting.
			tree, err := mining.MineClosedContext(ctx, enc, mining.Options{
				MinSup:        ds.MinSup,
				StoreDiffsets: opt.WantDiffsets(),
				MaxLen:        spec.MaxLen,
			})
			if err != nil {
				return nil, fmt.Errorf("benchio: mining %s: %w", ds.Name, err)
			}
			rules, err := mining.GenerateRules(tree, mining.RuleOptions{Policy: mining.PaperPolicy})
			if err != nil {
				return nil, fmt.Errorf("benchio: rules for %s: %w", ds.Name, err)
			}
			for _, workers := range spec.Workers {
				for _, perms := range spec.Perms {
					for _, nShards := range shardCounts {
						cell := permute.Config{
							NumPerms: perms,
							Seed:     spec.Seed,
							Opt:      opt,
							Workers:  workers,
							Ctx:      ctx,
						}
						e := Entry{
							Dataset: ds.Name,
							Records: ds.Data.NumRecords(),
							Rules:   len(rules),
							MinSup:  ds.MinSup,
							Opt:     opt.Name(),
							Workers: workers,
							Perms:   perms,
						}
						if nShards > 1 {
							e.Shards = nShards
							m, err := measureSharded(ctx, tree, rules, cell, nShards, spec.Warmup, spec.Repeat)
							if err != nil {
								return nil, err
							}
							e.NsPerOp, e.AllocsPerOp, e.BytesPerOp = m.ns, m.allocs, m.bytes
							rep.Entries = append(rep.Entries, e)
							continue
						}
						m, err := measure(ctx, tree, rules, cell, spec.Warmup, spec.Repeat)
						if err != nil {
							return nil, err
						}
						e.NsPerOp, e.AllocsPerOp, e.BytesPerOp = m.ns, m.allocs, m.bytes
						// Adaptive cells are only meaningful when the budget
						// allows at least one retirement round: with
						// MaxPerms <= the normalized MinPerms the whole run is
						// a single round and cannot retire anything, so the
						// ratio would be fixed-vs-fixed timing noise — and
						// noise must not enter the regression gate.
						ad := permute.Adaptive{MaxPerms: perms}.Normalized()
						if spec.MeasureAdaptive && perms > ad.MinPerms {
							acell := cell
							acell.Adaptive = ad
							alpha := spec.Alpha
							if alpha == 0 {
								alpha = 0.05
							}
							am, info, err := measureAdaptive(ctx, tree, rules, acell, alpha, spec.Warmup, spec.Repeat)
							if err != nil {
								return nil, err
							}
							e.AdaptiveNsPerOp = am.ns
							if am.ns > 0 {
								e.AdaptiveSpeedup = float64(e.NsPerOp) / float64(am.ns)
							}
							e.AdaptivePermsRun = info.PermsRun
							e.AdaptiveRulesRetired = info.RulesRetired
						}
						rep.Entries = append(rep.Entries, e)
						if store != nil {
							se := Entry{
								Dataset: e.Dataset,
								Records: e.Records,
								Rules:   e.Rules,
								MinSup:  e.MinSup,
								Opt:     e.Opt,
								Workers: e.Workers,
								Perms:   e.Perms,
								Store:   true,
							}
							sm, err := measureStore(ctx, store, tree, rules, cell, spec.Warmup, spec.Repeat)
							if err != nil {
								return nil, err
							}
							se.NsPerOp, se.AllocsPerOp, se.BytesPerOp = sm.ns, sm.allocs, sm.bytes
							rep.Entries = append(rep.Entries, se)
						}
					}
				}
			}
		}
	}
	fillSpeedups(rep.Entries)
	return rep, nil
}

type measurement struct {
	ns     int64
	allocs uint64
	bytes  uint64
}

// measureRuns is the shared measurement discipline: run fn warmup times
// discarded, then repeat times keeping the run with the smallest
// wall-clock, returning its measurement and payload. Allocation counters
// come from Mallocs/TotalAlloc deltas — monotonic, so unaffected by
// garbage collections during the run. ctx aborts between runs.
func measureRuns[T any](ctx context.Context, warmup, repeat int, fn func() (T, error)) (measurement, T, error) {
	var zero T
	run := func() (measurement, T, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		payload, err := fn()
		if err != nil {
			return measurement{}, zero, err
		}
		ns := time.Since(start).Nanoseconds()
		runtime.ReadMemStats(&after)
		return measurement{
			ns:     ns,
			allocs: after.Mallocs - before.Mallocs,
			bytes:  after.TotalAlloc - before.TotalAlloc,
		}, payload, nil
	}
	if repeat < 1 {
		repeat = 1
	}
	for i := 0; i < warmup; i++ {
		if err := ctx.Err(); err != nil {
			return measurement{}, zero, err
		}
		if _, _, err := run(); err != nil {
			return measurement{}, zero, err
		}
	}
	var best measurement
	var bestPayload T
	for i := 0; i < repeat; i++ {
		if err := ctx.Err(); err != nil {
			return measurement{}, zero, err
		}
		m, payload, err := run()
		if err != nil {
			return measurement{}, zero, err
		}
		if i == 0 || m.ns < best.ns {
			best, bestPayload = m, payload
		}
	}
	return best, bestPayload, nil
}

// measure times engine construction + one MinP pass under the shared
// warmup/repeat discipline.
func measure(ctx context.Context, tree *mining.Tree, rules []mining.Rule, cfg permute.Config, warmup, repeat int) (measurement, error) {
	m, _, err := measureRuns(ctx, warmup, repeat, func() (struct{}, error) {
		e, err := permute.NewEngine(tree, rules, cfg)
		if err != nil {
			return struct{}{}, fmt.Errorf("benchio: engine: %w", err)
		}
		e.MinP()
		return struct{}{}, e.Err()
	})
	return m, err
}

// measureAdaptive times engine construction + one adaptive Westfall–Young
// pass under the same discipline, returning the fastest run's measurement
// and its adaptive telemetry.
func measureAdaptive(ctx context.Context, tree *mining.Tree, rules []mining.Rule, cfg permute.Config, alpha float64, warmup, repeat int) (measurement, *permute.AdaptiveResult, error) {
	return measureRuns(ctx, warmup, repeat, func() (*permute.AdaptiveResult, error) {
		e, err := permute.NewEngine(tree, rules, cfg)
		if err != nil {
			return nil, fmt.Errorf("benchio: engine: %w", err)
		}
		return e.RunAdaptive(permute.AdaptFWER, alpha)
	})
}

// measureStore times one out-of-core pass: rebuilding the vertical
// encoding from the segment store (Snapshot re-reads and decodes every
// segment file — nothing is cached between runs) plus the same engine
// build + MinP pass as the in-memory cell. The statistics are
// byte-identical to the in-memory cell's; the timing difference is what
// the storage layer costs per run.
func measureStore(ctx context.Context, st *colstore.Store, tree *mining.Tree, rules []mining.Rule, cfg permute.Config, warmup, repeat int) (measurement, error) {
	m, _, err := measureRuns(ctx, warmup, repeat, func() (struct{}, error) {
		if _, _, err := st.Snapshot(); err != nil {
			return struct{}{}, fmt.Errorf("benchio: snapshot: %w", err)
		}
		e, err := permute.NewEngine(tree, rules, cfg)
		if err != nil {
			return struct{}{}, fmt.Errorf("benchio: engine: %w", err)
		}
		e.MinP()
		return struct{}{}, e.Err()
	})
	return m, err
}

// measureSharded times one fixed pass through a shard coordinator: engine
// construction (labels deferred — each shard builds only its own range),
// worker wrapping, dispatch and merge. The statistics are byte-identical
// to the single-node cell's; the timing difference is the cost (or gain)
// of the partition itself.
func measureSharded(ctx context.Context, tree *mining.Tree, rules []mining.Rule, cfg permute.Config, nShards, warmup, repeat int) (measurement, error) {
	ps := make([]float64, len(rules))
	for i := range rules {
		ps[i] = rules[i].P
	}
	m, _, err := measureRuns(ctx, warmup, repeat, func() (struct{}, error) {
		scfg := cfg
		scfg.DeferLabels = true
		e, err := permute.NewEngine(tree, rules, scfg)
		if err != nil {
			return struct{}{}, fmt.Errorf("benchio: engine: %w", err)
		}
		workers := make([]shard.Worker, nShards)
		for i := range workers {
			workers[i] = shard.NewLocal(e)
		}
		coord, err := shard.NewCoordinator(workers, ps, cfg.NumPerms, permute.Adaptive{})
		if err != nil {
			return struct{}{}, fmt.Errorf("benchio: coordinator: %w", err)
		}
		_, err = coord.MinP(ctx)
		return struct{}{}, err
	})
	return m, err
}

// cellKey identifies a matrix cell across reports and levels. shards is
// stored normalized (normShards): reports written before the dimension
// existed carry an implicit 0, which must keep matching today's
// single-node cells — while a shards=N cell never matches a single-node
// baseline, so Compare skips it like any other cell present in only one
// report. store needs no normalization: the JSON field is omitempty, so
// a baseline written before the dimension unmarshals to false and keeps
// gating the in-memory cells, while a store cell never matches an
// in-memory baseline.
type cellKey struct {
	dataset string
	opt     string
	workers int
	perms   int
	shards  int
	store   bool
}

// normShards collapses the two spellings of "single-node" (0 and 1) into
// one key value.
func normShards(n int) int {
	if n <= 1 {
		return 0
	}
	return n
}

// fillSpeedups derives each entry's speedup against the matching
// "none"-level cell of the same run (and the same shard count and store
// dimension — a sharded cell's ladder is measured against the sharded
// "none" cell, a store cell's against the store "none" cell, so the
// ladder isolates the optimisation from the dispatch/storage overhead).
func fillSpeedups(entries []Entry) {
	none := make(map[cellKey]int64)
	for _, e := range entries {
		if e.Opt == permute.OptNone.Name() {
			none[cellKey{e.Dataset, "", e.Workers, e.Perms, normShards(e.Shards), e.Store}] = e.NsPerOp
		}
	}
	for i := range entries {
		base := none[cellKey{entries[i].Dataset, "", entries[i].Workers, entries[i].Perms, normShards(entries[i].Shards), entries[i].Store}]
		if base > 0 && entries[i].NsPerOp > 0 {
			entries[i].SpeedupVsNone = float64(base) / float64(entries[i].NsPerOp)
		}
	}
}

// WriteFile writes the report as indented JSON.
func WriteFile(path string, rep *Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a BENCH json, rejecting unknown schema versions.
func ReadFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("benchio: %s: %w", path, err)
	}
	if rep.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("benchio: %s: schema version %d, want %d", path, rep.SchemaVersion, SchemaVersion)
	}
	return &rep, nil
}

// Regression is one matrix cell whose relative performance fell more than
// the tolerance below the baseline.
type Regression struct {
	Dataset string
	Opt     string
	Workers int
	Perms   int
	Shards  int    // 0 = single-node
	Store   bool   // true = out-of-core (segment-store) cell
	Metric  string // "speedup_vs_none", "adaptive_vs_none" or "allocs_per_op"
	Base    float64
	Now     float64
}

func (r Regression) String() string {
	s := fmt.Sprintf("%s opt=%s workers=%d perms=%d", r.Dataset, r.Opt, r.Workers, r.Perms)
	if r.Shards > 1 {
		s += fmt.Sprintf(" shards=%d", r.Shards)
	}
	if r.Store {
		s += " store"
	}
	return fmt.Sprintf("%s: %s %.2f -> %.2f", s, r.Metric, r.Base, r.Now)
}

// allocsSlack is the absolute headroom the allocs_per_op gate grants on
// top of the relative tolerance: tiny baselines (a few dozen allocations)
// would otherwise flag single-object noise as a regression.
const allocsSlack = 64

// Compare checks cur against base cell by cell and returns the cells that
// regressed by more than tolerance (e.g. 0.20 = 20%). Relative metrics
// are gated because raw ns/op is not comparable across machines:
// speedup_vs_none, and the adaptive path as
// adaptive_vs_none — the adaptive run's speedup over the same run's
// "none" cell (speedup_vs_none × adaptive_speedup). The raw
// adaptive_speedup ratio is deliberately not gated: its denominator is
// the same cell's fixed pass, so any improvement to fixed counting
// shrinks the ratio even when the adaptive run itself got faster.
// allocs_per_op is gated on growth (it is a property of the build, not
// the machine): a cell regresses when its allocation count exceeds the
// baseline's by more than the tolerance fraction plus a small absolute
// slack. Cells present in only one report are ignored (the matrix may
// legitimately grow or shrink).
func Compare(base, cur *Report, tolerance float64) []Regression {
	baseBy := make(map[cellKey]Entry, len(base.Entries))
	for _, e := range base.Entries {
		baseBy[cellKey{e.Dataset, e.Opt, e.Workers, e.Perms, normShards(e.Shards), e.Store}] = e
	}
	var regs []Regression
	for _, e := range cur.Entries {
		b, ok := baseBy[cellKey{e.Dataset, e.Opt, e.Workers, e.Perms, normShards(e.Shards), e.Store}]
		if !ok {
			// In particular, a baseline recorded before the shard or store
			// dimension (or at a different shard count) never gates a
			// sharded or store cell.
			continue
		}
		reg := func(metric string, was, now float64) {
			regs = append(regs, Regression{
				Dataset: e.Dataset, Opt: e.Opt, Workers: e.Workers, Perms: e.Perms,
				Shards: e.Shards, Store: e.Store, Metric: metric, Base: was, Now: now,
			})
		}
		check := func(metric string, was, now float64) {
			if was > 0 && now > 0 && now < was*(1-tolerance) {
				reg(metric, was, now)
			}
		}
		check("speedup_vs_none", b.SpeedupVsNone, e.SpeedupVsNone)
		check("adaptive_vs_none", b.SpeedupVsNone*b.AdaptiveSpeedup, e.SpeedupVsNone*e.AdaptiveSpeedup)
		if b.AllocsPerOp > 0 &&
			float64(e.AllocsPerOp) > float64(b.AllocsPerOp)*(1+tolerance)+allocsSlack {
			reg("allocs_per_op", float64(b.AllocsPerOp), float64(e.AllocsPerOp))
		}
	}
	return regs
}
