package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"

	"repro/internal/core"
	"repro/internal/correction"
	"repro/internal/dataset"
	"repro/internal/disc"
	"repro/internal/mining"
	"repro/internal/permute"
)

// digest is what the oracles compare: a run's tested count, cutoff and
// significant set (indices into its tested rules or holdout candidates).
type digest struct {
	Tested      int
	Cutoff      float64
	Significant []int
}

func (a digest) equal(b digest) bool {
	return a.Tested == b.Tested && math.Float64bits(a.Cutoff) == math.Float64bits(b.Cutoff) &&
		slices.Equal(a.Significant, b.Significant)
}

func (a digest) String() string {
	return fmt.Sprintf("tested=%d cutoff=%g significant=%d", a.Tested, a.Cutoff, len(a.Significant))
}

func digestOf(res *core.Result) digest {
	return digest{Tested: res.NumTested, Cutoff: res.Cutoff, Significant: res.Outcome.Significant}
}

// counts accumulates the layer counters of a traced run.
type counts struct {
	csvBytes           int64
	datasetAlloc       uint64
	patterns, rules    int64
	miningAlloc        uint64
	ladders, laddered  int64 // distinct (class, coverage) ladders; rules they serve
	ruleEvals          int64 // rule × permutation evaluations
	permsRun, retired  int64
	permsSaved, budget int64 // adaptive: evaluations avoided, of rules × MaxPerms
	permuteAlloc       uint64
	significant        int64
	truePos, falsePos  int64
	// core session counters
	encodes, treeHits, treeMisses, scoreHits, scoreMisses int64
}

func (c *counts) addSession(st core.SessionStats) {
	c.encodes += st.Encodes
	c.treeHits += st.TreeHits
	c.treeMisses += st.Mines
	c.scoreHits += st.ScoreHits
	c.scoreMisses += st.Scores
}

func allocated() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// normalize fills in the library defaults the layer calls need spelled
// out (the same defaults core applies).
func normalize(c core.Config) core.Config {
	if c.Alpha == 0 {
		c.Alpha = 0.05
	}
	if c.Permutations == 0 {
		c.Permutations = 1000
	}
	c.Adaptive = c.Adaptive.Normalized()
	if !c.OptSet {
		c.Opt = permute.OptStaticBuffer
	}
	if c.HoldoutMinSupDivisor == 0 {
		c.HoldoutMinSupDivisor = 2
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// timedNull times the engine's MinP and CountLE passes as child spans of
// the correction call that asks for them.
type timedNull struct {
	e          *permute.Engine
	tr         *tracer
	parent, op int
	evals      *int64
}

func (t timedNull) MinP() (out []float64) {
	t.tr.do("permute.minp", t.parent, t.op, func() { out = t.e.MinP() })
	*t.evals += int64(t.e.NumRules()) * int64(t.e.NumPerms())
	return out
}

func (t timedNull) CountLE() (out []int64) {
	t.tr.do("permute.countle", t.parent, t.op, func() { out = t.e.CountLE() })
	*t.evals += int64(t.e.NumRules()) * int64(t.e.NumPerms())
	return out
}

func (t timedNull) NumPerms() int { return t.e.NumPerms() }

// stage is one mined and scored rule set of a rebuild.
type stage struct {
	tree  *mining.Tree
	rules []mining.Rule
}

// rebuilt is the outcome of one config rebuilt from layer calls.
type rebuilt struct {
	digest digest
	rules  []mining.Rule // tested rules (nil for holdout)
}

func rebuiltDigests(rb []rebuilt) []digest {
	out := make([]digest, len(rb))
	for i := range rb {
		out[i] = rb[i].digest
	}
	return out
}

// rebuild runs cfgs over the CSV bytes by calling each layer's public
// functions directly, in the order core runs them, with a span around
// every call. ops[i] is the operation id of cfgs[i]. Configs that core
// would share a stage or an engine between share it here too.
func rebuild(tr *tracer, parent int, ops []int, csv []byte, cfgs []core.Config, c *counts) (*dataset.Dataset, []rebuilt, error) {
	ctx := context.Background()
	var (
		d   *dataset.Dataset
		enc *dataset.Encoded
		err error
	)
	a0 := allocated()
	tr.do("dataset.read", parent, ops[0], func() { d, err = dataset.ReadDataset(bytes.NewReader(csv), -1) })
	if err != nil {
		return nil, nil, err
	}
	tr.do("disc.discretize", parent, ops[0], func() { err = disc.DiscretizeDataset(d) })
	if err != nil {
		return nil, nil, err
	}
	tr.do("dataset.encode", parent, ops[0], func() { enc = dataset.Encode(d) })
	c.csvBytes += int64(len(csv))
	c.datasetAlloc += allocated() - a0

	type stageKey struct {
		minSup int
		diffs  bool
	}
	type engineKey struct {
		stage    stageKey
		perms    int
		seed     uint64
		adaptive permute.Adaptive
		alpha    float64
		control  core.Control
	}
	stages := map[stageKey]*stage{}
	engines := map[engineKey]*permute.Engine{}
	out := make([]rebuilt, len(cfgs))
	for i, cfg := range cfgs {
		cfg = normalize(cfg)
		op := ops[i]
		if cfg.Method == core.MethodHoldout {
			var hres *correction.HoldoutResult
			tr.do("correction.holdout", parent, op, func() {
				var explore, eval *dataset.Dataset
				if cfg.HoldoutRandom {
					explore, eval = d.RandomSplit(cfg.Seed)
				} else {
					explore, eval = d.SplitHalves()
				}
				hres, err = correction.Holdout(explore, eval, correction.HoldoutConfig{
					MinSupExplore: max(cfg.MinSup/cfg.HoldoutMinSupDivisor, 1),
					Alpha:         cfg.Alpha,
					UseFDR:        cfg.Control == core.ControlFDR,
					Policy:        cfg.Policy,
					Class:         cfg.FixedClass,
					MaxLen:        cfg.MaxLen,
					Workers:       cfg.Workers,
					Ctx:           ctx,
				})
			})
			if err != nil {
				return nil, nil, err
			}
			out[i].digest = digest{hres.NumExploreTested, hres.Outcome.Cutoff, hres.Outcome.Significant}
			c.significant += int64(len(hres.Outcome.Significant))
			continue
		}

		sk := stageKey{cfg.MinSup, cfg.Method != core.MethodPermutation || cfg.Opt.WantDiffsets()}
		st := stages[sk]
		if st == nil {
			st = &stage{}
			a0 := allocated()
			tr.do("mining.mine", parent, op, func() {
				st.tree, err = mining.MineClosedContext(ctx, enc, mining.Options{
					MinSup: cfg.MinSup, StoreDiffsets: sk.diffs, MaxLen: cfg.MaxLen,
					MaxNodes: cfg.MaxNodes, Workers: cfg.Workers,
				})
			})
			if err != nil {
				return nil, nil, err
			}
			tr.do("mining.score", parent, op, func() {
				st.rules, err = mining.GenerateRules(st.tree, mining.RuleOptions{
					Policy: cfg.Policy, Class: cfg.FixedClass, MinConf: cfg.MinConf, Test: cfg.Test,
				})
			})
			if err != nil {
				return nil, nil, err
			}
			c.miningAlloc += allocated() - a0
			c.patterns += int64(st.tree.NumPatterns())
			c.rules += int64(len(st.rules))
			ladders(tr, parent, op, enc, st.rules, c)
			stages[sk] = st
		}
		ps := make([]float64, len(st.rules))
		for j := range st.rules {
			ps[j] = st.rules[j].P
		}

		var o *correction.Outcome
		switch cfg.Method {
		case core.MethodDirect:
			if cfg.Control == core.ControlFWER {
				tr.do("correction.bonferroni", parent, op, func() { o = correction.Bonferroni(ps, len(ps), cfg.Alpha) })
			} else {
				tr.do("correction.bh", parent, op, func() { o = correction.BenjaminiHochberg(ps, len(ps), cfg.Alpha) })
			}
		case core.MethodPermutation:
			ek := engineKey{stage: sk, perms: cfg.Permutations, seed: cfg.Seed}
			if cfg.Adaptive.Enabled() {
				ek = engineKey{stage: sk, seed: cfg.Seed, adaptive: cfg.Adaptive, alpha: cfg.Alpha, control: cfg.Control}
			}
			e := engines[ek]
			if e == nil {
				if e, err = buildEngine(tr, parent, op, st, cfg, c); err != nil {
					return nil, nil, err
				}
				engines[ek] = e
			}
			a0 := allocated()
			if cfg.Adaptive.Enabled() {
				mode := permute.AdaptFWER
				if cfg.Control == core.ControlFDR {
					mode = permute.AdaptFDR
				}
				var res *permute.AdaptiveResult
				tr.do("permute.adaptive", parent, op, func() { res, err = e.RunAdaptive(mode, cfg.Alpha) })
				if err != nil {
					return nil, nil, err
				}
				c.permsRun += int64(res.PermsRun)
				c.retired += int64(res.RulesRetired)
				c.permsSaved += res.PermsSaved
				c.budget += int64(len(st.rules)) * int64(cfg.Adaptive.MaxPerms)
				c.ruleEvals += int64(len(st.rules))*int64(cfg.Adaptive.MaxPerms) - res.PermsSaved
				tr.do("correction.adaptive", parent, op, func() {
					if cfg.Control == core.ControlFWER {
						o = correction.AdaptivePermFWER(res, st.rules, cfg.Alpha)
					} else {
						o = correction.AdaptivePermFDR(res, st.rules, cfg.Alpha)
					}
				})
			} else {
				c.permsRun += int64(cfg.Permutations)
				id := tr.begin("correction.perm", parent, op)
				src := timedNull{e: e, tr: tr, parent: id, op: op, evals: &c.ruleEvals}
				if cfg.Control == core.ControlFWER {
					o = correction.PermFWER(src, st.rules, cfg.Alpha)
				} else {
					o = correction.PermFDR(src, st.rules, cfg.Alpha)
				}
				tr.end(id)
			}
			c.permuteAlloc += allocated() - a0
			if err := e.Err(); err != nil {
				return nil, nil, err
			}
		default:
			return nil, nil, fmt.Errorf("rebuild: method %s is not used by any workload", cfg.Method)
		}
		out[i] = rebuilt{digest{len(st.rules), o.Cutoff, o.Significant}, st.rules}
		c.significant += int64(len(o.Significant))
	}
	return d, out, nil
}

// buildEngine builds a permutation engine twice — normally, then with
// deferred labels, which builds only the tree-walk index — so the trace
// separates index construction from label generation.
func buildEngine(tr *tracer, parent, op int, st *stage, cfg core.Config, c *counts) (*permute.Engine, error) {
	pcfg := permute.Config{
		NumPerms: cfg.Permutations, Seed: cfg.Seed, Opt: cfg.Opt, StaticBudget: cfg.StaticBudget,
		Workers: cfg.Workers, Test: cfg.Test, Adaptive: cfg.Adaptive, Ctx: context.Background(),
	}
	var (
		e   *permute.Engine
		err error
	)
	a0 := allocated()
	tr.do("permute.engine", parent, op, func() { e, err = permute.NewEngine(st.tree, st.rules, pcfg) })
	if err != nil {
		return nil, err
	}
	c.permuteAlloc += allocated() - a0
	if tr != nil {
		pcfg.DeferLabels = true
		tr.do("permute.index", parent, op, func() { _, err = permute.NewEngine(st.tree, st.rules, pcfg) })
	}
	return e, err
}

// ladders builds the Fisher p-value ladder of every distinct (class,
// coverage) pair of the rules once, through the stats layer's public
// call. Scoring and the engine build their own ladders internally; this
// call measures what one shared ladder per pair would cost.
func ladders(tr *tracer, parent, op int, enc *dataset.Encoded, rules []mining.Rule, c *counts) {
	if tr == nil {
		return
	}
	type key struct {
		class int32
		cvg   int
	}
	hs := mining.NewHypergeoms(enc)
	seen := map[key]bool{}
	tr.do("stats.ladders", parent, op, func() {
		for i := range rules {
			k := key{rules[i].Class, rules[i].Coverage}
			if !seen[k] {
				seen[k] = true
				hs[k.class].BuildPBuffer(k.cvg)
			}
		}
	})
	c.ladders += int64(len(seen))
	c.laddered += int64(len(rules))
}
