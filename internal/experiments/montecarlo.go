package experiments

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/evalx"
	"repro/internal/synth"
)

// Method labels (Table 3 of the paper).
const (
	MNone     = "No correction"
	MBC       = "BC"
	MBH       = "BH"
	MPermFWER = "Perm_FWER"
	MPermFDR  = "Perm_FDR"
	MHDBC     = "HD_BC"
	MHDBH     = "HD_BH"
	MRHBC     = "RH_BC"
	MRHBH     = "RH_BH"
)

// batteryConfig describes one Monte-Carlo point: a synthetic data
// configuration evaluated by all correction methods over many generated
// datasets.
type batteryConfig struct {
	params      synth.Params // per-dataset generator parameters (Seed is re-derived)
	minSupWhole int          // min_sup on the whole dataset
	alpha       float64
	datasets    int
	perms       int
	seed        uint64
	workers     int
	methods     []string // which methods to run (nil = all)
}

// batteryResult aggregates per-method evaluation plus tested-rule counts.
type batteryResult struct {
	byMethod map[string]evalx.Batch
	// Average #rules tested on the whole dataset / the holdout phases.
	testedWhole, testedHDExp, testedHDEval float64
	testedRHExp, testedRHEval              float64
}

func (b *batteryConfig) wants(m string) bool {
	if len(b.methods) == 0 {
		return true
	}
	for _, x := range b.methods {
		if x == m {
			return true
		}
	}
	return false
}

// runBattery generates cfg.datasets datasets, runs every requested
// correction method on each, judges the outcomes per §5.2, and aggregates.
// Datasets are processed in parallel; permutations within a dataset run
// single-threaded in that case (the worker pool is the dataset loop).
func runBattery(cfg batteryConfig, o Options) (*batteryResult, error) {
	results := make([]perDataset, cfg.datasets)

	par := cfg.workers
	if par < 1 {
		par = 1
	}
	if par > cfg.datasets {
		par = cfg.datasets
	}
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for di := 0; di < cfg.datasets; di++ {
		wg.Add(1)
		go func(di int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[di] = runOneDataset(cfg, di)
		}(di)
	}
	wg.Wait()

	out := &batteryResult{byMethod: make(map[string]evalx.Batch)}
	perMethod := make(map[string][]evalx.DatasetEval)
	for di := range results {
		if results[di].err != nil {
			return nil, fmt.Errorf("dataset %d: %w", di, results[di].err)
		}
		for m, ev := range results[di].evals {
			perMethod[m] = append(perMethod[m], ev)
		}
		out.testedWhole += results[di].tw / float64(cfg.datasets)
		out.testedHDExp += results[di].the / float64(cfg.datasets)
		out.testedHDEval += results[di].thev / float64(cfg.datasets)
		out.testedRHExp += results[di].tre / float64(cfg.datasets)
		out.testedRHEval += results[di].trev / float64(cfg.datasets)
	}
	for m, evs := range perMethod {
		out.byMethod[m] = evalx.Aggregate(evs)
	}
	return out, nil
}

// perDataset carries one generated dataset's evaluation across methods.
type perDataset struct {
	evals                    map[string]evalx.DatasetEval
	tw, the, thev, tre, trev float64
	err                      error
}

// methodSpec maps one battery method label onto the shared pipeline
// config that produces it.
type methodSpec struct {
	method string
	cfg    core.Config
}

// batterySpecs builds the pipeline configs of the requested methods. The
// no-correction run always rides along (first) because every battery
// reports the whole-dataset tested-rule count (Figs 6, 7 and 11 plot it);
// it shares the batch's single mine and its correction is free.
func batterySpecs(cfg batteryConfig, genSeed uint64) []methodSpec {
	base := core.Config{
		MinSup:       cfg.minSupWhole,
		Alpha:        cfg.alpha,
		MaxNodes:     2_000_000,
		Permutations: cfg.perms,
		Workers:      1, // parallelism lives at the dataset level here
	}
	specs := []methodSpec{{MNone, base}}
	add := func(m string, mut func(c *core.Config)) {
		if !cfg.wants(m) {
			return
		}
		c := base
		mut(&c)
		specs = append(specs, methodSpec{m, c})
	}
	add(MBC, func(c *core.Config) { c.Method = core.MethodDirect; c.Control = core.ControlFWER })
	add(MBH, func(c *core.Config) { c.Method = core.MethodDirect; c.Control = core.ControlFDR })
	add(MPermFWER, func(c *core.Config) {
		c.Method = core.MethodPermutation
		c.Control = core.ControlFWER
		c.Seed = genSeed ^ 0xa5a5a5a5
	})
	add(MPermFDR, func(c *core.Config) {
		c.Method = core.MethodPermutation
		c.Control = core.ControlFDR
		c.Seed = genSeed ^ 0xa5a5a5a5
	})
	add(MHDBC, func(c *core.Config) { c.Method = core.MethodHoldout; c.Control = core.ControlFWER })
	add(MHDBH, func(c *core.Config) { c.Method = core.MethodHoldout; c.Control = core.ControlFDR })
	add(MRHBC, func(c *core.Config) {
		c.Method = core.MethodHoldout
		c.Control = core.ControlFWER
		c.HoldoutRandom = true
		c.Seed = genSeed ^ 0x5a5a5a5a
	})
	add(MRHBH, func(c *core.Config) {
		c.Method = core.MethodHoldout
		c.Control = core.ControlFDR
		c.HoldoutRandom = true
		c.Seed = genSeed ^ 0x5a5a5a5a
	})
	return specs
}

// runOneDataset generates dataset di of the battery and evaluates all
// requested methods on it through one shared mining Session: every
// whole-dataset method reuses a single encode/mine/score, and the holdout
// variants run through the same pipeline instead of private plumbing.
func runOneDataset(cfg batteryConfig, di int) (res perDataset) {
	res.evals = make(map[string]evalx.DatasetEval)

	p := cfg.params
	p.Seed = cfg.seed + uint64(di)*0x9e3779b97f4a7c15 + 1
	whole, first, _, err := synth.GeneratePaired(p)
	if err != nil {
		res.err = err
		return res
	}
	judge := evalx.NewJudge(whole.Data, whole.Rules, cfg.alpha)

	specs := batterySpecs(cfg, p.Seed)
	cfgs := make([]core.Config, len(specs))
	for i := range specs {
		cfgs[i] = specs[i].cfg
	}
	sess := core.NewSession(whole.Data)
	outs, err := sess.RunBatch(context.Background(), cfgs)
	if err != nil {
		res.err = err
		return res
	}

	var rexp *dataset.Dataset // random-holdout exploratory half, for judging
	for i, sp := range specs {
		out := outs[i]
		switch sp.method {
		case MHDBC, MHDBH:
			res.evals[sp.method] = judge.EvaluateHoldout(first, out.Holdout)
			res.the = float64(out.Holdout.NumExploreTested)
			res.thev = float64(len(out.Holdout.Candidates))
		case MRHBC, MRHBH:
			if rexp == nil {
				// The same split the pipeline's random holdout performed
				// (both derive it from Config.Seed).
				rexp, _ = whole.Data.RandomSplit(sp.cfg.Seed)
			}
			res.evals[sp.method] = judge.EvaluateHoldout(rexp, out.Holdout)
			res.tre = float64(out.Holdout.NumExploreTested)
			res.trev = float64(len(out.Holdout.Candidates))
		default:
			if sp.method == MNone {
				res.tw = float64(out.NumTested)
				if !cfg.wants(MNone) {
					continue
				}
			}
			res.evals[sp.method] = judge.Evaluate(out.Tested, out.Outcome.Significant)
		}
	}
	return res
}

// embeddedRuleParams returns the §5.5 generator configuration: N=2000,
// A=40, one embedded rule of coverage 400 at the given confidence.
func embeddedRuleParams(conf float64) synth.Params {
	p := synth.PaperDefaults()
	p.N = 2000
	p.Attrs = 40
	p.NumRules = 1
	p.MinCvg, p.MaxCvg = 400, 400
	p.MinConf, p.MaxConf = conf, conf
	return p
}

// randomParams returns the §5.4 configuration: N=2000, A=40, no rules.
func randomParams() synth.Params {
	p := synth.PaperDefaults()
	p.N = 2000
	p.Attrs = 40
	return p
}

// tieNullParams returns a null whose permutation min-p distribution is
// full of ties: 20 records over 8 attributes of 2–3 values and no
// embedded rule. With so few records a rule's Fisher p-value takes a
// handful of values, so many permutations share their min-p — often 1,
// when no rule can reach a small p — and the ⌊αN⌋-th smallest min-p
// usually ties its neighbours. It checks that permutation FWER steps its
// cut-off below such a tie instead of admitting more than αN
// permutations.
func tieNullParams() synth.Params {
	p := synth.PaperDefaults()
	p.N = 20
	p.Attrs = 8
	p.MaxV = 3
	return p
}

// confGrid is the §5.5 x-axis: conf(Rt) from 0.55 to 0.70.
func confGrid(full bool) []float64 {
	if full {
		return []float64{0.55, 0.575, 0.60, 0.625, 0.65, 0.675, 0.70}
	}
	return []float64{0.55, 0.60, 0.65, 0.70}
}

// minSupGrid6 is the Fig 6 x-axis (random datasets).
func minSupGrid6(full bool) []int {
	if full {
		return []int{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}
	}
	return []int{200, 400, 700, 1000}
}

// minSupGrid12 is the Figs 11–13 x-axis (embedded rule, conf 0.60).
func minSupGrid12(full bool) []int {
	if full {
		return []int{100, 150, 200, 250, 300, 350, 400}
	}
	return []int{100, 200, 300, 400}
}

// Fig6 reproduces Figure 6: FWER, #rules tested and #false positives on
// pure-random datasets (no embedded rules) as min_sup varies.
func Fig6(o Options) ([]*Figure, error) {
	grid := minSupGrid6(o.Full)
	methods := []string{MNone, MBC, MBH, MPermFWER, MPermFDR, MHDBC, MHDBH}

	fwer := &Figure{ID: "fig6a", Title: "FWER on random datasets (N=2000, A=40)", XLabel: "minimum support", YLabel: "FWER"}
	tested := &Figure{ID: "fig6b", Title: "#rules tested on random datasets", XLabel: "minimum support", YLabel: "average number of rules tested", LogY: true}
	fps := &Figure{ID: "fig6c", Title: "#false positives on random datasets", XLabel: "minimum support", YLabel: "average number of significant rules", LogY: true}

	fwerS := map[string]*Series{}
	fpS := map[string]*Series{}
	for _, m := range methods {
		fwerS[m] = &Series{Label: m}
		fpS[m] = &Series{Label: m}
	}
	testedWhole := &Series{Label: "whole dataset"}
	testedExp := &Series{Label: "HD_exploratory"}
	testedEval := &Series{Label: "HD_evaluation"}

	for _, ms := range grid {
		o.progress("fig6: min_sup=%d", ms)
		res, err := runBattery(batteryConfig{
			params:      randomParams(),
			minSupWhole: ms,
			alpha:       0.05,
			datasets:    o.datasets(),
			perms:       o.perms(),
			seed:        o.Seed + uint64(ms),
			workers:     o.workers(),
			methods:     methods,
		}, o)
		if err != nil {
			return nil, err
		}
		x := float64(ms)
		for _, m := range methods {
			b := res.byMethod[m]
			fwerS[m].X = append(fwerS[m].X, x)
			fwerS[m].Y = append(fwerS[m].Y, b.FWER)
			fpS[m].X = append(fpS[m].X, x)
			fpS[m].Y = append(fpS[m].Y, b.AvgFalsePositives)
		}
		testedWhole.X = append(testedWhole.X, x)
		testedWhole.Y = append(testedWhole.Y, res.testedWhole)
		testedExp.X = append(testedExp.X, x)
		testedExp.Y = append(testedExp.Y, res.testedHDExp)
		testedEval.X = append(testedEval.X, x)
		testedEval.Y = append(testedEval.Y, res.testedHDEval)
	}
	for _, m := range methods {
		fwer.Series = append(fwer.Series, *fwerS[m])
		fps.Series = append(fps.Series, *fpS[m])
	}
	tested.Series = []Series{*testedWhole, *testedExp, *testedEval}
	return []*Figure{fwer, tested, fps}, nil
}

// powerFigures is the shared driver for Figures 8 and 10 (x = confidence)
// and Figures 12 and 13 (x = min_sup): power, error rate, #false
// positives.
func powerFigures(o Options, id, errName string, fdr bool, xs []float64, mk func(x float64) (synth.Params, int)) ([]*Figure, error) {
	var methods []string
	if fdr {
		methods = []string{MNone, MBH, MPermFDR, MHDBH, MRHBH}
	} else {
		methods = []string{MNone, MBC, MPermFWER, MHDBC, MRHBC}
	}
	power := &Figure{ID: id + "a", Title: "power when controlling " + errName, XLabel: "x", YLabel: "power"}
	errFig := &Figure{ID: id + "b", Title: errName, XLabel: "x", YLabel: errName}
	fps := &Figure{ID: id + "c", Title: "#false positives", XLabel: "x", YLabel: "average number of false positives", LogY: true}

	powerS := map[string]*Series{}
	errS := map[string]*Series{}
	fpS := map[string]*Series{}
	for _, m := range methods {
		powerS[m] = &Series{Label: m}
		errS[m] = &Series{Label: m}
		fpS[m] = &Series{Label: m}
	}

	for _, x := range xs {
		params, minSup := mk(x)
		o.progress("%s: x=%g", id, x)
		res, err := runBattery(batteryConfig{
			params:      params,
			minSupWhole: minSup,
			alpha:       0.05,
			datasets:    o.datasets(),
			perms:       o.perms(),
			seed:        o.Seed + uint64(x*1000),
			workers:     o.workers(),
			methods:     methods,
		}, o)
		if err != nil {
			return nil, err
		}
		for _, m := range methods {
			b := res.byMethod[m]
			powerS[m].X = append(powerS[m].X, x)
			powerS[m].Y = append(powerS[m].Y, b.Power)
			errS[m].X = append(errS[m].X, x)
			e := b.FWER
			if fdr {
				e = b.FDR
			}
			errS[m].Y = append(errS[m].Y, e)
			fpS[m].X = append(fpS[m].X, x)
			fpS[m].Y = append(fpS[m].Y, b.AvgFalsePositives)
		}
	}
	for _, m := range methods {
		power.Series = append(power.Series, *powerS[m])
		errFig.Series = append(errFig.Series, *errS[m])
		fps.Series = append(fps.Series, *fpS[m])
	}
	return []*Figure{power, errFig, fps}, nil
}

// Fig8 reproduces Figure 8: power / FWER / #FP vs conf(Rt) with FWER
// controlled at 5%; min_sup=150, rule coverage 400, N=2000, A=40.
func Fig8(o Options) ([]*Figure, error) {
	figs, err := powerFigures(o, "fig8", "FWER", false, confGrid(o.Full),
		func(conf float64) (synth.Params, int) { return embeddedRuleParams(conf), 150 })
	if err != nil {
		return nil, err
	}
	for _, f := range figs {
		f.XLabel = "confidence of the embedded rule"
	}
	return figs, nil
}

// Fig10 reproduces Figure 10: power / FDR / #FP vs conf(Rt) with FDR
// controlled at 5%.
func Fig10(o Options) ([]*Figure, error) {
	figs, err := powerFigures(o, "fig10", "FDR", true, confGrid(o.Full),
		func(conf float64) (synth.Params, int) { return embeddedRuleParams(conf), 150 })
	if err != nil {
		return nil, err
	}
	for _, f := range figs {
		f.XLabel = "confidence of the embedded rule"
	}
	return figs, nil
}

// Fig12 reproduces Figure 12: power / FWER / #FP vs min_sup at
// conf(Rt)=0.60.
func Fig12(o Options) ([]*Figure, error) {
	var xs []float64
	for _, ms := range minSupGrid12(o.Full) {
		xs = append(xs, float64(ms))
	}
	figs, err := powerFigures(o, "fig12", "FWER", false, xs,
		func(x float64) (synth.Params, int) { return embeddedRuleParams(0.60), int(x) })
	if err != nil {
		return nil, err
	}
	for _, f := range figs {
		f.XLabel = "minimum support"
	}
	return figs, nil
}

// Fig13 reproduces Figure 13: power / FDR / #FP vs min_sup at
// conf(Rt)=0.60.
func Fig13(o Options) ([]*Figure, error) {
	var xs []float64
	for _, ms := range minSupGrid12(o.Full) {
		xs = append(xs, float64(ms))
	}
	figs, err := powerFigures(o, "fig13", "FDR", true, xs,
		func(x float64) (synth.Params, int) { return embeddedRuleParams(0.60), int(x) })
	if err != nil {
		return nil, err
	}
	for _, f := range figs {
		f.XLabel = "minimum support"
	}
	return figs, nil
}

// testedFigure is the shared driver for Figures 7 and 11: the number of
// rules tested on the whole dataset and on the holdout phases.
func testedFigure(o Options, id, xlabel string, xs []float64, mk func(x float64) (synth.Params, int)) (*Figure, error) {
	fig := &Figure{ID: id, Title: "number of rules tested", XLabel: xlabel,
		YLabel: "average number of rules tested", LogY: true}
	whole := &Series{Label: "whole dataset"}
	hdExp := &Series{Label: "HD_exploratory"}
	rhExp := &Series{Label: "RH_exploratory"}
	hdEval := &Series{Label: "HD_evaluation"}
	rhEval := &Series{Label: "RH_evaluation"}

	for _, x := range xs {
		params, minSup := mk(x)
		o.progress("%s: x=%g", id, x)
		res, err := runBattery(batteryConfig{
			params:      params,
			minSupWhole: minSup,
			alpha:       0.05,
			datasets:    o.datasets(),
			perms:       1, // permutations not needed here
			seed:        o.Seed + uint64(x*1000),
			workers:     o.workers(),
			methods:     []string{MHDBC, MRHBC},
		}, o)
		if err != nil {
			return nil, err
		}
		whole.X = append(whole.X, x)
		whole.Y = append(whole.Y, res.testedWhole)
		hdExp.X = append(hdExp.X, x)
		hdExp.Y = append(hdExp.Y, res.testedHDExp)
		rhExp.X = append(rhExp.X, x)
		rhExp.Y = append(rhExp.Y, res.testedRHExp)
		hdEval.X = append(hdEval.X, x)
		hdEval.Y = append(hdEval.Y, res.testedHDEval)
		rhEval.X = append(rhEval.X, x)
		rhEval.Y = append(rhEval.Y, res.testedRHEval)
	}
	fig.Series = []Series{*whole, *hdExp, *rhExp, *hdEval, *rhEval}
	return fig, nil
}

// Fig7 reproduces Figure 7: #rules tested vs conf(Rt); min_sup=150.
func Fig7(o Options) (*Figure, error) {
	return testedFigure(o, "fig7", "confidence of the embedded rule", confGrid(o.Full),
		func(conf float64) (synth.Params, int) { return embeddedRuleParams(conf), 150 })
}

// Fig11 reproduces Figure 11: #rules tested vs min_sup; conf(Rt)=0.60.
func Fig11(o Options) (*Figure, error) {
	var xs []float64
	for _, ms := range minSupGrid12(o.Full) {
		xs = append(xs, float64(ms))
	}
	return testedFigure(o, "fig11", "minimum support", xs,
		func(x float64) (synth.Params, int) { return embeddedRuleParams(0.60), int(x) })
}
