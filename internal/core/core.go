// Package core wires the substrates into the paper's end-to-end pipeline:
// dataset → closed class-association-rule mining → Fisher p-values → one
// of the multiple-testing correction approaches → the statistically
// significant rule set. It is the implementation behind the repo's public
// facade (the root package). DESIGN.md §2 describes the stages, §4 the
// Session layer that caches them.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/correction"
	"repro/internal/dataset"
	"repro/internal/mining"
	"repro/internal/permute"
	"repro/internal/shard"
)

// Control selects the error measure being controlled (§2.3).
type Control int

const (
	// ControlFWER controls the family-wise error rate: the probability of
	// reporting at least one false positive.
	ControlFWER Control = iota
	// ControlFDR controls the false discovery rate: the expected fraction
	// of false positives among reported rules.
	ControlFDR
)

// String returns "FWER" or "FDR".
func (c Control) String() string {
	if c == ControlFDR {
		return "FDR"
	}
	return "FWER"
}

// Method selects the correction approach (§4).
type Method int

const (
	// MethodNone applies no correction: every rule with p <= Alpha is
	// reported (the paper's baseline, and a demonstration of why
	// correction is needed).
	MethodNone Method = iota
	// MethodDirect is the direct adjustment approach: Bonferroni under
	// ControlFWER, Benjamini–Hochberg under ControlFDR.
	MethodDirect
	// MethodPermutation is the permutation-based approach of §4.2.
	MethodPermutation
	// MethodHoldout is Webb's holdout evaluation (§4.3): the dataset is
	// split, rules are mined on the exploratory half and validated on the
	// evaluation half.
	MethodHoldout
	// MethodLayered is Webb's layered critical values [19] (an extension
	// the paper discusses in related work): the FWER budget is split
	// evenly across rule lengths and Bonferroni-divided within each
	// length. FWER control only.
	MethodLayered
)

// String returns the method's name.
func (m Method) String() string {
	switch m {
	case MethodNone:
		return "none"
	case MethodDirect:
		return "direct"
	case MethodPermutation:
		return "permutation"
	case MethodHoldout:
		return "holdout"
	case MethodLayered:
		return "layered"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// ParseControl maps a case-insensitive control name ("fwer" or "fdr") to
// its Control. Surrounding whitespace is ignored.
func ParseControl(s string) (Control, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "fwer":
		return ControlFWER, nil
	case "fdr":
		return ControlFDR, nil
	default:
		return 0, fmt.Errorf("core: unknown control %q (want fwer or fdr)", s)
	}
}

// ParseMethod maps a case-insensitive method name to its Method.
// Surrounding whitespace is ignored; the empty string is rejected (callers
// choose their own default).
func ParseMethod(s string) (Method, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "none":
		return MethodNone, nil
	case "direct":
		return MethodDirect, nil
	case "permutation":
		return MethodPermutation, nil
	case "holdout":
		return MethodHoldout, nil
	case "layered":
		return MethodLayered, nil
	default:
		return 0, fmt.Errorf("core: unknown method %q (want none|direct|permutation|holdout|layered)", s)
	}
}

// ParseTest maps a case-insensitive significance-test name to its
// TestKind. The empty string selects the paper's default (Fisher).
func ParseTest(s string) (mining.TestKind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "fisher":
		return mining.TestFisher, nil
	case "midp", "mid-p":
		return mining.TestMidP, nil
	case "chisq", "chi2", "chisquare", "chi-square":
		return mining.TestChiSquare, nil
	default:
		return 0, fmt.Errorf("core: unknown test %q (want fisher|midp|chisq)", s)
	}
}

// Config configures a mining-plus-correction run.
type Config struct {
	// MinSup is the absolute minimum coverage of a rule LHS. If 0,
	// MinSupFrac·NumRecords is used instead.
	MinSup int
	// MinSupFrac is the relative minimum support (used when MinSup == 0).
	MinSupFrac float64
	// MinConf drops rules below this confidence before testing. The
	// paper's experiments use 0 (statistical and domain significance are
	// orthogonal filters; see §2.3).
	MinConf float64
	// Alpha is the error level (default 0.05).
	Alpha float64
	// Control selects FWER or FDR.
	Control Control
	// Method selects the correction approach.
	Method Method
	// Permutations is N for MethodPermutation (default 1000, the paper's
	// setting). Ignored when Adaptive mode is on — Adaptive.MaxPerms is
	// the budget then.
	Permutations int
	// Adaptive, when Adaptive.MaxPerms > 0, runs MethodPermutation with
	// sequential early stopping (DESIGN.md §7): permutations execute in
	// growing rounds and rules whose correction fate is decided retire
	// from further counting. Off by default. With Adaptive.Exceedances < 0
	// (retirement disabled) the results are byte-identical to a fixed run
	// of MaxPerms permutations; with retirement on, the significant set
	// matches the fixed run's up to the conservative stopping rule (see
	// the design doc for the exactness argument).
	Adaptive permute.Adaptive
	// ShardWorkers, when non-empty, splits MethodPermutation's absolute
	// permutation-index range into one disjoint contiguous shard per
	// worker (the server's HTTP peers), dispatched through the
	// internal/shard coordinator (DESIGN.md §10). Results are
	// byte-identical to a single-node run for every worker count. Like
	// Workers, it never enters serialisation or cache keys beyond the
	// shard count.
	ShardWorkers []shard.Worker
	// Seed drives permutation shuffles and holdout splits. Seeding is
	// fully explicit — nothing in the pipeline reads global or time-based
	// randomness — so equal (Seed, Config) pairs reproduce byte-identical
	// results for any Workers value. Permutation j derives its own RNG
	// from (Seed, j), which is what keeps the shuffles independent of the
	// worker count.
	Seed uint64
	// Opt is the permutation optimisation level (default OptStaticBuffer,
	// i.e. everything on). At every level the engine counts class
	// supports with its one counting path, the blocked word-parallel
	// kernel (striped label bitmaps + popcount; DESIGN.md §8); the level
	// only selects the paper's Diffsets and p-value buffering.
	Opt permute.OptLevel
	// OptSet marks Opt as explicitly set (lets callers request OptNone,
	// which is otherwise indistinguishable from "unset").
	OptSet bool
	// StaticBudget is the static p-value buffer budget in bytes under
	// OptStaticBuffer (default 16 MB).
	StaticBudget int
	// Workers caps the worker goroutines of every parallel stage — closed
	// pattern mining and permutation re-evaluation (default GOMAXPROCS).
	// Results are byte-identical for every value.
	Workers int
	// MaxLen caps mined pattern length (0 = unlimited).
	MaxLen int
	// MaxNodes caps the closed-pattern count (0 = unlimited); mining
	// fails loudly when exceeded.
	MaxNodes int
	// Policy selects rule generation (default mining.PaperPolicy).
	Policy mining.RuleClassPolicy
	// FixedClass is the RHS class under mining.FixedClass.
	FixedClass int32
	// HoldoutRandom uses a random split for MethodHoldout (the paper's
	// "random holdout"); false splits into first/second halves, which is
	// exact for synth.GeneratePaired data.
	HoldoutRandom bool
	// HoldoutMinSupDivisor divides MinSup for the exploratory half
	// (default 2, the paper's setting).
	HoldoutMinSupDivisor int
	// Test selects the significance test (default: the paper's two-tailed
	// Fisher exact test). TestChiSquare and TestMidP are extensions; the
	// holdout method currently supports Fisher only.
	Test mining.TestKind
	// RedundancyEpsilon, when > 0, folds near-duplicate patterns before
	// testing (the §7 future-work reduction): a pattern keeping at least
	// a (1-epsilon) fraction of its tree parent representative's records
	// is not tested separately. Reducing the tested count raises the
	// power of every correction method. 0 disables.
	RedundancyEpsilon float64
}

func (c Config) withDefaults(n int) (Config, error) {
	if c.Alpha == 0 {
		c.Alpha = 0.05
	}
	if c.Alpha < 0 || c.Alpha > 1 {
		return c, fmt.Errorf("core: Alpha %g outside [0,1]", c.Alpha)
	}
	if c.MinSup == 0 {
		if c.MinSupFrac <= 0 || c.MinSupFrac > 1 {
			return c, fmt.Errorf("core: need MinSup or MinSupFrac in (0,1], got %d / %g", c.MinSup, c.MinSupFrac)
		}
		c.MinSup = int(c.MinSupFrac * float64(n))
		if c.MinSup < 1 {
			c.MinSup = 1
		}
	}
	if c.Permutations < 0 {
		return c, fmt.Errorf("core: Permutations must be >= 0 (0 picks 1000), got %d", c.Permutations)
	}
	if c.Adaptive.MaxPerms < 0 {
		return c, fmt.Errorf("core: Adaptive.MaxPerms must be >= 0 (0 disables adaptive mode), got %d", c.Adaptive.MaxPerms)
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
	return c, nil
}

// Rule is a reported significant rule in user-facing form.
type Rule struct {
	// Items renders the LHS as "attribute=value" strings.
	Items []string
	// Attrs/Vals are the LHS in index form (parallel slices).
	Attrs []int
	Vals  []int32
	// Class is the RHS label; ClassIndex its index.
	Class      string
	ClassIndex int32
	// Coverage, Support, Confidence and P are the rule's statistics on
	// the dataset it was validated on (the evaluation half for holdout,
	// the whole dataset otherwise).
	Coverage   int
	Support    int
	Confidence float64
	P          float64
}

// Result reports one pipeline run.
type Result struct {
	// Method/Control/Alpha echo the effective configuration.
	Method  Method
	Control Control
	Alpha   float64
	MinSup  int
	// NumRecords is the dataset size; NumPatterns the closed frequent
	// pattern count; NumTested the number of rules tested (for holdout:
	// on the exploratory half).
	NumRecords  int
	NumPatterns int
	NumTested   int
	// Cutoff is the effective p-value threshold (negative = none).
	Cutoff float64
	// Significant lists the reported rules, most significant first.
	Significant []Rule
	// Tested exposes the full tested rule set with p-values (nil for
	// holdout, whose tested rules live on the exploratory half).
	Tested []mining.Rule
	// Outcome is the raw correction decision over Tested (or over the
	// holdout candidates).
	Outcome *correction.Outcome
	// Holdout carries the two-phase detail when Method == MethodHoldout.
	Holdout *correction.HoldoutResult
	// Perm carries the adaptive permutation engine's telemetry; nil for
	// every non-adaptive run.
	Perm *PermStats
	// MineTime and CorrectTime split the wall-clock cost.
	MineTime    time.Duration
	CorrectTime time.Duration
}

// PermStats reports an adaptive permutation run (Config.Adaptive): how
// far the round schedule ran and how much counting the retirement rule
// avoided.
type PermStats struct {
	// Rounds is the number of rounds executed; PermsRun the permutations
	// actually evaluated (MaxPerms unless every rule retired first).
	Rounds   int
	PermsRun int
	// MaxPerms echoes the configured budget.
	MaxPerms int
	// RulesRetired counts rules retired before the budget was exhausted.
	RulesRetired int
	// PermsSaved is the number of (rule, permutation) evaluations avoided
	// relative to a fixed run of MaxPerms.
	PermsSaved int64
}

// Run executes the configured pipeline on d.
func Run(d *dataset.Dataset, cfg Config) (*Result, error) {
	return RunContext(context.Background(), d, cfg)
}

// RunContext executes the configured pipeline on d as an explicit staged
// run — encode → mine → score → correct — threading ctx and cfg.Workers
// into every parallel stage. Cancelling ctx aborts the run promptly with
// the context's error; results are byte-identical for every worker count.
//
// RunContext is a one-shot Session: callers with several configs over one
// dataset should build a Session (or use RunBatch) so the prepared stages
// amortise across runs.
func RunContext(ctx context.Context, d *dataset.Dataset, cfg Config) (*Result, error) {
	return NewSession(d).RunContext(ctx, cfg)
}

// runCorrection applies the configured multiple-testing correction to the
// scored rule set. It never mutates tree or rules, which may be shared
// across concurrent runs of one Session. The second result carries the
// adaptive schedule's telemetry and is nil for every non-adaptive run.
func runCorrection(ctx context.Context, cfg Config, tree *mining.Tree, rules []mining.Rule) (*correction.Outcome, *PermStats, error) {
	ps := make([]float64, len(rules))
	for i := range rules {
		ps[i] = rules[i].P
	}
	switch cfg.Method {
	case MethodNone:
		return correction.None(ps, cfg.Alpha), nil, nil
	case MethodLayered:
		if cfg.Control != ControlFWER {
			return nil, nil, fmt.Errorf("core: layered critical values control FWER only")
		}
		lengths := make([]int, len(rules))
		for i := range rules {
			lengths[i] = rules[i].Length()
		}
		outcome, err := correction.LayeredCriticalValues(ps, lengths, 0, cfg.Alpha)
		return outcome, nil, err
	case MethodDirect:
		if cfg.Control == ControlFWER {
			return correction.Bonferroni(ps, len(ps), cfg.Alpha), nil, nil
		}
		return correction.BenjaminiHochberg(ps, len(ps), cfg.Alpha), nil, nil
	case MethodPermutation:
		res, err := cfg.runNull(ctx, tree, rules, cfg.Control == ControlFDR)
		if err != nil {
			return nil, nil, err
		}
		outcome, pstats := permOutcome(cfg, res, rules)
		return outcome, pstats, nil
	default:
		return nil, nil, fmt.Errorf("core: unknown method %d", cfg.Method)
	}
}

// schedule returns the permutation round schedule of a normalized config:
// the configured adaptive one, or — for a fixed run of Permutations — the
// one-round schedule over [0, Permutations) in which nothing retires.
// Either way the permutations run through permute.DriveAdaptive, so a
// fixed run and a retirement-disabled adaptive run of the same budget
// agree bit for bit (DESIGN.md §7).
func (c Config) schedule() permute.Adaptive {
	if c.Adaptive.Enabled() {
		return c.Adaptive
	}
	return permute.Adaptive{MinPerms: c.Permutations, MaxPerms: c.Permutations, Exceedances: -1}
}

// permSource builds cfg's permutation round runner over the scored rules:
// a single-node engine's ShardSpan, or — when ShardWorkers is set — a
// shard coordinator's Span over those workers, bound to ctx. The engine
// defers its labels, so each span builds only the label block it
// evaluates (the full range memoises one).
func (c Config) permSource(ctx context.Context, tree *mining.Tree, rules []mining.Rule) (permute.RoundRunner, error) {
	if len(c.ShardWorkers) == 0 {
		e, err := permute.NewEngine(tree, rules, c.permConfig(ctx))
		if err != nil {
			return nil, err
		}
		return e.ShardSpan, nil
	}
	coord, err := shard.NewCoordinator(c.ShardWorkers, len(rules))
	if err != nil {
		return nil, err
	}
	return func(lo, hi int, live []bool, withPool bool) (*permute.ShardStats, error) {
		return coord.Span(ctx, lo, hi, live, withPool)
	}, nil
}

// permConfig derives the permutation engine configuration of a normalized
// Config: the schedule's full budget, with labels deferred to the spans.
func (c Config) permConfig(ctx context.Context) permute.Config {
	return permute.Config{
		NumPerms:     c.schedule().MaxPerms,
		Seed:         c.Seed,
		Opt:          c.Opt,
		StaticBudget: c.StaticBudget,
		Workers:      c.Workers,
		Test:         c.Test,
		DeferLabels:  true,
		Ctx:          ctx,
	}
}

// runNull runs cfg's permutation schedule over the scored rules and
// returns the null statistics. pool asks the walk to accumulate the
// pooled histogram FDR consumes (AdaptFDR); without it the walk keeps
// only the per-permutation minima FWER needs. Under an adaptive schedule
// the mode also selects the retirement statistic, so it must match the
// config's control; a fixed schedule retires nothing, and one pooled walk
// serves FWER and FDR configs alike.
func (c Config) runNull(ctx context.Context, tree *mining.Tree, rules []mining.Rule, pool bool) (*permute.AdaptiveResult, error) {
	run, err := c.permSource(ctx, tree, rules)
	if err != nil {
		return nil, err
	}
	ps := make([]float64, len(rules))
	for i := range rules {
		ps[i] = rules[i].P
	}
	mode := permute.AdaptFWER
	if pool {
		mode = permute.AdaptFDR
	}
	return permute.DriveAdaptive(ps, c.schedule(), mode, c.Alpha, run)
}

// permOutcome derives one config's correction outcome and telemetry from
// a permutation null — shared by single runs and batch groups so the two
// paths cannot diverge. The telemetry is nil for fixed runs.
func permOutcome(cfg Config, res *permute.AdaptiveResult, rules []mining.Rule) (*correction.Outcome, *PermStats) {
	var outcome *correction.Outcome
	if cfg.Control == ControlFWER {
		outcome = correction.AdaptivePermFWER(res, rules, cfg.Alpha)
	} else {
		outcome = correction.AdaptivePermFDR(res, rules, cfg.Alpha)
	}
	if !cfg.Adaptive.Enabled() {
		return outcome, nil
	}
	return outcome, &PermStats{
		Rounds:       res.Rounds,
		PermsRun:     res.PermsRun,
		MaxPerms:     cfg.Adaptive.MaxPerms,
		RulesRetired: res.RulesRetired,
		PermsSaved:   res.PermsSaved,
	}
}

// runHoldout executes the two-phase holdout pipeline.
func runHoldout(ctx context.Context, d *dataset.Dataset, cfg Config) (*Result, error) {
	start := time.Now()
	var explore, eval *dataset.Dataset
	if cfg.HoldoutRandom {
		explore, eval = d.RandomSplit(cfg.Seed)
	} else {
		explore, eval = d.SplitHalves()
	}
	minSupExplore := cfg.MinSup / cfg.HoldoutMinSupDivisor
	if minSupExplore < 1 {
		minSupExplore = 1
	}
	hres, err := correction.Holdout(explore, eval, correction.HoldoutConfig{
		MinSupExplore: minSupExplore,
		Alpha:         cfg.Alpha,
		UseFDR:        cfg.Control == ControlFDR,
		Policy:        cfg.Policy,
		Class:         cfg.FixedClass,
		MaxLen:        cfg.MaxLen,
		Workers:       cfg.Workers,
		Ctx:           ctx,
	})
	if err != nil {
		return nil, err
	}
	res := &Result{
		Method:      MethodHoldout,
		Control:     cfg.Control,
		Alpha:       cfg.Alpha,
		MinSup:      cfg.MinSup,
		NumRecords:  d.NumRecords(),
		NumTested:   hres.NumExploreTested,
		Cutoff:      hres.Outcome.Cutoff,
		Outcome:     hres.Outcome,
		Holdout:     hres,
		CorrectTime: time.Since(start),
	}
	for _, i := range hres.Outcome.Significant {
		c := &hres.Candidates[i]
		r := Rule{
			Attrs:      c.Attrs,
			Vals:       c.Vals,
			Class:      d.Schema.Class.Values[c.Class],
			ClassIndex: c.Class,
			Coverage:   c.EvalCvg,
			Support:    c.EvalSupp,
			Confidence: c.EvalConf,
			P:          c.EvalP,
		}
		for k, a := range c.Attrs {
			r.Items = append(r.Items, fmt.Sprintf("%s=%s",
				d.Schema.Attrs[a].Name, d.Schema.Attrs[a].Values[c.Vals[k]]))
		}
		res.Significant = append(res.Significant, r)
	}
	sortRules(res.Significant)
	return res, nil
}

// toRule converts a mined rule into user-facing form.
func toRule(r *mining.Rule, enc *dataset.Encoding) Rule {
	out := Rule{
		Class:      enc.Schema.Class.Values[r.Class],
		ClassIndex: r.Class,
		Coverage:   r.Coverage,
		Support:    r.Support,
		Confidence: r.Confidence,
		P:          r.P,
	}
	for _, it := range r.Node.Closure {
		a, v := enc.AttrValue(it)
		out.Attrs = append(out.Attrs, a)
		out.Vals = append(out.Vals, v)
		out.Items = append(out.Items, enc.String(it))
	}
	return out
}

// sortRules orders reported rules by ascending p, then descending
// coverage.
func sortRules(rules []Rule) {
	sort.SliceStable(rules, func(i, j int) bool {
		if rules[i].P != rules[j].P {
			return rules[i].P < rules[j].P
		}
		return rules[i].Coverage > rules[j].Coverage
	})
}
