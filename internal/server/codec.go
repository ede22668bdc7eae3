package server

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/permute"
)

// ConfigJSON is the wire form of a core.Config: enum-valued fields travel
// as lower-case strings ("direct", "fdr", "fisher", ...) so request bodies
// stay readable and stable across internal renumbering. Zero fields keep
// the library defaults (Alpha 0.05, 1000 permutations, Fisher test, all
// CPUs).
type ConfigJSON struct {
	MinSup            int     `json:"min_sup,omitempty"`
	MinSupFrac        float64 `json:"min_sup_frac,omitempty"`
	MinConf           float64 `json:"min_conf,omitempty"`
	Alpha             float64 `json:"alpha,omitempty"`
	Control           string  `json:"control,omitempty"`
	Method            string  `json:"method,omitempty"`
	Permutations      int     `json:"permutations,omitempty"`
	Seed              uint64  `json:"seed,omitempty"`
	Workers           int     `json:"workers,omitempty"`
	MaxLen            int     `json:"max_len,omitempty"`
	MaxNodes          int     `json:"max_nodes,omitempty"`
	Test              string  `json:"test,omitempty"`
	RedundancyEpsilon float64 `json:"redundancy_epsilon,omitempty"`
	HoldoutRandom     bool    `json:"holdout_random,omitempty"`
	// Adaptive switches permutation runs into sequential early-stopping
	// mode; max_perms is the permutation budget and must be positive when
	// the object is present.
	Adaptive *AdaptiveJSON `json:"adaptive,omitempty"`
}

// AdaptiveJSON is the wire form of permute.Adaptive.
type AdaptiveJSON struct {
	MinPerms    int `json:"min_perms,omitempty"`
	MaxPerms    int `json:"max_perms"`
	Exceedances int `json:"exceedances,omitempty"`
}

// ToConfig decodes the wire form into a core.Config. The method defaults
// to "direct" when empty; unknown enum strings are rejected.
func (c ConfigJSON) ToConfig() (core.Config, error) {
	cfg := core.Config{
		MinSup:            c.MinSup,
		MinSupFrac:        c.MinSupFrac,
		MinConf:           c.MinConf,
		Alpha:             c.Alpha,
		Permutations:      c.Permutations,
		Seed:              c.Seed,
		Workers:           c.Workers,
		MaxLen:            c.MaxLen,
		MaxNodes:          c.MaxNodes,
		RedundancyEpsilon: c.RedundancyEpsilon,
		HoldoutRandom:     c.HoldoutRandom,
	}
	var err error
	if cfg.Control, err = core.ParseControl(c.Control); err != nil {
		return cfg, err
	}
	method := c.Method
	if method == "" {
		method = "direct"
	}
	if cfg.Method, err = core.ParseMethod(method); err != nil {
		return cfg, err
	}
	if cfg.Test, err = core.ParseTest(c.Test); err != nil {
		return cfg, err
	}
	if c.Adaptive != nil {
		if c.Adaptive.MaxPerms <= 0 {
			return cfg, fmt.Errorf("adaptive.max_perms must be > 0, got %d", c.Adaptive.MaxPerms)
		}
		cfg.Adaptive = permute.Adaptive{
			MinPerms:    c.Adaptive.MinPerms,
			MaxPerms:    c.Adaptive.MaxPerms,
			Exceedances: c.Adaptive.Exceedances,
		}
	}
	return cfg, nil
}

// RuleJSON is the wire form of one significant rule.
type RuleJSON struct {
	Items      []string `json:"items"`
	Class      string   `json:"class"`
	Coverage   int      `json:"coverage"`
	Support    int      `json:"support"`
	Confidence float64  `json:"confidence"`
	P          float64  `json:"p"`
}

// RunJSON is the wire form of one mining run's result.
type RunJSON struct {
	Method         string  `json:"method"`
	Control        string  `json:"control"`
	Alpha          float64 `json:"alpha"`
	MinSup         int     `json:"min_sup"`
	NumRecords     int     `json:"num_records"`
	NumPatterns    int     `json:"num_patterns"`
	NumTested      int     `json:"num_tested"`
	NumSignificant int     `json:"num_significant"`
	Cutoff         float64 `json:"cutoff"`
	MineMillis     float64 `json:"mine_ms"`
	CorrectMillis  float64 `json:"correct_ms"`
	// Perm carries the adaptive engine's telemetry; absent for
	// non-adaptive runs.
	Perm  *PermStatsJSON `json:"perm,omitempty"`
	Rules []RuleJSON     `json:"rules"`
}

// PermStatsJSON is the wire form of core.PermStats.
type PermStatsJSON struct {
	Rounds       int   `json:"rounds"`
	PermsRun     int   `json:"perms_run"`
	MaxPerms     int   `json:"max_perms"`
	RulesRetired int   `json:"rules_retired"`
	PermsSaved   int64 `json:"perms_saved"`
}

// EncodeRun converts a pipeline result into wire form, truncating the rule
// list to limit entries (0 = all).
func EncodeRun(res *core.Result, limit int) RunJSON {
	run := RunJSON{
		Method:         res.Method.String(),
		Control:        res.Control.String(),
		Alpha:          res.Alpha,
		MinSup:         res.MinSup,
		NumRecords:     res.NumRecords,
		NumPatterns:    res.NumPatterns,
		NumTested:      res.NumTested,
		NumSignificant: len(res.Significant),
		Cutoff:         res.Cutoff,
		MineMillis:     float64(res.MineTime.Microseconds()) / 1e3,
		CorrectMillis:  float64(res.CorrectTime.Microseconds()) / 1e3,
		Rules:          []RuleJSON{},
	}
	if res.Perm != nil {
		run.Perm = &PermStatsJSON{
			Rounds:       res.Perm.Rounds,
			PermsRun:     res.Perm.PermsRun,
			MaxPerms:     res.Perm.MaxPerms,
			RulesRetired: res.Perm.RulesRetired,
			PermsSaved:   res.Perm.PermsSaved,
		}
	}
	n := len(res.Significant)
	if limit > 0 && n > limit {
		n = limit
	}
	for _, r := range res.Significant[:n] {
		run.Rules = append(run.Rules, RuleJSON{
			Items:      r.Items,
			Class:      r.Class,
			Coverage:   r.Coverage,
			Support:    r.Support,
			Confidence: r.Confidence,
			P:          r.P,
		})
	}
	return run
}

// StatsJSON is the wire form of a session's stage counters plus its
// cache occupancy — the observable evidence that the size bounds hold in a
// long-lived process.
type StatsJSON struct {
	Encodes       int64 `json:"encodes"`
	Mines         int64 `json:"mines"`
	Scores        int64 `json:"scores"`
	TreeHits      int64 `json:"tree_hits"`
	ScoreHits     int64 `json:"score_hits"`
	Corrections   int64 `json:"corrections"`
	AdaptiveRuns  int64 `json:"adaptive_runs"`
	PermsSaved    int64 `json:"perms_saved"`
	Holdouts      int64 `json:"holdouts"`
	TreeEvictions int64 `json:"tree_evictions"`
	RuleEvictions int64 `json:"rule_evictions"`
	CachedTrees   int64 `json:"cached_trees"`
	CachedRules   int64 `json:"cached_rules"`
}

// EncodeStats converts session stage counters into wire form.
func EncodeStats(st core.SessionStats) StatsJSON {
	return StatsJSON{
		Encodes:       st.Encodes,
		Mines:         st.Mines,
		Scores:        st.Scores,
		TreeHits:      st.TreeHits,
		ScoreHits:     st.ScoreHits,
		Corrections:   st.Corrections,
		AdaptiveRuns:  st.AdaptiveRuns,
		PermsSaved:    st.PermsSaved,
		Holdouts:      st.Holdouts,
		TreeEvictions: st.TreeEvictions,
		RuleEvictions: st.RuleEvictions,
		CachedTrees:   st.CachedTrees,
		CachedRules:   st.CachedRules,
	}
}

// validateConfigs decodes a batch of wire configs, rejecting the first
// malformed entry with its index in the error — before any mining starts.
func validateConfigs(cfgs []ConfigJSON) ([]core.Config, error) {
	out := make([]core.Config, len(cfgs))
	for i, cj := range cfgs {
		cfg, err := cj.ToConfig()
		if err != nil {
			return nil, fmt.Errorf("config %d: %w", i, err)
		}
		out[i] = cfg
	}
	return out, nil
}
