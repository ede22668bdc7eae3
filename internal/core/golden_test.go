package core

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/big"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/dataset"
	"repro/internal/permute"
	"repro/internal/shard"
)

// The statistical golden-test corpus: three tiny hand-checkable datasets
// under testdata/golden with exact expected Fisher p-values (verified
// against an exact-rational oracle) and the significant sets of every
// correction Method × Control, recorded once as golden JSON. The
// end-to-end test requires every Method × Control × OptLevel — including
// adaptive permutation mode with MaxPerms reached — to reproduce the
// recorded results byte for byte.
//
// Regenerate with: go test ./internal/core -run TestGolden -update

var updateGolden = flag.Bool("update", false, "rewrite the testdata/golden JSON files")

const goldenDir = "../../testdata/golden"

// goldenCase fixes one dataset's mining parameters.
type goldenCase struct {
	name   string
	minSup int
}

var goldenCases = []goldenCase{
	{"contrast", 6},
	{"skew", 5},
	{"tri", 5},
}

// Permutation settings shared by every golden permutation run.
const (
	goldenPerms    = 200
	goldenSeed     = 5
	goldenMinPerms = 50
)

// goldenRule records one tested rule with its production p-value (full
// round-trip precision, compared byte for byte) and the exact-oracle
// p-value it was validated against at -update time.
type goldenRule struct {
	Items    []string `json:"items"`
	Class    string   `json:"class"`
	Coverage int      `json:"coverage"`
	Support  int      `json:"support"`
	P        string   `json:"p"`
	OracleP  string   `json:"oracle_p"`
}

// goldenOutcome records one correction run's decision.
type goldenOutcome struct {
	Name    string `json:"name"`
	Method  string `json:"method"`
	Control string `json:"control"`
	// Adaptive marks sequential early-stopping permutation runs;
	// PermsRun/RulesRetired record their schedule.
	Adaptive     bool     `json:"adaptive,omitempty"`
	PermsRun     int      `json:"perms_run,omitempty"`
	RulesRetired int      `json:"rules_retired,omitempty"`
	Cutoff       string   `json:"cutoff"`
	Significant  []int    `json:"significant"`
	Rules        []string `json:"rules"`
}

// goldenFile is one dataset's recorded expectations.
type goldenFile struct {
	Dataset    string          `json:"dataset"`
	MinSup     int             `json:"min_sup"`
	NumRecords int             `json:"num_records"`
	NumTested  int             `json:"num_tested"`
	Rules      []goldenRule    `json:"rules"`
	Outcomes   []goldenOutcome `json:"outcomes"`
}

// fmtFloat renders a float with full round-trip precision, so golden
// comparisons are bit-exact.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', 17, 64) }

// oracleFisher computes the two-tailed Fisher exact p-value of a 2×2
// table in exact rational arithmetic: the sum of all hypergeometric terms
// no more probable than the observed one, for n records of which nc carry
// the class, coverage sx and support k. It is an independent
// implementation — big.Int binomials, no logs, no floats — so agreement
// with the production path is meaningful.
func oracleFisher(n, nc, sx, k int) *big.Rat {
	choose := func(n, k int64) *big.Int { return new(big.Int).Binomial(n, k) }
	denom := new(big.Rat).SetInt(choose(int64(n), int64(sx)))
	pmf := func(j int) *big.Rat {
		num := new(big.Int).Mul(choose(int64(nc), int64(j)), choose(int64(n-nc), int64(sx-j)))
		return new(big.Rat).Quo(new(big.Rat).SetInt(num), denom)
	}
	lo := nc + sx - n
	if lo < 0 {
		lo = 0
	}
	hi := nc
	if sx < hi {
		hi = sx
	}
	obs := pmf(k)
	sum := new(big.Rat)
	for j := lo; j <= hi; j++ {
		if t := pmf(j); t.Cmp(obs) <= 0 {
			sum.Add(sum, t)
		}
	}
	return sum
}

// loadGoldenDataset reads one corpus CSV (categorical columns only, class
// last).
func loadGoldenDataset(t *testing.T, name string) *dataset.Dataset {
	t.Helper()
	tab, err := dataset.ReadTableFile(filepath.Join(goldenDir, name+".csv"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := tab.ToDataset(len(tab.Header) - 1)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// goldenConfigs returns the correction matrix. optSweep entries are run
// at every OptLevel and must agree across levels.
func goldenConfigs(minSup int) []struct {
	name     string
	cfg      Config
	optSweep bool
} {
	base := Config{MinSup: minSup, Seed: goldenSeed, Permutations: goldenPerms}
	mk := func(m Method, c Control) Config {
		cfg := base
		cfg.Method = m
		cfg.Control = c
		return cfg
	}
	adaptive := func(c Control) Config {
		cfg := mk(MethodPermutation, c)
		cfg.Adaptive = permute.Adaptive{MinPerms: goldenMinPerms, MaxPerms: goldenPerms}
		return cfg
	}
	holdout := mk(MethodHoldout, ControlFWER)
	holdout.HoldoutRandom = true
	return []struct {
		name     string
		cfg      Config
		optSweep bool
	}{
		{"none-fwer", mk(MethodNone, ControlFWER), false},
		{"direct-fwer", mk(MethodDirect, ControlFWER), false},
		{"direct-fdr", mk(MethodDirect, ControlFDR), false},
		{"layered-fwer", mk(MethodLayered, ControlFWER), false},
		{"perm-fwer", mk(MethodPermutation, ControlFWER), true},
		{"perm-fdr", mk(MethodPermutation, ControlFDR), true},
		{"adaptive-fwer", adaptive(ControlFWER), true},
		{"adaptive-fdr", adaptive(ControlFDR), true},
		{"holdout-fwer", holdout, false},
	}
}

// renderRule is the stable one-line form of a significant rule.
func renderRule(r Rule) string {
	return fmt.Sprintf("%s => %s (cvg=%d supp=%d p=%s)",
		strings.Join(r.Items, " ^ "), r.Class, r.Coverage, r.Support, fmtFloat(r.P))
}

// outcomeFromResult renders one correction run as its golden record.
func outcomeFromResult(name string, ref *Result) goldenOutcome {
	out := goldenOutcome{
		Name:    name,
		Method:  ref.Method.String(),
		Control: ref.Control.String(),
		Cutoff:  fmtFloat(ref.Cutoff),
		Rules:   []string{},
	}
	if ref.Perm != nil {
		out.Adaptive = true
		out.PermsRun = ref.Perm.PermsRun
		out.RulesRetired = ref.Perm.RulesRetired
	}
	if ref.Outcome != nil {
		out.Significant = append([]int{}, ref.Outcome.Significant...)
	}
	if out.Significant == nil {
		out.Significant = []int{}
	}
	for _, r := range ref.Significant {
		out.Rules = append(out.Rules, renderRule(r))
	}
	return out
}

// buildGolden runs the full matrix on one dataset and assembles its
// golden file, asserting the cross-OptLevel agreement along the way.
func buildGolden(t *testing.T, gc goldenCase) *goldenFile {
	t.Helper()
	d := loadGoldenDataset(t, gc.name)
	enc := dataset.Encode(d)
	sess := NewSession(d)

	gf := &goldenFile{Dataset: gc.name, MinSup: gc.minSup, NumRecords: d.NumRecords()}
	for _, entry := range goldenConfigs(gc.minSup) {
		var ref *Result
		levels := []permute.OptLevel{permute.OptStaticBuffer}
		if entry.optSweep {
			levels = []permute.OptLevel{permute.OptNone, permute.OptDynamicBuffer, permute.OptDiffsets, permute.OptStaticBuffer}
		}
		for _, opt := range levels {
			cfg := entry.cfg
			cfg.Opt = opt
			cfg.OptSet = true
			res, err := sess.Run(cfg)
			if err != nil {
				t.Fatalf("%s/%s opt=%v: %v", gc.name, entry.name, opt, err)
			}
			if ref == nil {
				ref = res
				continue
			}
			// Every optimisation level must reproduce the same decision.
			if res.Cutoff != ref.Cutoff || len(res.Significant) != len(ref.Significant) {
				t.Fatalf("%s/%s opt=%v: cutoff/significant (%g, %d) differ from first level (%g, %d)",
					gc.name, entry.name, opt, res.Cutoff, len(res.Significant), ref.Cutoff, len(ref.Significant))
			}
			for i := range res.Significant {
				if renderRule(res.Significant[i]) != renderRule(ref.Significant[i]) {
					t.Fatalf("%s/%s opt=%v: rule %d differs across levels", gc.name, entry.name, opt, i)
				}
			}
		}

		gf.Outcomes = append(gf.Outcomes, outcomeFromResult(entry.name, ref))

		// The tested rule set (shared by every non-holdout entry): record
		// it once, with each p-value validated against the exact oracle.
		if gf.Rules == nil && ref.Tested != nil {
			gf.NumTested = len(ref.Tested)
			for i := range ref.Tested {
				mr := &ref.Tested[i]
				gr := goldenRule{
					Class:    enc.Enc.Schema.Class.Values[mr.Class],
					Coverage: mr.Coverage,
					Support:  mr.Support,
					P:        fmtFloat(mr.P),
				}
				for _, it := range mr.Node.Closure {
					gr.Items = append(gr.Items, enc.Enc.String(it))
				}
				oracle := oracleFisher(enc.NumRecords, enc.ClassCounts[mr.Class], mr.Coverage, mr.Support)
				of, _ := oracle.Float64()
				gr.OracleP = oracle.FloatString(25)
				if diff := math.Abs(mr.P - of); diff > 1e-9*of+1e-300 {
					t.Errorf("%s rule %d (%s => %s): production p %.17g differs from exact oracle %.17g",
						gc.name, i, strings.Join(gr.Items, " ^ "), gr.Class, mr.P, of)
				}
				gf.Rules = append(gf.Rules, gr)
			}
		}
	}
	return gf
}

// TestGoldenCorpus runs every Method × Control × OptLevel on the three
// corpus datasets and requires byte-for-byte agreement with the committed
// golden JSON (p-values at full round-trip precision, significant sets,
// cutoffs) — including the adaptive permutation entries, whose schedule
// must have reached MaxPerms.
func TestGoldenCorpus(t *testing.T) {
	for _, gc := range goldenCases {
		t.Run(gc.name, func(t *testing.T) {
			gf := buildGolden(t, gc)

			// The ISSUE's "MaxPerms reached" requirement: the adaptive
			// schedule must not have stopped early on any corpus dataset.
			for _, out := range gf.Outcomes {
				if out.Adaptive && out.PermsRun != goldenPerms {
					t.Errorf("%s/%s: adaptive run stopped at %d of %d perms", gc.name, out.Name, out.PermsRun, goldenPerms)
				}
			}

			got, err := json.MarshalIndent(gf, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join(goldenDir, gc.name+".golden.json")
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d rules, %d outcomes)", path, len(gf.Rules), len(gf.Outcomes))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create the golden file)", err)
			}
			if string(got) != string(want) {
				t.Errorf("%s: results diverge from the golden file;\n got: %s\nrun with -update after verifying the change is intentional", gc.name, got)
			}
		})
	}
}

// peerWorker is a loopback shard peer: it evaluates each assignment with
// Session.ShardSpan, exactly the call a server's /shard handler makes,
// minus the HTTP hop.
type peerWorker struct {
	sess *Session
	cfg  Config
}

func (p peerWorker) Span(ctx context.Context, req shard.Request) (*shard.Reply, error) {
	return p.sess.ShardSpan(ctx, p.cfg, req)
}

// withPeers fans cfg out to n loopback peers over sess (n = 0 leaves it
// single-node).
func withPeers(sess *Session, cfg Config, n int) Config {
	workers := make([]shard.Worker, n)
	for i := range workers {
		workers[i] = peerWorker{sess: sess, cfg: cfg}
	}
	cfg.ShardWorkers = workers
	return cfg
}

// goldenShardedFile records the distributed e2e entry of the corpus: every
// permutation config of one dataset evaluated across coordinated shards.
type goldenShardedFile struct {
	Dataset  string          `json:"dataset"`
	Shards   int             `json:"shards"`
	Outcomes []goldenOutcome `json:"outcomes"`
}

// TestGoldenShardedCorpus is the distributed half of the golden contract:
// the permutation and adaptive configs of the corpus run across 3
// loopback peers (Session.ShardSpan, the peer's /shard call) must
// byte-reproduce both the committed
// sharded golden file and the corresponding single-node outcomes in the
// per-dataset golden JSON — sharding may move work, never answers.
// Regenerate with: go test ./internal/core -run TestGoldenSharded -update
func TestGoldenShardedCorpus(t *testing.T) {
	const shards = 3
	gc := goldenCases[0] // contrast
	d := loadGoldenDataset(t, gc.name)
	sess := NewSession(d)

	sf := &goldenShardedFile{Dataset: gc.name, Shards: shards}
	for _, entry := range goldenConfigs(gc.minSup) {
		if entry.cfg.Method != MethodPermutation {
			continue
		}
		cfg := entry.cfg
		cfg.Opt = permute.OptStaticBuffer
		cfg.OptSet = true
		res, err := sess.Run(withPeers(sess, cfg, shards))
		if err != nil {
			t.Fatalf("%s/%s shards=%d: %v", gc.name, entry.name, shards, err)
		}
		sf.Outcomes = append(sf.Outcomes, outcomeFromResult(entry.name, res))
	}

	got, err := json.MarshalIndent(sf, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join(goldenDir, "sharded.golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d outcomes)", path, len(sf.Outcomes))
	} else {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create the golden file)", err)
		}
		if string(got) != string(want) {
			t.Errorf("sharded results diverge from the golden file;\n got: %s\nrun with -update after verifying the change is intentional", got)
		}
	}

	// Cross-file identity: every sharded outcome must byte-equal the
	// single-node outcome of the same name in the dataset's golden file.
	raw, err := os.ReadFile(filepath.Join(goldenDir, gc.name+".golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var gf goldenFile
	if err := json.Unmarshal(raw, &gf); err != nil {
		t.Fatal(err)
	}
	single := make(map[string]string, len(gf.Outcomes))
	for _, out := range gf.Outcomes {
		b, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		single[out.Name] = string(b)
	}
	for _, out := range sf.Outcomes {
		b, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		want, ok := single[out.Name]
		if !ok {
			t.Fatalf("no single-node golden outcome named %q", out.Name)
		}
		if string(b) != want {
			t.Errorf("%s: sharded outcome diverged from single-node golden:\n got: %s\nwant: %s", out.Name, b, want)
		}
	}
}

// goldenSegmentedFile records the out-of-core e2e entry of the corpus:
// the permutation configs of one dataset mined from a segment store
// across coordinated shards.
type goldenSegmentedFile struct {
	Dataset    string          `json:"dataset"`
	Shards     int             `json:"shards"`
	SegRecords int             `json:"seg_records"`
	Segments   int             `json:"segments"`
	Outcomes   []goldenOutcome `json:"outcomes"`
}

// TestGoldenSegmentedCorpus is the out-of-core third of the golden
// contract: the permutation and adaptive configs of the corpus dataset,
// mined from a segment store split into 7-record segments and fanned
// across 3 loopback peers, must byte-reproduce both the committed segmented
// golden file and the sharded golden outcomes — storage layout may move
// bytes, never answers.
// Regenerate with: go test ./internal/core -run TestGoldenSegmented -update
func TestGoldenSegmentedCorpus(t *testing.T) {
	const shards, segRecords = 3, 7
	gc := goldenCases[0] // contrast, matching the sharded golden entry
	f, err := os.Open(filepath.Join(goldenDir, gc.name+".csv"))
	if err != nil {
		t.Fatal(err)
	}
	store, err := colstore.Create(filepath.Join(t.TempDir(), gc.name), f, colstore.Options{SegRecords: segRecords})
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSessionSource(store)

	sf := &goldenSegmentedFile{Dataset: gc.name, Shards: shards, SegRecords: segRecords, Segments: store.NumSegments()}
	if sf.Segments < 2 {
		t.Fatalf("corpus too small to segment: %d segment(s)", sf.Segments)
	}
	for _, entry := range goldenConfigs(gc.minSup) {
		if entry.cfg.Method != MethodPermutation {
			continue
		}
		cfg := entry.cfg
		cfg.Opt = permute.OptStaticBuffer
		cfg.OptSet = true
		res, err := sess.Run(withPeers(sess, cfg, shards))
		if err != nil {
			t.Fatalf("%s/%s shards=%d: %v", gc.name, entry.name, shards, err)
		}
		sf.Outcomes = append(sf.Outcomes, outcomeFromResult(entry.name, res))
	}

	got, err := json.MarshalIndent(sf, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join(goldenDir, "segmented.golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d outcomes)", path, len(sf.Outcomes))
	} else {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create the golden file)", err)
		}
		if string(got) != string(want) {
			t.Errorf("segmented results diverge from the golden file;\n got: %s\nrun with -update after verifying the change is intentional", got)
		}
	}

	// Cross-file identity: every segmented outcome must byte-equal the
	// sharded outcome of the same name — the store is a storage detail.
	raw, err := os.ReadFile(filepath.Join(goldenDir, "sharded.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sharded goldenShardedFile
	if err := json.Unmarshal(raw, &sharded); err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]string, len(sharded.Outcomes))
	for _, out := range sharded.Outcomes {
		b, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		byName[out.Name] = string(b)
	}
	for _, out := range sf.Outcomes {
		b, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		want, ok := byName[out.Name]
		if !ok {
			t.Fatalf("no sharded golden outcome named %q", out.Name)
		}
		if string(b) != want {
			t.Errorf("%s: segmented outcome diverged from sharded golden:\n got: %s\nwant: %s", out.Name, b, want)
		}
	}
}

// TestGoldenOracleIndependence spot-checks the oracle itself on a case
// small enough to verify by hand: 24 records, 12 per class, coverage 12,
// support 11. The hypergeometric terms for k=11 and k=12 are
// 144/2704156 and 1/2704156; by symmetry k=0 and k=1 mirror them, so the
// two-tailed p-value is exactly 290/2704156 = 145/1352078.
func TestGoldenOracleIndependence(t *testing.T) {
	got := oracleFisher(24, 12, 12, 11)
	want := big.NewRat(145, 1352078)
	if got.Cmp(want) != 0 {
		t.Fatalf("oracleFisher(24,12,12,11) = %s, want %s", got.RatString(), want.RatString())
	}
}
