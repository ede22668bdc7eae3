// Package repro is a Go reproduction of Liu, Zhang & Wong, "Controlling
// False Positives in Association Rule Mining" (PVLDB 5(2), VLDB 2011).
//
// It mines class association rules X ⇒ c (closed frequent patterns over
// categorical attribute–value items, class labels on the right-hand side),
// scores each rule's statistical significance with the two-tailed Fisher
// exact test, and controls false positives with any of the paper's three
// multiple-testing correction approaches:
//
//   - direct adjustment — Bonferroni (FWER) or Benjamini–Hochberg (FDR);
//   - permutation-based — Westfall–Young min-p cut-off (FWER) or pooled
//     empirical p-values + BH (FDR), accelerated with the paper's
//     mine-once, Diffsets and p-value-buffering optimisations;
//   - holdout — mine on an exploratory half, validate survivors on an
//     evaluation half (Webb, 2007).
//
// # Quick start
//
//	d, err := repro.LoadCSVFile("data.csv")          // last column = class
//	res, err := repro.Mine(d, repro.Config{
//	    MinSupFrac: 0.05,
//	    Control:    repro.ControlFDR,
//	    Method:     repro.MethodDirect,
//	})
//	for _, r := range res.Significant {
//	    fmt.Println(r.Items, "=>", r.Class, r.P)
//	}
//
// # Parallelism and reproducibility
//
// The pipeline is an explicit staged run (encode → mine → score →
// correct) whose two hot stages — closed pattern enumeration and
// permutation re-evaluation — execute on a bounded worker pool:
//
//   - Config.Workers sets the pool size (default runtime.GOMAXPROCS).
//     Every result is byte-identical for every worker count: first-level
//     enumeration subtrees merge back in deterministic order, and each
//     permutation derives its own RNG from (Config.Seed, permutation
//     index).
//   - Config.Seed makes runs reproducible. Seeding is fully explicit —
//     nothing reads global or time-based randomness — so equal (Seed,
//     Config) pairs reproduce identical rule sets and p-values.
//   - MineContext threads a context.Context through every stage; cancel
//     it to abort long mining or permutation runs promptly.
//
// # Sessions: many configs, one dataset
//
// When several configurations run against one dataset — comparing
// correction methods, sweeping alpha, serving repeated traffic — build a
// Session. It caches the expensive prepared stages (encode, mine, score)
// keyed by the subset of Config that affects them, so N configs differing
// only in correction method/control/alpha/seed/permutations cost one mine
// plus N cheap corrections:
//
//	sess := repro.NewSession(d)
//	results, err := sess.MineBatch(ctx, []repro.Config{
//	    {MinSup: 60, Method: repro.MethodDirect, Control: repro.ControlFWER},
//	    {MinSup: 60, Method: repro.MethodDirect, Control: repro.ControlFDR},
//	    {MinSup: 60, Method: repro.MethodPermutation, Permutations: 1000},
//	})
//
// Session results are byte-identical to fresh Mine calls. Session stage
// caches are size-bounded (CacheLimits): long-lived sessions evict their
// least-recently-used prepared stages instead of growing without bound.
//
// # Serving
//
// The pipeline is also available as a long-lived HTTP/JSON service: named
// datasets live in a capacity-bounded LRU Registry of Sessions, and a
// Server exposes upload, mine, batch and stats endpoints with per-request
// timeouts and graceful drain on shutdown ("armine serve" is the CLI
// entry point):
//
//	reg := repro.NewRegistry(16, repro.CacheLimits{})
//	reg.Register("census", d)
//	srv := repro.NewServer(reg, repro.ServeOptions{Addr: ":8080"})
//	go srv.ListenAndServe()
//	...
//	srv.Shutdown(ctx) // drains in-flight mining
//
// See Server.Handler for the endpoint table; concurrent requests against
// one dataset share mining stages through the session caches.
//
// The heavy machinery lives in internal packages; this package is the
// supported surface: datasets (LoadCSV/FromTable/Synthetic/UCIStandIn),
// the pipeline (Mine/MineContext, Session/NewSession for repeated
// mining), the HTTP service (Registry/NewServer), and the result types.
package repro

import (
	"context"
	"io"
	"os"

	"repro/internal/basket"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/correction"
	"repro/internal/dataset"
	"repro/internal/disc"
	"repro/internal/mining"
	"repro/internal/permute"
	"repro/internal/server"
	"repro/internal/synth"
	"repro/internal/uci"
)

// Dataset is a categorical, class-labelled record table.
type Dataset = dataset.Dataset

// Schema describes a Dataset's attributes and class labels.
type Schema = dataset.Schema

// Attribute is one categorical attribute (name + value vocabulary).
type Attribute = dataset.Attribute

// Table is a raw string-valued table (the CSV intermediate form).
type Table = dataset.Table

// Config configures Mine. The zero value needs at least MinSup or
// MinSupFrac; all other fields have sensible defaults (Alpha 0.05,
// Method direct, Control FWER, 1000 permutations).
type Config = core.Config

// Result is the outcome of a Mine run.
type Result = core.Result

// Rule is one reported significant rule.
type Rule = core.Rule

// Control selects the error measure (FWER or FDR).
type Control = core.Control

// Method selects the correction approach.
type Method = core.Method

// OptLevel selects which permutation-cost optimisations are active.
type OptLevel = permute.OptLevel

// Adaptive configures sequential early-stopping permutation testing
// (Config.Adaptive): a positive MaxPerms enables rounds with early rule
// retirement; Exceedances < 0 disables retirement, making the run
// byte-identical to a fixed run of MaxPerms permutations.
type Adaptive = permute.Adaptive

// PermStats reports an adaptive permutation run's telemetry
// (Result.Perm): rounds executed, permutations run, rules retired, and
// the rule-permutation evaluations saved versus a fixed run.
type PermStats = core.PermStats

// TestKind selects the significance test scoring each rule.
type TestKind = mining.TestKind

// SynthParams configures the synthetic dataset generator (Table 1 of the
// paper).
type SynthParams = synth.Params

// SynthResult bundles a generated dataset with its embedded ground truth.
type SynthResult = synth.Result

// EmbeddedRule is one planted ground-truth rule.
type EmbeddedRule = synth.EmbeddedRule

const (
	// ControlFWER controls the family-wise error rate.
	ControlFWER = core.ControlFWER
	// ControlFDR controls the false discovery rate.
	ControlFDR = core.ControlFDR

	// MethodNone reports every rule with p <= Alpha (no correction).
	MethodNone = core.MethodNone
	// MethodDirect is Bonferroni / Benjamini–Hochberg.
	MethodDirect = core.MethodDirect
	// MethodPermutation is the permutation-based approach.
	MethodPermutation = core.MethodPermutation
	// MethodHoldout is Webb's holdout evaluation.
	MethodHoldout = core.MethodHoldout
	// MethodLayered is Webb's layered critical values (FWER only).
	MethodLayered = core.MethodLayered

	// OptNone disables Diffsets and p-value buffering.
	OptNone = permute.OptNone
	// OptDynamicBuffer enables only the one-slot dynamic p-value buffer.
	OptDynamicBuffer = permute.OptDynamicBuffer
	// OptDiffsets adds Diffset storage to the dynamic buffer.
	OptDiffsets = permute.OptDiffsets
	// OptStaticBuffer adds the byte-budgeted static buffer (the default).
	OptStaticBuffer = permute.OptStaticBuffer

	// TestFisher is the paper's two-tailed Fisher exact test (default).
	TestFisher = mining.TestFisher
	// TestMidP is the less-conservative mid-p Fisher variant (extension).
	TestMidP = mining.TestMidP
	// TestChiSquare is Pearson's χ² test (the alternative in §2.2).
	TestChiSquare = mining.TestChiSquare
)

// Mine runs the full pipeline — closed rule mining, Fisher significance,
// and the configured correction — on d.
func Mine(d *Dataset, cfg Config) (*Result, error) {
	return core.Run(d, cfg)
}

// MineContext is Mine with cancellation: ctx is threaded through every
// pipeline stage (mining workers, permutation workers), and cancelling it
// aborts the run promptly with the context's error. cfg.Workers bounds the
// worker pool; results are byte-identical for every worker count.
func MineContext(ctx context.Context, d *Dataset, cfg Config) (*Result, error) {
	return core.RunContext(ctx, d, cfg)
}

// Session is a prepared dataset for repeated mining. It owns the encoded
// vertical representation and keyed caches of mined trees and scored rule
// sets, so that configs differing only in correction method, control,
// alpha, seed or permutation count share one encode + one mine + one score
// — the paper's "mine once, re-evaluate many times" optimisation (§4.2)
// promoted to the whole pipeline. A Session is safe for concurrent use,
// and every result is byte-identical to a fresh Mine call with the same
// (Seed, Config): the caches change cost, never output.
type Session struct {
	s *core.Session
}

// SessionStats counts the pipeline stages a Session has executed versus
// served from its caches.
type SessionStats = core.SessionStats

// CacheLimits bounds a Session's stage caches: each cache evicts its
// least-recently-used completed entry past the cap and recomputes it
// (bit-for-bit identically) on re-request. Zero fields pick the defaults;
// negative fields mean unbounded.
type CacheLimits = core.CacheLimits

// NewSession prepares d for repeated mining with Session.Mine and
// Session.MineBatch, using the default CacheLimits.
func NewSession(d *Dataset) *Session {
	return &Session{s: core.NewSession(d)}
}

// NewSessionLimits is NewSession with explicit stage-cache bounds.
func NewSessionLimits(d *Dataset, lim CacheLimits) *Session {
	return &Session{s: core.NewSessionLimits(d, lim)}
}

// Mine runs one config against the prepared dataset, reusing any cached
// encode/mine/score stage whose parameters match.
func (s *Session) Mine(cfg Config) (*Result, error) {
	return s.s.Run(cfg)
}

// MineContext is Session.Mine with cancellation.
func (s *Session) MineContext(ctx context.Context, cfg Config) (*Result, error) {
	return s.s.RunContext(ctx, cfg)
}

// MineBatch runs every config against the prepared dataset, deduplicating
// the encode/mine/score stages across them and running the corrections on
// a bounded worker pool. results[i] corresponds to cfgs[i]; the batch
// fails atomically on the first (lowest-index) error.
func (s *Session) MineBatch(ctx context.Context, cfgs []Config) ([]*Result, error) {
	return s.s.RunBatch(ctx, cfgs)
}

// Stats snapshots the session's stage counters (executed encodes, mines,
// scores and corrections, plus cache hits).
func (s *Session) Stats() SessionStats {
	return s.s.Stats()
}

// Dataset returns the dataset the session was built on, or nil for a
// store-backed session (which holds no in-memory dataset — use Schema
// and NumRecords instead).
func (s *Session) Dataset() *Dataset {
	return s.s.Data()
}

// Schema returns the current schema of the session's data, whether
// in-memory or store-backed.
func (s *Session) Schema() *Schema {
	return s.s.Schema()
}

// NumRecords returns the current record count of the session's data.
func (s *Session) NumRecords() int {
	return s.s.NumRecords()
}

// Store is an on-disk segmented columnar dataset: immutable segment
// files of packed per-item bitmaps plus an ordered manifest. Stores are
// built once (CreateStore/StoreFromDataset), reopened cheaply
// (OpenStore), grown by appending CSV deltas (Store.Append), and mined
// through NewStoreSession — peak ingest memory is one segment
// regardless of dataset size, and mining results are byte-identical to
// the in-memory path.
type Store = colstore.Store

// StoreOptions configures store ingest (segment size).
type StoreOptions = colstore.Options

// CreateStore ingests a CSV stream (header row; last column = class)
// into a new store directory. The input must be categorical already:
// segment bitmaps are immutable, so numeric columns cannot be
// discretized after ingest — run the data through LoadCSV +
// StoreFromDataset (or `armine convert`) when it has numeric columns.
func CreateStore(dir string, r io.Reader, opts StoreOptions) (*Store, error) {
	return colstore.Create(dir, r, opts)
}

// StoreFromDataset writes an in-memory (already discretized) dataset
// into a new store directory, preserving its schema verbatim.
func StoreFromDataset(dir string, d *Dataset, opts StoreOptions) (*Store, error) {
	return colstore.FromDataset(dir, d, opts)
}

// OpenStore loads an existing store directory, validating its manifest
// and segment chain.
func OpenStore(dir string) (*Store, error) {
	return colstore.Open(dir)
}

// RemoveStore deletes a store directory. It refuses directories that do
// not hold a store manifest, so a mistyped path cannot delete unrelated
// data.
func RemoveStore(dir string) error {
	return colstore.Remove(dir)
}

// NewStoreSession prepares a store-backed Session: mining snapshots the
// vertical encoding from the segment files instead of holding a dataset
// in memory, and results are byte-identical to NewSession over the
// equivalent in-memory dataset. Appends to the store bump its version,
// which invalidates the session's stage caches on the next run.
func NewStoreSession(st *Store) *Session {
	return &Session{s: core.NewSessionSource(st)}
}

// NewStoreSessionLimits is NewStoreSession with explicit stage-cache
// bounds.
func NewStoreSessionLimits(st *Store, lim CacheLimits) *Session {
	return &Session{s: core.NewSessionSourceLimits(st, lim)}
}

// LoadCSV reads a CSV stream with a header row into a Dataset, treating
// the LAST column as the class attribute and every other column as
// categorical. Numeric columns are discretized with the supervised
// Fayyad–Irani MDL method first. Missing values are "" or "?".
//
// The stream is encoded row by row: peak memory is one row of strings
// plus the encoded dataset, never a full string table — the result is
// byte-identical to ReadTable + FromTable.
func LoadCSV(r io.Reader) (*Dataset, error) {
	d, err := dataset.ReadDataset(r, -1)
	if err != nil {
		return nil, err
	}
	if err := disc.DiscretizeDataset(d); err != nil {
		return nil, err
	}
	return d, nil
}

// LoadCSVFile is LoadCSV over a file path.
func LoadCSVFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadCSV(f)
}

// FromTable converts a raw table into a Dataset with the given class
// column, discretizing numeric columns with Fayyad–Irani first.
func FromTable(tab *Table, classCol int) (*Dataset, error) {
	dt, err := disc.DiscretizeTable(tab, classCol)
	if err != nil {
		return nil, err
	}
	return dt.ToDataset(classCol)
}

// Synthetic generates a dataset with embedded ground-truth rules using the
// paper's Table 1 generator. See SynthParams; synth.PaperDefaults gives
// the fixed parameters of §5.1.
func Synthetic(p SynthParams) (*SynthResult, error) {
	return synth.Generate(p)
}

// SyntheticDefaults returns the paper's fixed generator parameters
// (#C=2, min_v=2, max_v=8, min_l=2, max_l=16); set N, Attrs, rule counts
// and coverage/confidence ranges before calling Synthetic.
func SyntheticDefaults() SynthParams { return synth.PaperDefaults() }

// SyntheticPaired generates the paper's fair-holdout construction: two
// independently generated N/2 halves over one schema, each embedding the
// same rules at half coverage, catenated into the whole. Use the returned
// halves as the exploratory and evaluation datasets.
func SyntheticPaired(p SynthParams) (whole *SynthResult, first, second *Dataset, err error) {
	return synth.GeneratePaired(p)
}

// UCIStandIn generates the offline stand-in for one of the paper's four
// UCI datasets: "adult", "german", "hypo" or "mushroom". See DESIGN.md for
// the substitution rationale.
func UCIStandIn(name string, seed uint64) (*Dataset, error) {
	return uci.Load(name, seed)
}

// UCINames lists the available stand-in names.
func UCINames() []string { return uci.Names() }

// BasketData is a market-basket transaction database (general association
// rules X ⇒ y, the setting §2 of the paper generalises from).
type BasketData = basket.Data

// BasketRule is a general association rule with a single-item consequent.
type BasketRule = basket.Rule

// BasketOptions configures basket-rule mining.
type BasketOptions = basket.Options

// BasketFromTransactions builds a transaction database from item-name
// transactions.
func BasketFromTransactions(tx [][]string) *BasketData {
	return basket.FromTransactions(tx)
}

// ReadBasket parses one transaction per line (items separated by spaces or
// commas).
func ReadBasket(r io.Reader) (*BasketData, error) { return basket.ReadBasket(r) }

// MineBasket enumerates general association rules X ⇒ y (X a closed
// frequent itemset, y a single item) scored with the two-tailed Fisher
// exact test. Apply BasketBonferroni / BasketBH / BasketPermFWER to
// control false positives.
func MineBasket(d *BasketData, opts BasketOptions) ([]BasketRule, error) {
	return basket.Mine(d, opts)
}

// BasketBonferroni controls FWER over basket rules.
func BasketBonferroni(rules []BasketRule, alpha float64) *correction.Outcome {
	return basket.Bonferroni(rules, alpha)
}

// BasketBH controls FDR over basket rules.
func BasketBH(rules []BasketRule, alpha float64) *correction.Outcome {
	return basket.BenjaminiHochberg(rules, alpha)
}

// BasketPermFWER controls FWER over basket rules with per-consequent
// permutation nulls (see internal/basket for the composition argument).
func BasketPermFWER(d *BasketData, rules []BasketRule, alpha float64, numPerms int, seed uint64) (*correction.Outcome, error) {
	return basket.PermFWER(d, rules, alpha, numPerms, seed, 0)
}

// Outcome is a correction decision (indices of significant rules plus the
// effective cut-off).
type Outcome = correction.Outcome

// ParseControl maps a case-insensitive control name ("fwer" or "fdr") to
// its Control.
func ParseControl(s string) (Control, error) { return core.ParseControl(s) }

// ParseMethod maps a case-insensitive method name
// (none|direct|permutation|holdout|layered) to its Method.
func ParseMethod(s string) (Method, error) { return core.ParseMethod(s) }

// ParseTest maps a case-insensitive test name (fisher|midp|chisq) to its
// TestKind; the empty string selects Fisher.
func ParseTest(s string) (TestKind, error) { return core.ParseTest(s) }

// Registry maps dataset names to prepared mining sessions behind an LRU
// with a fixed capacity: registering past the capacity evicts the least
// recently used session, keeping a long-lived serving process's memory
// bounded. Safe for concurrent use.
type Registry = server.Registry

// ServeOptions configures the HTTP mining service (listen address,
// per-request timeout, upload cap, logger).
type ServeOptions = server.Options

// Server is the long-lived HTTP/JSON mining service over a Registry.
// Server.Handler documents the endpoint table; Shutdown drains in-flight
// mining before returning.
type Server = server.Server

// ConfigJSON is the wire form of a Config (enum fields as strings), used
// by the HTTP service's request bodies.
type ConfigJSON = server.ConfigJSON

// RunJSON is the wire form of one mining result, shared by the HTTP
// service's responses and "armine mine -json".
type RunJSON = server.RunJSON

// NewRegistry returns a registry holding at most capacity sessions
// (a default capacity if <= 0), each with the given stage-cache limits.
func NewRegistry(capacity int, limits CacheLimits) *Registry {
	return server.NewRegistry(capacity, limits)
}

// NewServer builds the HTTP mining service over reg. Use Server.Handler
// for a custom listener or Server.ListenAndServe for opts.Addr.
func NewServer(reg *Registry, opts ServeOptions) *Server {
	return server.New(reg, opts)
}

// EncodeRun converts a Result into its wire form, truncating the rule list
// to limit entries (0 = all).
func EncodeRun(res *Result, limit int) RunJSON { return server.EncodeRun(res, limit) }
