// Command armine mines statistically significant class association rules
// from a CSV file (header row; the LAST column is the class label; numeric
// columns are discretized automatically with Fayyad–Irani), or serves the
// mining pipeline as a long-lived HTTP/JSON service.
//
// Subcommands:
//
//	armine mine    [flags]   one-shot mining run
//	armine serve   [flags]   HTTP mining service over a bounded session registry
//	armine convert [flags]   CSV -> on-disk segment store for out-of-core mining
//
// Mining examples:
//
//	armine mine -in data.csv -minsup-frac 0.05 -control fdr -method direct
//	armine mine -in data.csv -minsup 60 -method permutation -perms 1000
//	armine mine -uci german -minsup 60 -method permutation -perms 10000 -adaptive
//	armine mine -uci german -minsup 60 -method holdout -control fwer
//
// Out-of-core examples — convert once, then mine datasets larger than
// memory from the store (results are byte-identical to the in-memory
// path; see DESIGN.md §11):
//
//	armine convert -in big.csv -out big.store
//	armine convert -in numeric.csv -out numeric.store -discretize
//	armine mine -store big.store -minsup 60 -method permutation -perms 1000
//
// -adaptive switches permutation runs into sequential early stopping:
// -perms becomes the permutation budget, and rules whose correction fate
// is already decided retire from further counting after each round
// (-adaptive-min sets the first round size, -adaptive-exceed how many
// exceedances a rule needs before it may retire early; see DESIGN.md §7).
//
// A comma-separated -methods list reports several corrections from a
// single mine: the dataset is encoded, mined and scored once and only the
// corrections differ. (Holdout is the exception — it mines the
// exploratory half separately by construction, so listing it adds one
// extra, smaller mine.)
//
//	armine mine -uci german -minsup 60 -methods none,direct,permutation,layered
//
// Output: one rule per line, most significant first, with coverage,
// support, confidence and p-value; -json switches to machine-readable
// output (a JSON array with one entry per method run) on stdout — errors
// always go to stderr with a non-zero exit, never into the JSON stream.
// -cpuprofile and -memprofile write pprof profiles.
//
// Serving examples:
//
//	armine serve -addr :8080 -capacity 16 -timeout 2m
//	armine serve -preload census=data.csv -preload german=uci:german
//	armine serve -shard-peers http://h1:8080,http://h2:8080,http://h2:8080
//	armine serve -store-dir /var/lib/armine
//
// With -store-dir uploads stream into immutable segment stores under
// that directory instead of in-memory sessions (pre-discretized CSV
// only), existing stores are re-registered on restart, and
// POST /v1/datasets/{name}/append ingests CSV deltas as new segments.
//
// -shard-peers fans every permutation run out over HTTP, one shard per
// listed peer URL (DESIGN.md §10); results are byte-identical to the
// single-node runs an empty list gives.
//
// See the repro package docs (api.go) for the endpoint table.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/url"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain dispatches to a subcommand, which must come first. Errors go
// to stderr with exit 1 — stdout carries only the requested report (text
// or JSON).
func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 1
	}
	cmd, rest := args[0], args[1:]
	var err error
	switch cmd {
	case "mine":
		err = runMine(rest, stdout, stderr)
	case "serve":
		err = runServe(rest, stderr)
	case "convert":
		err = runConvert(rest, stdout, stderr)
	case "help":
		usage(stdout)
	default:
		err = fmt.Errorf("unknown command %q (want mine, serve or convert)", cmd)
	}
	switch {
	case err == nil:
		return 0
	case errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		// The flag set already reported the problem on stderr.
		return 1
	default:
		fmt.Fprintln(stderr, "armine:", err)
		return 1
	}
}

// errUsage marks a flag-parse failure already reported by the flag set.
var errUsage = errors.New("usage error")

func usage(w io.Writer) {
	fmt.Fprintln(w, `armine — significant class association rule mining

  armine mine    [flags]   one-shot mining run
  armine serve   [flags]   HTTP mining service
  armine convert [flags]   CSV -> on-disk segment store for out-of-core mining

Run "armine mine -h", "armine serve -h" or "armine convert -h" for flags.`)
}

// parseArgs runs fs over args, normalizing help and parse failures.
func parseArgs(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return flag.ErrHelp
		}
		return errUsage
	}
	return nil
}

// mineFlags bundles the mine subcommand's flag set with its parsed
// values. Flag registration lives in one constructor per subcommand so
// the README drift test can assert documented flags against the real
// sets.
type mineFlags struct {
	fs                         *flag.FlagSet
	in, uciName, store         *string
	minSup                     *int
	minSupFrac, minConf, alpha *float64
	control, method, methods   *string
	perms, workers, maxLen     *int
	adaptive                   *bool
	adaptMin, adaptExceed      *int
	seed                       *uint64
	limit                      *int
	jsonOut, quiet             *bool
	cpuProf, memProf           *string
}

func newMineFlags(stderr io.Writer) *mineFlags {
	fs := flag.NewFlagSet("mine", flag.ContinueOnError)
	fs.SetOutput(stderr)
	return &mineFlags{
		fs:         fs,
		in:         fs.String("in", "", "input CSV file (header row, class label last)"),
		uciName:    fs.String("uci", "", "use a built-in UCI stand-in instead of -in (adult|german|hypo|mushroom)"),
		store:      fs.String("store", "", "mine an on-disk segment store directory (see \"armine convert\") instead of -in/-uci; the dataset is never loaded whole into memory"),
		minSup:     fs.Int("minsup", 0, "absolute minimum support"),
		minSupFrac: fs.Float64("minsup-frac", 0, "relative minimum support (fraction of records)"),
		minConf:    fs.Float64("minconf", 0, "minimum confidence (domain filter; default 0)"),
		alpha:      fs.Float64("alpha", 0.05, "error level"),
		control:    fs.String("control", "fwer", "error measure: fwer | fdr"),
		method:     fs.String("method", "direct", "correction: none | direct | permutation | holdout | layered"),
		methods:    fs.String("methods", "", "comma-separated corrections sharing a single mine (overrides -method; holdout mines its exploratory half separately), e.g. none,direct,permutation"),
		perms:      fs.Int("perms", 1000, "permutations for permutation runs"),
		adaptive:   fs.Bool("adaptive", false, "sequential early-stopping permutation testing: -perms becomes the budget and decided rules retire from counting early (DESIGN.md 7)"),
		adaptMin:   fs.Int("adaptive-min", 0, "first adaptive round size (0 = default 100)"),
		adaptExceed: fs.Int("adaptive-exceed", 0,
			"exceedances a rule needs before early retirement (0 = default 20, negative = never retire)"),
		seed:    fs.Uint64("seed", 1, "random seed (permutations, holdout split, stand-ins)"),
		workers: fs.Int("workers", 0, "worker goroutines for mining and permutations (0 = all CPUs)"),
		maxLen:  fs.Int("maxlen", 0, "maximum rule LHS length (0 = unlimited)"),
		limit:   fs.Int("limit", 50, "print at most this many rules per run (0 = all)"),
		jsonOut: fs.Bool("json", false, "emit a JSON array (one entry per method run) instead of text"),
		cpuProf: fs.String("cpuprofile", "", "write a pprof CPU profile of the mining to this file"),
		memProf: fs.String("memprofile", "", "write a pprof heap profile after mining to this file"),
		quiet:   fs.Bool("q", false, "print rules only, no summaries"),
	}
}

func runMine(args []string, stdout, stderr io.Writer) error {
	f := newMineFlags(stderr)
	if err := parseArgs(f.fs, args); err != nil {
		return err
	}
	if f.fs.NArg() > 0 {
		// flag parsing stops at the first positional: anything after it
		// would be silently dropped, so reject rather than misbehave.
		return fmt.Errorf("mine takes no positional arguments, got %q", f.fs.Arg(0))
	}

	base := repro.Config{
		MinSup:       *f.minSup,
		MinSupFrac:   *f.minSupFrac,
		MinConf:      *f.minConf,
		Alpha:        *f.alpha,
		Permutations: *f.perms,
		Seed:         *f.seed,
		Workers:      *f.workers,
		MaxLen:       *f.maxLen,
	}
	if *f.adaptive {
		base.Adaptive = repro.Adaptive{
			MinPerms:    *f.adaptMin,
			MaxPerms:    *f.perms,
			Exceedances: *f.adaptExceed,
		}
	}
	var err error
	if base.Control, err = repro.ParseControl(*f.control); err != nil {
		return err
	}

	// Validate the permutation budget and the whole method list up front —
	// before any dataset load or mining — so a typo fails fast instead of
	// surfacing after minutes of work (and never leaks into a -json
	// stream).
	if *f.perms < 0 {
		return fmt.Errorf("-perms must be >= 0 (0 picks the default 1000), got %d", *f.perms)
	}
	names := []string{*f.method}
	if *f.methods != "" {
		names = strings.Split(*f.methods, ",")
	}
	cfgs := make([]repro.Config, len(names))
	for i, name := range names {
		cfg := base
		if err := setMethod(&cfg, name); err != nil {
			return err
		}
		cfgs[i] = cfg
	}

	var sess *repro.Session
	if *f.store != "" {
		if *f.in != "" || *f.uciName != "" {
			return fmt.Errorf("use either -store or -in/-uci, not both")
		}
		st, err := repro.OpenStore(*f.store)
		if err != nil {
			return err
		}
		sess = repro.NewStoreSession(st)
	} else {
		d, err := loadDataset(*f.in, *f.uciName, *f.seed)
		if err != nil {
			return err
		}
		sess = repro.NewSession(d)
	}

	if *f.cpuProf != "" {
		pf, err := os.Create(*f.cpuProf)
		if err != nil {
			return err
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	results, err := sess.MineBatch(context.Background(), cfgs)
	if err != nil {
		return err
	}

	if *f.memProf != "" {
		pf, err := os.Create(*f.memProf)
		if err != nil {
			return err
		}
		defer pf.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(pf); err != nil {
			return err
		}
	}

	if *f.jsonOut {
		return printJSON(stdout, results, *f.limit)
	}
	printText(stdout, stderr, sess.Schema().Class.Name, results, *f.limit, *f.quiet)
	if !*f.quiet && len(results) > 1 {
		st := sess.Stats()
		line := fmt.Sprintf("# session: %d mine(s) + %d score(s)", st.Mines, st.Scores)
		if st.Holdouts > 0 {
			line += fmt.Sprintf(" + %d holdout run(s)", st.Holdouts)
		}
		fmt.Fprintf(stdout, "%s served %d method runs\n", line, len(results))
	}
	return nil
}

// preloads collects repeated -preload name=path flags.
type preloads []struct{ name, path string }

func (p *preloads) set(spec string) error {
	name, path, ok := strings.Cut(spec, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("invalid -preload %q (want name=path.csv or name=uci:standin)", spec)
	}
	*p = append(*p, struct{ name, path string }{name, path})
	return nil
}

// serveFlags bundles the serve subcommand's flag set with its parsed
// values.
type serveFlags struct {
	fs                             *flag.FlagSet
	addr                           *string
	capacity, treeCache, ruleCache *int
	timeout, drain                 *time.Duration
	maxUpload                      *int64
	seed                           *uint64
	shardPeers, storeDir           *string
	pre                            *preloads
}

func newServeFlags(stderr io.Writer) *serveFlags {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	f := &serveFlags{
		fs:        fs,
		addr:      fs.String("addr", ":8080", "listen address"),
		capacity:  fs.Int("capacity", 0, "max registered datasets; the LRU session is evicted past this (0 = default 16)"),
		timeout:   fs.Duration("timeout", 2*time.Minute, "per-request mining deadline (negative = none)"),
		treeCache: fs.Int("tree-cache", 0, "per-session mined-tree cache entries (0 = default, negative = unbounded)"),
		ruleCache: fs.Int("rule-cache", 0, "per-session scored-rule cache entries (0 = default, negative = unbounded)"),
		maxUpload: fs.Int64("max-upload", 0, "max CSV upload bytes (0 = default 64 MiB)"),
		drain:     fs.Duration("drain", 30*time.Second, "max wait for in-flight mining on shutdown"),
		seed:      fs.Uint64("seed", 1, "seed for uci: preloads"),
		shardPeers: fs.String("shard-peers", "",
			"comma-separated peer base URLs holding the same datasets; permutation runs fan out one shard per entry to their /shard endpoints (empty = single-node)"),
		storeDir: fs.String("store-dir", "",
			"serve datasets out-of-core: uploads stream into segment stores under this directory (pre-discretized CSV only), existing stores are re-served on restart, and POST .../append grows them (empty = in-memory sessions)"),
		pre: &preloads{},
	}
	fs.Func("preload", "register a dataset at startup: name=path.csv or name=uci:standin (repeatable)", f.pre.set)
	return f
}

func runServe(args []string, stderr io.Writer) error {
	f := newServeFlags(stderr)
	fs := f.fs
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("serve takes no positional arguments, got %q", fs.Arg(0))
	}

	peers, err := parsePeers(*f.shardPeers)
	if err != nil {
		return err
	}
	logger := log.New(stderr, "", log.LstdFlags)
	reg := repro.NewRegistry(*f.capacity, repro.CacheLimits{MaxTrees: *f.treeCache, MaxRules: *f.ruleCache})
	for _, p := range *f.pre {
		var d *repro.Dataset
		var err error
		if uciName, ok := strings.CutPrefix(p.path, "uci:"); ok {
			d, err = repro.UCIStandIn(uciName, *f.seed)
		} else {
			d, err = repro.LoadCSVFile(p.path)
		}
		if err != nil {
			return fmt.Errorf("preloading %s: %w", p.name, err)
		}
		if _, err := reg.Register(p.name, d); err != nil {
			return err
		}
		logger.Printf("armine: preloaded dataset %q (%d records)", p.name, d.NumRecords())
	}

	srv := repro.NewServer(reg, repro.ServeOptions{
		Addr:           *f.addr,
		Timeout:        *f.timeout,
		MaxUploadBytes: *f.maxUpload,
		Log:            logger,
		ShardPeers:     peers,
		StoreDir:       *f.storeDir,
	})
	if err := srv.LoadStores(); err != nil {
		return fmt.Errorf("loading stores from %s: %w", *f.storeDir, err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		logger.Printf("armine: shutting down, draining in-flight requests (max %v)", *f.drain)
		shCtx, cancel := context.WithTimeout(context.Background(), *f.drain)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		return <-errCh
	}
}

// parsePeers splits the -shard-peers list, failing on any entry that is
// not an absolute http(s) URL with a host and so could never be reached.
func parsePeers(list string) ([]string, error) {
	if list == "" {
		return nil, nil
	}
	peers := strings.Split(list, ",")
	for _, p := range peers {
		if u, err := url.Parse(p); err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("-shard-peers entry %q is not an absolute http(s) URL with a host", p)
		}
	}
	return peers, nil
}

// setMethod applies one -method/-methods name to cfg.
func setMethod(cfg *repro.Config, name string) error {
	m, err := repro.ParseMethod(name)
	if err != nil {
		return err
	}
	cfg.Method = m
	if m == repro.MethodHoldout {
		cfg.HoldoutRandom = true
	}
	return nil
}

// printText renders the classic line-per-rule report, one block per run,
// to w. className labels the rule consequents (store-backed sessions have
// no in-memory dataset, only a schema). Wall-clock timings differ from run
// to run, so they go to timing, one line per run, and the report on w
// stays byte-identical for equal inputs.
func printText(w, timing io.Writer, className string, results []*repro.Result, limit int, quiet bool) {
	for _, res := range results {
		if !quiet {
			fmt.Fprintf(w, "# %d records, %d rules tested (min_sup=%d), method=%s control=%s alpha=%g\n",
				res.NumRecords, res.NumTested, res.MinSup, res.Method, res.Control, res.Alpha)
			fmt.Fprintf(w, "# %d significant rules, cutoff p <= %.4g\n", len(res.Significant), res.Cutoff)
			fmt.Fprintf(timing, "# method=%s control=%s: mine %v + correct %v\n",
				res.Method, res.Control, res.MineTime.Round(1e6), res.CorrectTime.Round(1e6))
			if res.Perm != nil {
				fmt.Fprintf(w, "# adaptive: %d round(s), %d/%d perms run, %d/%d rules retired, %d rule-perm evals saved\n",
					res.Perm.Rounds, res.Perm.PermsRun, res.Perm.MaxPerms,
					res.Perm.RulesRetired, res.NumTested, res.Perm.PermsSaved)
			}
		}
		n := len(res.Significant)
		if limit > 0 && n > limit {
			n = limit
		}
		for _, r := range res.Significant[:n] {
			fmt.Fprintf(w, "%s => %s=%s  cvg=%d supp=%d conf=%.3f p=%.4g\n",
				strings.Join(r.Items, " ^ "), className, r.Class,
				r.Coverage, r.Support, r.Confidence, r.P)
		}
		if !quiet && n < len(res.Significant) {
			fmt.Fprintf(w, "# ... %d more (raise -limit)\n", len(res.Significant)-n)
		}
	}
}

// printJSON emits one array entry per run, rules truncated to limit, using
// the same wire form the HTTP service serves.
func printJSON(w io.Writer, results []*repro.Result, limit int) error {
	runs := make([]repro.RunJSON, len(results))
	for i, res := range results {
		runs[i] = repro.EncodeRun(res, limit)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(runs)
}

func loadDataset(in, uciName string, seed uint64) (*repro.Dataset, error) {
	switch {
	case in != "" && uciName != "":
		return nil, fmt.Errorf("use either -in or -uci, not both")
	case in != "":
		return repro.LoadCSVFile(in)
	case uciName != "":
		return repro.UCIStandIn(uciName, seed)
	default:
		return nil, fmt.Errorf("need -in FILE or -uci NAME")
	}
}
