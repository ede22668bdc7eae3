package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"strings"

	"repro"
	"repro/internal/benchio"
	"repro/internal/permute"
)

// benchFlags bundles the bench subcommand's flag set with its parsed
// values.
type benchFlags struct {
	fs                   *flag.FlagSet
	in, uciName          *string
	minSup, maxLen       *int
	opts, workers, perms *string
	shards               *string
	warmup, repeat       *int
	seed                 *uint64
	quick                *bool
	adaptive, store      *bool
	alpha                *float64
	rev, out, baseline   *string
	tolerance            *float64
}

func newBenchFlags(stderr io.Writer) *benchFlags {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	return &benchFlags{
		fs:        fs,
		in:        fs.String("in", "", "input CSV file (header row, class label last); default: paper-defaults synthetic data"),
		uciName:   fs.String("uci", "", "use a built-in UCI stand-in instead of -in (adult|german|hypo|mushroom)"),
		minSup:    fs.Int("minsup", 50, "absolute minimum support for the mined tree"),
		maxLen:    fs.Int("maxlen", 0, "maximum pattern length (0 = unlimited)"),
		opts:      fs.String("opts", "none,dynamic,diffsets,static", "comma-separated optimisation levels to measure"),
		workers:   fs.String("workers", "1,0", "comma-separated worker counts (0 = all CPUs)"),
		perms:     fs.String("perms", "100", "comma-separated permutation counts"),
		shards:    fs.String("shards", "1", "comma-separated shard counts; counts > 1 time the same pass through the shard coordinator (in-process workers)"),
		warmup:    fs.Int("warmup", 1, "discarded warmup runs per cell"),
		repeat:    fs.Int("repeat", 3, "timed runs per cell (minimum kept)"),
		seed:      fs.Uint64("seed", 3, "random seed for the permutation shuffles"),
		quick:     fs.Bool("quick", false, "small matrix for CI smoke runs (perms 25, warmup 0, repeat 1 unless set explicitly)"),
		adaptive:  fs.Bool("adaptive", true, "also time each cell as an adaptive early-stopping FWER run of the same budget (records the adaptive speedup; budgets too small to retire anything are skipped)"),
		store:     fs.Bool("store", false, "also time each single-node cell out-of-core: the vertical encoding is rebuilt from an on-disk segment store inside the timed region (records the storage overhead as its own keyed cells, so in-memory baselines keep gating)"),
		alpha:     fs.Float64("alpha", 0.05, "error level the adaptive cells stop against"),
		rev:       fs.String("rev", "dev", "revision label recorded in the report and default output name"),
		out:       fs.String("out", "", "output path (default BENCH_<rev>.json)"),
		baseline:  fs.String("baseline", "", "BENCH json to compare against; >tolerance speedup drops or allocs/op growth fail the run"),
		tolerance: fs.Float64("tolerance", 0.20, "allowed relative-speedup drop and relative allocs/op growth vs -baseline"),
	}
}

// parseIntList parses a comma-separated list of non-negative ints.
func parseIntList(flagName, s string) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("invalid -%s entry %q (want non-negative integers)", flagName, tok)
		}
		out = append(out, n)
	}
	return out, nil
}

func runBench(args []string, stdout, stderr io.Writer) error {
	f := newBenchFlags(stderr)
	if err := parseArgs(f.fs, args); err != nil {
		return err
	}
	if f.fs.NArg() > 0 {
		return fmt.Errorf("bench takes no positional arguments, got %q", f.fs.Arg(0))
	}

	// -quick shrinks the matrix but explicit flags always win.
	set := map[string]bool{}
	f.fs.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
	if *f.quick {
		if !set["perms"] {
			*f.perms = "25"
		}
		if !set["warmup"] {
			*f.warmup = 0
		}
		if !set["repeat"] {
			*f.repeat = 1
		}
	}

	var opts []permute.OptLevel
	for _, tok := range strings.Split(*f.opts, ",") {
		o, err := permute.ParseOpt(tok)
		if err != nil {
			return err
		}
		opts = append(opts, o)
	}
	workers, err := parseIntList("workers", *f.workers)
	if err != nil {
		return err
	}
	perms, err := parseIntList("perms", *f.perms)
	if err != nil {
		return err
	}
	shards, err := parseIntList("shards", *f.shards)
	if err != nil {
		return err
	}

	name, data, err := benchDataset(*f.in, *f.uciName, *f.seed)
	if err != nil {
		return err
	}

	rep, err := benchio.Run(context.Background(), benchio.Spec{
		Datasets:        []benchio.Dataset{{Name: name, Data: data, MinSup: *f.minSup}},
		Opts:            opts,
		Workers:         workers,
		Perms:           perms,
		Shards:          shards,
		Warmup:          *f.warmup,
		Repeat:          *f.repeat,
		Seed:            *f.seed,
		MeasureAdaptive: *f.adaptive,
		MeasureStore:    *f.store,
		Alpha:           *f.alpha,
		MaxLen:          *f.maxLen,
	}, *f.rev)
	if err != nil {
		return err
	}

	printBenchTable(stdout, rep)
	out := *f.out
	if out == "" {
		out = fmt.Sprintf("BENCH_%s.json", *f.rev)
	}
	if err := benchio.WriteFile(out, rep); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# wrote %s (%d entries)\n", out, len(rep.Entries))

	if *f.baseline != "" {
		base, err := benchio.ReadFile(*f.baseline)
		if err != nil {
			return err
		}
		// Even the relative speedups shift with the CPU (cache sizes move
		// the counting/p-value balance), so regressions are only gated
		// against a baseline measured on the same kind of machine.
		if base.GOOS != rep.GOOS || base.GOARCH != rep.GOARCH || base.CPUs != rep.CPUs {
			fmt.Fprintf(stdout, "# baseline %s is from a different environment (%s/%s %d CPUs vs %s/%s %d CPUs); skipping regression gate\n",
				*f.baseline, base.GOOS, base.GOARCH, base.CPUs, rep.GOOS, rep.GOARCH, rep.CPUs)
			return nil
		}
		if regs := benchio.Compare(base, rep, *f.tolerance); len(regs) > 0 {
			for _, r := range regs {
				fmt.Fprintln(stderr, "armine bench: regression:", r)
			}
			return fmt.Errorf("%d cell(s) regressed more than %.0f%% vs %s",
				len(regs), *f.tolerance*100, *f.baseline)
		}
		fmt.Fprintf(stdout, "# no regressions vs %s (tolerance %.0f%%)\n", *f.baseline, *f.tolerance*100)
	}
	return nil
}

// benchDataset resolves the bench input: a CSV, a UCI stand-in, or the
// paper-defaults synthetic dataset when neither is given.
func benchDataset(in, uciName string, seed uint64) (string, *repro.Dataset, error) {
	switch {
	case in != "" && uciName != "":
		return "", nil, fmt.Errorf("use either -in or -uci, not both")
	case in != "":
		d, err := repro.LoadCSVFile(in)
		name := strings.TrimSuffix(filepath.Base(in), filepath.Ext(in))
		return name, d, err
	case uciName != "":
		d, err := repro.UCIStandIn(uciName, seed)
		return uciName, d, err
	default:
		p := repro.SyntheticDefaults()
		p.N = 1000
		p.Attrs = 15
		p.Seed = seed
		res, err := repro.Synthetic(p)
		if err != nil {
			return "", nil, err
		}
		return fmt.Sprintf("synth-n%d-a%d", p.N, p.Attrs), res.Data, nil
	}
}

// printBenchTable renders the report in the Fig 4 spirit: one line per
// cell, speedups against the no-optimisation level and of the adaptive
// run.
func printBenchTable(w io.Writer, rep *benchio.Report) {
	fmt.Fprintf(w, "# %s %s/%s %d CPUs rev=%s\n", rep.GoVersion, rep.GOOS, rep.GOARCH, rep.CPUs, rep.Rev)
	fmt.Fprintf(w, "%-20s %-10s %7s %6s %6s %6s %12s %10s %8s %7s\n",
		"dataset", "opt", "workers", "perms", "shards", "src", "ms/op", "allocs/op", "vs-none", "adapt")
	for _, e := range rep.Entries {
		adapt := "-"
		if e.AdaptiveSpeedup > 0 {
			adapt = fmt.Sprintf("%.2fx", e.AdaptiveSpeedup)
		}
		shards := e.Shards
		if shards == 0 {
			shards = 1
		}
		src := "mem"
		if e.Store {
			src = "store"
		}
		fmt.Fprintf(w, "%-20s %-10s %7d %6d %6d %6s %12.3f %10d %7.2fx %7s\n",
			e.Dataset, e.Opt, e.Workers, e.Perms, shards, src,
			float64(e.NsPerOp)/1e6, e.AllocsPerOp, e.SpeedupVsNone, adapt)
	}
}
