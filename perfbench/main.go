// Command perfbench is the repository's benchmark. It runs one of three
// workloads — perm-synth (permutation correction on the paper's synthetic
// data), direct-dense (direct adjustment and holdout on a dense UCI
// stand-in) and serve-store (closed-loop clients against the HTTP service
// in segment-store mode) — for a fixed time, checks every output against
// an oracle, and prints a metrics table followed by a one-line JSON
// result. With --trace 1 it instead times the calls into each layer's
// public functions and reports per-layer figures. README.md in this
// directory documents the workloads and metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	out      string
}

func (o options) tracePath() string {
	return filepath.Join(o.out, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))
}

// workloads are the workloads BENCHMARK.json lists, in order.
var workloads = []string{"perm-synth", "direct-dense", "serve-store"}

// setupRounds is how many timed set-ups a run makes after one warm-up;
// setup_s is their median, and every round must generate the same input
// bytes.
const setupRounds = 7

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var o options
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "perm-synth, direct-dense or serve-store")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 20, "measurement window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for stores and traces")
	flag.Parse()
	if flag.NArg() > 0 || seconds < 1 || trace < 0 || trace > 1 || !slices.Contains(workloads, o.workload) {
		return fmt.Errorf("usage: perfbench --workload W --seed N --seconds S --trace 0|1")
	}
	o.seconds, o.trace = time.Duration(seconds)*time.Second, trace == 1
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}

	r := newReport()
	var (
		in    *inputs
		env   *serveEnv
		times []float64
	)
	for i := 0; i <= setupRounds; i++ {
		// Round 0 is a warm-up that grows the heap; every round starts
		// from a collected heap so garbage from the last one is not
		// charged to it.
		runtime.GC()
		t0 := time.Now()
		next, err := generate(o.workload, o.seed)
		if err != nil {
			return err
		}
		if o.workload == "serve-store" {
			if env != nil {
				if err := env.close(); err != nil {
					return err
				}
			}
			if env, err = startServer(o); err != nil {
				return err
			}
		}
		if i > 0 {
			times = append(times, time.Since(t0).Seconds())
		}
		if in != nil && !sameInputs(in, next) {
			return fmt.Errorf("seed %d generated different input bytes in two set-ups", o.seed)
		}
		in = next
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", o.workload, o.seed, seconds, trace)
	fmt.Printf("input seed=%d %s\n", o.seed, in.digest())
	if o.trace {
		r.note("setup_s", "s", median(times), "")
	} else {
		r.set("setup_s", "s", median(times))
	}

	var err error
	if env != nil {
		err = runServe(o, in, env, r)
	} else {
		err = runBatch(o, in, r)
	}
	if err != nil {
		return err
	}
	r.note("failed_frac", "ratio", float64(r.failed)/float64(max(r.attempted, 1)), "failed or wrong operations / attempted")
	want := e2eNames
	if o.trace {
		want = layerNames
	}
	if err := r.print(os.Stdout, want); err != nil {
		return err
	}
	if r.failed > 0 {
		return fmt.Errorf("%d of %d operations failed or disagreed with their oracle", r.failed, r.attempted)
	}
	return nil
}
