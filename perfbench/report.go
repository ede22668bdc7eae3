package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eNames and layerNames are the metrics BENCHMARK.json lists, in order;
// every workload reports all of them (a test keeps the two in step).
// Figures that exist for only some workloads are printed in the table
// above the result line instead.
var e2eNames = []string{"setup_s", "pipeline_s.p50", "cpu_s_per_op", "alloc_mb_per_op", "retained_mb", "requests_per_s"}

var layerNames = []string{
	"dataset.read_ms", "dataset.read_mb_per_s", "dataset.encode_ms", "dataset.alloc_mb",
	"disc.discretize_ms",
	"colstore.segments", "colstore.disk_bytes_per_record",
	"mining.mine_ms", "mining.patterns", "mining.patterns_per_s", "mining.score_ms", "mining.rules", "mining.alloc_mb",
	"stats.ladder_ms", "stats.ladders", "stats.ladder_reuse",
	"permute.rule_perm_evals", "permute.evals_per_s", "permute.perms_run", "permute.rules_retired",
	"permute.perms_saved_frac", "permute.alloc_mb",
	"correction.ms", "correction.significant", "correction.true_positives", "correction.false_positives",
	"core.run_ms", "core.self_ms", "core.tree_hit_frac", "core.score_hit_frac", "core.encodes",
	"server.response_kb",
}

// row is one printed line of the metrics table.
type row struct {
	name, unit string
	value      float64
	note       string
}

// report collects a run's outcome.
type report struct {
	attempted, failed int
	problems          []string
	metrics           map[string]metric // the result line's metrics
	rows              []row             // the printed table, in order
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// set records a metric for the result line and the table.
func (r *report) set(name, unit string, v float64) {
	r.metrics[name] = metric{v, unit}
	r.rows = append(r.rows, row{name: name, unit: unit, value: v})
}

// note records a figure for the table only.
func (r *report) note(name, unit string, v float64, note string) {
	r.rows = append(r.rows, row{name, unit, v, note})
}

// fail records an oracle mismatch or a failed operation.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// print writes the table and, last, the one-line JSON result.
func (r *report) print(w io.Writer, want []string) error {
	for _, p := range r.problems {
		fmt.Fprintf(w, "FAIL %s\n", p)
	}
	for _, x := range r.rows {
		fmt.Fprintf(w, "%-34s %14.6g %-8s %s\n", x.name, x.value, x.unit, x.note)
	}
	out := map[string]metric{}
	for _, name := range want {
		m, ok := r.metrics[name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s was not measured", name)
		}
		out[name] = m
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// meter measures process CPU time and allocation over a window.
type meter struct {
	start time.Time
	cpu   time.Duration
	alloc uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintln(os.Stderr, "getrusage:", err)
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func startMeter() meter { return meter{time.Now(), cpuTime(), allocated()} }

// stop reports the window's end-to-end throughput, CPU and allocation
// figures for ops operations.
func (m meter) stop(r *report, ops int) {
	elapsed := time.Since(m.start).Seconds()
	cpu := (cpuTime() - m.cpu).Seconds()
	alloc := float64(allocated()-m.alloc) / 1e6
	r.set("cpu_s_per_op", "s", cpu/float64(ops))
	r.set("alloc_mb_per_op", "MB", alloc/float64(ops))
	r.set("requests_per_s", "1/s", float64(ops)/elapsed)
}

// retained reports the live heap after a forced collection; the caller
// keeps its sessions and results reachable until this returns.
func retained(r *report) {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.set("retained_mb", "MB", float64(m.HeapAlloc)/1e6)
}

// layerReport turns a traced run's spans and counters into the per-layer
// metrics. ops is the number of operations the figures are averaged over;
// coreWork names the layer spans that redo work a core span performs, so
// core's self time is the core spans' total minus theirs.
func layerReport(r *report, spans []span, c *counts, ops int, coreSpan string, coreWork []string) {
	total, self, _ := totals(spans)
	n := float64(ops)
	per := func(name string) float64 { return total[name] / n }
	ms := func(name, span string) { r.set(name, "ms", per(span)) }

	ms("dataset.read_ms", "dataset.read")
	r.set("dataset.read_mb_per_s", "MB/s", float64(c.csvBytes)/1e6/(total["dataset.read"]/1e3))
	ms("dataset.encode_ms", "dataset.encode")
	r.set("dataset.alloc_mb", "MB", float64(c.datasetAlloc)/1e6/n)
	ms("disc.discretize_ms", "disc.discretize")

	ms("mining.mine_ms", "mining.mine")
	r.set("mining.patterns", "count", float64(c.patterns)/n)
	r.set("mining.patterns_per_s", "1/s", ratio(float64(c.patterns), total["mining.mine"]/1e3))
	ms("mining.score_ms", "mining.score")
	r.set("mining.rules", "count", float64(c.rules)/n)
	r.set("mining.alloc_mb", "MB", float64(c.miningAlloc)/1e6/n)

	ms("stats.ladder_ms", "stats.ladders")
	r.set("stats.ladders", "count", float64(c.ladders)/n)
	r.set("stats.ladder_reuse", "ratio", ratio(float64(c.laddered), float64(c.ladders)))

	walk := total["permute.minp"] + total["permute.countle"] + total["permute.adaptive"]
	r.set("permute.rule_perm_evals", "count", float64(c.ruleEvals)/n)
	r.set("permute.evals_per_s", "1/s", ratio(float64(c.ruleEvals), walk/1e3))
	r.set("permute.perms_run", "count", float64(c.permsRun)/n)
	r.set("permute.rules_retired", "count", float64(c.retired)/n)
	r.set("permute.perms_saved_frac", "ratio", ratio(float64(c.permsSaved), float64(c.budget)))
	r.set("permute.alloc_mb", "MB", float64(c.permuteAlloc)/1e6/n)
	r.note("permute.engine_ms", "ms", per("permute.engine"), "NewEngine")
	r.note("permute.index_ms", "ms", per("permute.index"), "NewEngine with DeferLabels")
	r.note("permute.labels_ms", "ms", per("permute.engine")-per("permute.index"), "engine_ms - index_ms")
	r.note("permute.minp_ms", "ms", per("permute.minp"), "")
	r.note("permute.countle_ms", "ms", per("permute.countle"), "")
	r.note("permute.adaptive_ms", "ms", per("permute.adaptive"), "RunAdaptive")

	corr := 0.0
	for name, v := range self {
		if strings.HasPrefix(name, "correction.") && name != "correction.holdout" {
			corr += v
		}
	}
	r.set("correction.ms", "ms", corr/n)
	r.set("correction.significant", "count", float64(c.significant)/n)
	r.set("correction.true_positives", "count", float64(c.truePos)/n)
	r.set("correction.false_positives", "count", float64(c.falsePos)/n)
	r.note("correction.holdout_ms", "ms", per("correction.holdout"), "Holdout, its mining included")

	work := 0.0
	for _, name := range coreWork {
		work += total[name]
	}
	for name, v := range total {
		if strings.HasPrefix(name, "correction.") {
			work += v
		}
	}
	r.set("core.run_ms", "ms", per(coreSpan))
	r.set("core.self_ms", "ms", (total[coreSpan]-work)/n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeSpans saves the traced run's spans as JSON under dir.
func writeSpans(path string, spans []span) error {
	spans = append([]span(nil), spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
