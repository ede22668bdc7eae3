package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/evalx"
	"repro/internal/synth"
)

// batchConfigs are the MineBatch configs of one perm-synth or
// direct-dense operation.
func batchConfigs(w string, seed uint64) []core.Config {
	if w == "perm-synth" {
		return []core.Config{
			{MinSup: 1000, Method: core.MethodPermutation, Control: core.ControlFWER, Permutations: 1000, Seed: seed},
			{MinSup: 1000, Method: core.MethodPermutation, Control: core.ControlFDR, Permutations: 1000, Seed: seed},
		}
	}
	return []core.Config{
		{MinSup: 600, Method: core.MethodDirect, Control: core.ControlFWER},
		{MinSup: 600, Method: core.MethodDirect, Control: core.ControlFDR},
		{MinSup: 600, Method: core.MethodHoldout, Control: core.ControlFWER, HoldoutRandom: true, Seed: seed},
		{MinSup: 600, Method: core.MethodHoldout, Control: core.ControlFDR, HoldoutRandom: true, Seed: seed},
	}
}

// batchOp is one timed operation: CSV bytes → LoadCSV → NewSession →
// MineBatch, through the library's public facade.
type batchOp struct {
	sess    *repro.Session
	results []*core.Result
}

func runBatchOp(csv []byte, cfgs []core.Config, tr *tracer, parent, op int) (*batchOp, error) {
	var (
		d   *repro.Dataset
		b   = &batchOp{}
		err error
	)
	tr.do("facade.load", parent, op, func() { d, err = repro.LoadCSV(bytes.NewReader(csv)) })
	if err != nil {
		return nil, err
	}
	tr.do("core.batch", parent, op, func() {
		b.sess = repro.NewSession(d)
		b.results, err = b.sess.MineBatch(context.Background(), cfgs)
	})
	return b, err
}

func digests(results []*core.Result) []digest {
	out := make([]digest, len(results))
	for i, res := range results {
		out[i] = digestOf(res)
	}
	return out
}

// checkDigests counts one failure per config whose digest differs.
func checkDigests(r *report, what string, got, want []digest) {
	for i := range want {
		if i >= len(got) || !got[i].equal(want[i]) {
			r.fail("%s: config %d: got %v, want %v", what, i, got[min(i, len(got)-1)], want[i])
		}
	}
}

// runBatch measures perm-synth or direct-dense. Untraced, it times whole
// operations and checks every one against a rebuild from layer calls made
// after the window. Traced, every operation is followed by its rebuild
// under spans, and the rebuild's digests are checked against the timed
// operation's.
func runBatch(o options, in *inputs, r *report) error {
	cfgs := batchConfigs(o.workload, o.seed)
	warm, err := runBatchOp(in.base, cfgs, nil, -1, 0)
	if err != nil {
		return err
	}
	want := digests(warm.results)
	warm = nil
	deadline := time.Now().Add(o.seconds)
	var (
		last  *batchOp
		times []float64
	)
	timeOps := func(stop func() bool) {
		for !stop() {
			// Start every operation from the same heap: the previous
			// operation's garbage is collected outside the timed span.
			runtime.GC()
			t0 := time.Now()
			b, err := runBatchOp(in.base, cfgs, nil, -1, 0)
			times = append(times, time.Since(t0).Seconds())
			r.attempted++
			if err != nil {
				r.fail("op %d: %v", r.attempted, err)
				continue
			}
			checkDigests(r, fmt.Sprintf("op %d vs first op", r.attempted), digests(b.results), want)
			last = b
		}
	}
	if !o.trace {
		m := startMeter()
		timeOps(func() bool { return time.Now().After(deadline) })
		m.stop(r, len(times))
		r.set("pipeline_s.p50", "s", median(times))
		if last != nil {
			retained(r)
			runtime.KeepAlive(last)
		}
		var c counts
		_, rb, err := rebuild(nil, -1, make([]int, len(cfgs)), in.base, cfgs, &c)
		if err != nil {
			return err
		}
		checkDigests(r, "layer rebuild vs timed ops", rebuiltDigests(rb), want)
		return nil
	}

	// Traced: two untraced operations give the reference for the tracing
	// overhead, then traced operations fill the rest of the window.
	n := 0
	timeOps(func() bool { n++; return n > 2 })
	untraced := median(times)
	tr := newTracer()
	var c counts
	var pipeline []float64
	ops := 0
	for ; ops == 0 || time.Now().Before(deadline); ops++ {
		runtime.GC()
		opID := tr.begin("op", -1, ops)
		t0 := time.Now()
		b, err := runBatchOp(in.base, cfgs, tr, opID, ops)
		pipeline = append(pipeline, time.Since(t0).Seconds())
		r.attempted++
		if err != nil {
			r.fail("traced op %d: %v", ops, err)
			tr.end(opID)
			continue
		}
		c.addSession(b.sess.Stats())
		rbID := tr.begin("rebuild", opID, ops)
		opIDs := make([]int, len(cfgs))
		for i := range opIDs {
			opIDs[i] = ops
		}
		d, rb, err := rebuild(tr, rbID, opIDs, in.base, cfgs, &c)
		tr.end(rbID)
		if err != nil {
			r.fail("traced op %d rebuild: %v", ops, err)
			tr.end(opID)
			continue
		}
		checkDigests(r, fmt.Sprintf("traced op %d: layer rebuild vs MineBatch", ops), rebuiltDigests(rb), digests(b.results))
		if in.embedded != nil {
			embedded := reindex(in.embedded, in.data.Schema, d.Schema)
			for i, cfg := range cfgs {
				ev := evalx.NewJudge(d, embedded, normalize(cfg).Alpha).Evaluate(rb[i].rules, rb[i].digest.Significant)
				c.truePos += int64(ev.Detected)
				c.falsePos += int64(ev.FalsePositives)
			}
		}
		tr.end(opID)
	}
	layerReport(r, tr.spans, &c, ops, "core.batch",
		[]string{"dataset.encode", "mining.mine", "mining.score", "permute.engine", "permute.adaptive"})
	coreReport(r, &c, ops)
	r.set("colstore.segments", "count", 0)
	r.set("colstore.disk_bytes_per_record", "B", 0)
	r.set("server.response_kb", "KB", 0)
	r.note("trace.pipeline_s.p50", "s", median(pipeline), "traced operations")
	r.note("trace.overhead_s", "s", median(pipeline)-untraced, "traced minus untraced pipeline_s.p50")
	return writeSpans(o.tracePath(), tr.spans)
}

// reindex maps planted rules from the generator's value indices to those
// of a schema re-read from CSV, which numbers values by first appearance.
func reindex(rules []synth.EmbeddedRule, from, to *dataset.Schema) []synth.EmbeddedRule {
	out := make([]synth.EmbeddedRule, len(rules))
	for i, e := range rules {
		out[i] = e
		out[i].Vals = make([]int32, len(e.Vals))
		for k, a := range e.Attrs {
			out[i].Vals[k] = int32(to.Attrs[a].ValueIndex(from.Attrs[a].Values[e.Vals[k]]))
		}
	}
	return out
}

// coreReport adds the session cache figures.
func coreReport(r *report, c *counts, ops int) {
	r.set("core.tree_hit_frac", "ratio", ratio(float64(c.treeHits), float64(c.treeHits+c.treeMisses)))
	r.set("core.score_hit_frac", "ratio", ratio(float64(c.scoreHits), float64(c.scoreHits+c.scoreMisses)))
	r.set("core.encodes", "count", float64(c.encodes)/float64(ops))
}
