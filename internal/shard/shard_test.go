package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mining"
	"repro/internal/permute"
	"repro/internal/synth"
)

// buildCase mines a synthetic dataset and returns the prepared session
// pieces every conformance test needs.
func buildCase(t *testing.T, seed uint64, n, attrs, minSup int) (*mining.Tree, []mining.Rule, []float64) {
	t.Helper()
	p := synth.PaperDefaults()
	p.N = n
	p.Attrs = attrs
	p.Seed = seed
	res, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	enc := dataset.Encode(res.Data)
	tree, err := mining.MineClosed(enc, mining.Options{MinSup: minSup, StoreDiffsets: true})
	if err != nil {
		t.Fatal(err)
	}
	rules, err := mining.GenerateRules(tree, mining.RuleOptions{Policy: mining.PaperPolicy})
	if err != nil {
		t.Fatal(err)
	}
	ps := make([]float64, len(rules))
	for i := range rules {
		ps[i] = rules[i].P
	}
	return tree, rules, ps
}

// localWorkers builds n Local workers sharing one labels-deferred engine.
func localWorkers(t *testing.T, tree *mining.Tree, rules []mining.Rule, cfg permute.Config, n int) []Worker {
	t.Helper()
	cfg.DeferLabels = true
	e, err := permute.NewEngine(tree, rules, cfg)
	if err != nil {
		t.Fatal(err)
	}
	workers := make([]Worker, n)
	for i := range workers {
		workers[i] = NewLocal(e)
	}
	return workers
}

// runner adapts a coordinator to the round-runner shape
// permute.DriveAdaptive consumes, bound to ctx.
func runner(c *Coordinator, ctx context.Context) permute.RoundRunner {
	return func(lo, hi int, live []bool, withPool bool) (*permute.ShardStats, error) {
		return c.Span(ctx, lo, hi, live, withPool)
	}
}

func TestPlanTilesExactly(t *testing.T) {
	for _, c := range []struct{ lo, hi, shards int }{
		{0, 10, 1}, {0, 10, 3}, {0, 10, 10}, {0, 10, 40}, {5, 12, 2}, {0, 1, 8}, {3, 3, 2}, {4, 2, 2},
	} {
		plan := Plan(c.lo, c.hi, c.shards)
		if c.hi <= c.lo {
			if plan != nil {
				t.Errorf("Plan(%d, %d, %d) = %v, want nil for an empty range", c.lo, c.hi, c.shards, plan)
			}
			continue
		}
		next := c.lo
		for _, r := range plan {
			if r[0] != next || r[1] <= r[0] {
				t.Fatalf("Plan(%d, %d, %d) = %v: tile %v breaks contiguity at %d", c.lo, c.hi, c.shards, plan, r, next)
			}
			next = r[1]
		}
		if next != c.hi {
			t.Errorf("Plan(%d, %d, %d) = %v: covers up to %d", c.lo, c.hi, c.shards, plan, next)
		}
		if want := min(c.shards, c.hi-c.lo); len(plan) != want && c.shards >= 1 {
			t.Errorf("Plan(%d, %d, %d): %d tiles, want %d", c.lo, c.hi, c.shards, len(plan), want)
		}
	}
}

// TestCoordinatorFixedByteIdentical: for 1, 2, 3 and 8 workers, a
// coordinator span over the full range must reproduce a single-node
// engine's MinP and CountLE byte for byte, with and without the pool.
func TestCoordinatorFixedByteIdentical(t *testing.T) {
	const numPerms = 40
	const seed = 17
	tree, rules, ps := buildCase(t, 9, 300, 8, 20)
	cfg := permute.Config{NumPerms: numPerms, Seed: seed, Workers: 2}
	single, err := permute.NewEngine(tree, rules, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantMinP := single.MinP()
	wantLE := single.CountLE()
	if err := single.Err(); err != nil {
		t.Fatal(err)
	}
	for _, nw := range []int{1, 2, 3, 8} {
		coord, err := NewCoordinator(localWorkers(t, tree, rules, cfg, nw), len(rules))
		if err != nil {
			t.Fatal(err)
		}
		for _, withPool := range []bool{false, true} {
			st, err := coord.Span(context.Background(), 0, numPerms, nil, withPool)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(st.MinP, wantMinP) {
				t.Fatalf("%d workers pool=%v: coordinator MinP differs from single-node", nw, withPool)
			}
			if !withPool {
				if st.PoolHist != nil {
					t.Fatalf("%d workers: unrequested pool histogram merged", nw)
				}
				continue
			}
			if gotLE := permute.NewRank(ps).CountsFromHist(st.PoolHist); !reflect.DeepEqual(gotLE, wantLE) {
				t.Fatalf("%d workers: coordinator CountLE differs from single-node", nw)
			}
		}
	}
}

// TestCoordinatorAdaptiveExactAgreement is the sharded half of the PR 5
// adaptive property test: across the same randomized dataset × seed ×
// workers × mode matrix, DriveAdaptive over the coordinator's Span
// must reproduce the single-node engine's AdaptiveResult exactly — every
// round length, retirement decision, per-rule count and permutation
// minimum — because the coordinator drives the identical schedule from
// merged histograms that equal the single-node ones. The matrix must
// actually retire rules, or the frontier broadcast goes untested.
func TestCoordinatorAdaptiveExactAgreement(t *testing.T) {
	const maxPerms = 400
	const alpha = 0.05
	cells := []struct{ dataSeed, permSeed uint64 }{{5, 101}, {11, 7}, {31, 42}}
	totalRetired := 0
	for _, c := range cells {
		tree, rules, ps := buildCase(t, c.dataSeed, 400, 10, 25)
		for _, workers := range []int{1, 4} {
			for _, fdr := range []bool{false, true} {
				cfg := permute.Config{
					Seed: c.permSeed, Workers: workers,
					Adaptive: permute.Adaptive{MinPerms: 50, MaxPerms: maxPerms},
				}
				single, err := permute.NewEngine(tree, rules, cfg)
				if err != nil {
					t.Fatal(err)
				}
				mode := permute.AdaptFWER
				if fdr {
					mode = permute.AdaptFDR
				}
				want, err := single.RunAdaptive(mode, alpha)
				if err != nil {
					t.Fatal(err)
				}
				coord, err := NewCoordinator(localWorkers(t, tree, rules, cfg, 3), len(rules))
				if err != nil {
					t.Fatal(err)
				}
				got, err := permute.DriveAdaptive(ps, cfg.Adaptive, mode, alpha, runner(coord, context.Background()))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed=%d/%d workers=%d mode=%v: sharded AdaptiveResult differs from single-node",
						c.dataSeed, c.permSeed, workers, mode)
				}
				totalRetired += got.RulesRetired
			}
		}
	}
	if totalRetired == 0 {
		t.Fatal("no rule retired anywhere in the matrix; the frontier broadcast went untested")
	}
}

// shardTestHandler serves the worker half of the wire protocol over a
// Local worker, mirroring the server's /v1/datasets/{name}/shard endpoint
// shape without importing the server package.
func shardTestHandler(w Worker) http.HandlerFunc {
	return func(rw http.ResponseWriter, r *http.Request) {
		var body struct {
			Config  json.RawMessage `json:"config"`
			Request Request         `json:"request"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		rep, err := w.Span(r.Context(), body.Request)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		rw.Header().Set("Content-Type", "application/json")
		json.NewEncoder(rw).Encode(rep)
	}
}

// TestHTTPWorkerByteIdentical proves the wire codec preserves
// bit-identity: a coordinator whose workers POST every assignment through
// a real HTTP round-trip (JSON-encoded floats and all) must still match
// the single-node engine exactly, fixed and adaptive.
func TestHTTPWorkerByteIdentical(t *testing.T) {
	const maxPerms = 200
	const alpha = 0.05
	tree, rules, ps := buildCase(t, 5, 400, 10, 25)
	cfg := permute.Config{
		Seed: 101, Workers: 2,
		Adaptive: permute.Adaptive{MinPerms: 50, MaxPerms: maxPerms},
	}
	ts := httptest.NewServer(shardTestHandler(localWorkers(t, tree, rules, cfg, 1)[0]))
	defer ts.Close()

	workers := make([]Worker, 3)
	for i := range workers {
		workers[i] = &HTTP{URL: ts.URL, Config: json.RawMessage(`{}`)}
	}
	coord, err := NewCoordinator(workers, len(rules))
	if err != nil {
		t.Fatal(err)
	}

	single, err := permute.NewEngine(tree, rules, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := single.RunAdaptive(permute.AdaptFDR, alpha)
	if err != nil {
		t.Fatal(err)
	}
	got, err := permute.DriveAdaptive(ps, cfg.Adaptive, permute.AdaptFDR, alpha, runner(coord, context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("HTTP-transported AdaptiveResult differs from single-node")
	}
}

// TestHTTPWorkerPeerError surfaces a peer's failure with its body excerpt.
func TestHTTPWorkerPeerError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		http.Error(rw, "no such session", http.StatusNotFound)
	}))
	defer ts.Close()
	h := &HTTP{URL: ts.URL}
	_, err := h.Span(context.Background(), Request{Hi: 1})
	if err == nil {
		t.Fatal("expected an error from a 404 peer")
	}
	if got := err.Error(); !strings.Contains(got, "404") || !strings.Contains(got, "no such session") {
		t.Fatalf("peer error %q lacks status or body excerpt", got)
	}
}

// failingWorker fails every span after a configurable number of calls.
type failingWorker struct {
	calls atomic.Int64
	after int64
}

func (f *failingWorker) Span(ctx context.Context, req Request) (*Reply, error) {
	if f.calls.Add(1) > f.after {
		return nil, fmt.Errorf("worker exploded")
	}
	minP := make([]float64, req.Hi-req.Lo)
	for i := range minP {
		minP[i] = 1
	}
	return &Reply{Shard: req.Shard, Lo: req.Lo, Hi: req.Hi, MinP: minP}, nil
}

// TestCoordinatorWorkerErrorAborts: one failing worker fails the whole
// span with the shard's range in the error, and cancels the siblings.
func TestCoordinatorWorkerErrorAborts(t *testing.T) {
	workers := []Worker{&failingWorker{after: 1 << 62}, &failingWorker{}}
	coord, err := NewCoordinator(workers, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = coord.Span(context.Background(), 0, 10, nil, false)
	if err == nil || !strings.Contains(err.Error(), "worker exploded") || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("coordinator error %v does not identify the failing shard", err)
	}
}

// TestCoordinatorContextCancelled: the caller's own cancellation wins over
// sibling echo errors.
func TestCoordinatorContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	tree, rules, _ := buildCase(t, 51, 150, 5, 10)
	cfg := permute.Config{NumPerms: 10, Seed: 1, Ctx: ctx}
	coord, err := NewCoordinator(localWorkers(t, tree, rules, cfg, 2), len(rules))
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := coord.Span(ctx, 0, 10, nil, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled coordinator returned %v, want context.Canceled", err)
	}
}

// TestRequestCodecRoundTrip: Live and RetiredFromLive are inverses, and
// Validate rejects malformed frontiers.
func TestRequestCodecRoundTrip(t *testing.T) {
	live := []bool{true, false, true, false, false, true}
	retired := RetiredFromLive(live)
	if want := []int32{1, 3, 4}; !reflect.DeepEqual(retired, want) {
		t.Fatalf("RetiredFromLive = %v, want %v", retired, want)
	}
	req := Request{Hi: 4, Retired: retired}
	if !reflect.DeepEqual(req.Live(6), live) {
		t.Fatalf("Live round-trip = %v, want %v", req.Live(6), live)
	}
	if (Request{Hi: 4}).Live(6) != nil {
		t.Fatal("empty frontier should expand to a nil mask")
	}
	if err := req.Validate(10, 6); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Request{
		{Shard: -1, Hi: 4},
		{Lo: -1, Hi: 4},
		{Lo: 4, Hi: 4},
		{Hi: 11},
		{Hi: 4, Retired: []int32{6}},
		{Hi: 4, Retired: []int32{2, 2}},
		{Hi: 4, Retired: []int32{3, 1}},
	} {
		if err := bad.Validate(10, 6); err == nil {
			t.Errorf("Validate accepted %+v", bad)
		}
	}
}

// TestMergeRejectsMalformedReplies pins every rejection class the merge
// guards: nil, duplicate-ordinal, gapped, overlapping, short and
// out-of-bounds replies must all fail rather than corrupt the null
// distribution.
func TestMergeRejectsMalformedReplies(t *testing.T) {
	mk := func(shard, lo, hi int) *Reply {
		minP := make([]float64, hi-lo)
		for i := range minP {
			minP[i] = 0.5
		}
		return &Reply{Shard: shard, Lo: lo, Hi: hi, MinP: minP, PoolHist: make([]int64, 3)}
	}
	if _, err := Merge(0, 10, 2, []*Reply{mk(0, 0, 5), mk(1, 5, 10)}, true); err != nil {
		t.Fatalf("valid tiling rejected: %v", err)
	}
	cases := []struct {
		name    string
		replies []*Reply
	}{
		{"nil reply", []*Reply{mk(0, 0, 5), nil}},
		{"duplicate ordinal", []*Reply{mk(0, 0, 5), mk(0, 5, 10)}},
		{"gap", []*Reply{mk(0, 0, 4), mk(1, 5, 10)}},
		{"overlap", []*Reply{mk(0, 0, 6), mk(1, 5, 10)}},
		{"missing tail", []*Reply{mk(0, 0, 5)}},
		{"overrun", []*Reply{mk(0, 0, 5), mk(1, 5, 11)}},
		{"empty tile", []*Reply{mk(0, 0, 5), {Shard: 1, Lo: 5, Hi: 5}, mk(2, 5, 10)}},
		{"short minima", []*Reply{mk(0, 0, 5), {Shard: 1, Lo: 5, Hi: 10, MinP: []float64{1},
			PoolHist: make([]int64, 3)}}},
	}
	for _, c := range cases {
		if _, err := Merge(0, 10, 2, c.replies, true); err == nil {
			t.Errorf("%s: merge accepted malformed replies", c.name)
		}
	}

	bad := mk(1, 5, 10)
	bad.MinP[0] = 1.5
	if _, err := Merge(0, 10, 2, []*Reply{mk(0, 0, 5), bad}, true); err == nil {
		t.Error("min-p above 1 accepted")
	}
	bad = mk(1, 5, 10)
	bad.PoolHist = []int64{5, 5, 5}
	if _, err := Merge(0, 10, 2, []*Reply{mk(0, 0, 5), bad}, true); err == nil {
		t.Error("pool histogram holding more values than evaluated accepted")
	}
	withExtras := mk(1, 5, 10)
	if _, err := Merge(0, 10, 2, []*Reply{
		{Shard: 0, Lo: 0, Hi: 5, MinP: mk(0, 0, 5).MinP, PoolHist: make([]int64, 3)},
		withExtras,
	}, false); err == nil {
		t.Error("unrequested counts accepted")
	}
}
