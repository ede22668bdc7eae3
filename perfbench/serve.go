package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/disc"
	"repro/internal/server"
)

const (
	serveBaseRows  = 28000 // rows of the upload; the rest arrive as deltas
	serveDeltaRows = 500
	serveTenants   = 2 // one closed-loop client per tenant; = the CPUs measured on
	serveLimit     = 100
)

// serveOp is one step of a client's fixed cycle: a /mine with cfg, or an
// /append of the next delta.
type serveOp struct {
	append bool
	cfg    server.ConfigJSON
}

// serveCycle is the 8-request cycle every client repeats: five direct
// mines at two supports, one adaptive and one fixed permutation run, one
// append. The append changes the store version, so the first mine at each
// support after it is cold.
func serveCycle(seed uint64) []serveOp {
	mine := func(minSup int, control string, alpha float64) serveOp {
		return serveOp{cfg: server.ConfigJSON{MinSup: minSup, Method: "direct", Control: control, Alpha: alpha}}
	}
	return []serveOp{
		mine(1000, "fwer", 0.05),
		mine(1500, "fdr", 0.05),
		{cfg: server.ConfigJSON{MinSup: 1000, Method: "permutation", Control: "fdr", Seed: seed,
			Adaptive: &server.AdaptiveJSON{MaxPerms: 1000}}},
		mine(1000, "fdr", 0.01),
		{cfg: server.ConfigJSON{MinSup: 1500, Method: "permutation", Control: "fwer", Permutations: 200, Seed: seed}},
		mine(1500, "fwer", 0.01),
		mine(1000, "fwer", 0.10),
		{append: true},
	}
}

// cacheModel labels a client's direct mines warm or cold from its own
// request sequence: a mine is cold when no mine at its support has run
// since the client's last upload or append.
type cacheModel struct{ warm map[int]bool }

// mine records a mine at minSup and reports whether it was cold.
func (m *cacheModel) mine(minSup int) (cold bool) {
	if m.warm == nil {
		m.warm = map[int]bool{}
	}
	cold = !m.warm[minSup]
	m.warm[minSup] = true
	return cold
}

// label classifies a /mine request: "perm" for a permutation run, else
// "mine-cold" or "mine-warm". Every mine, permutation runs included,
// warms its support.
func (m *cacheModel) label(op serveOp) string {
	cold := m.mine(op.cfg.MinSup)
	switch {
	case op.cfg.Method != "direct":
		return "perm"
	case cold:
		return "mine-cold"
	default:
		return "mine-warm"
	}
}

// reset records an upload or an append.
func (m *cacheModel) reset() { clear(m.warm) }

// request is one client request as the client saw it.
type request struct {
	tenant, op, state int // op: index in the cycle, -1 for an upload
	kind              string
	ms                float64
	bytes             int
	run               *server.RunJSON
}

// serveEnv is a store-mode server on a loopback listener.
type serveEnv struct {
	ts   *httptest.Server
	dir  string
	http *http.Client
}

func startServer(o options) (*serveEnv, error) {
	dir := filepath.Join(o.out, fmt.Sprintf("stores-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	srv := server.New(server.NewRegistry(serveTenants, core.CacheLimits{}), server.Options{
		StoreDir: dir, Timeout: -1, Log: log.New(io.Discard, "", 0),
	})
	ts := httptest.NewServer(srv.Handler())
	return &serveEnv{ts: ts, dir: dir, http: ts.Client()}, nil
}

// close stops the server, waits for its connections, and removes its stores.
func (e *serveEnv) close() error {
	e.ts.Close()
	return os.RemoveAll(e.dir)
}

// post sends one request and returns the response body of a 2xx reply.
func (e *serveEnv) post(path string, body []byte) ([]byte, error) {
	resp, err := e.http.Post(e.ts.URL+path, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

// tenant is one closed-loop client and the dataset it owns.
type tenant struct {
	id    int
	name  string
	state int // deltas appended since the last upload; -1 before the first
	model cacheModel
	reqs  []request
	cycle []float64 // seconds per completed 8-request cycle
	errs  []error
}

func (t *tenant) upload(e *serveEnv, in *inputs) {
	t0 := time.Now()
	b, err := e.post("/v1/datasets?name="+t.name, in.base)
	t.record(request{op: -1, kind: "upload"}, t0, b, err)
	if err == nil {
		var got struct {
			NumRecords int `json:"num_records"`
		}
		if err := json.Unmarshal(b, &got); err != nil || got.NumRecords != serveBaseRows {
			t.errs = append(t.errs, fmt.Errorf("%s upload: %s", t.name, b))
		}
	}
	t.state = 0
	t.model.reset()
}

func (t *tenant) do(e *serveEnv, in *inputs, k int, op serveOp) {
	t0 := time.Now()
	if op.append {
		delta := in.deltas[t.state]
		b, err := e.post("/v1/datasets/"+t.name+"/append", delta)
		t.record(request{op: k, kind: "append"}, t0, b, err)
		want := serveBaseRows + (t.state+1)*serveDeltaRows
		want = min(want, in.data.NumRecords())
		var got struct {
			NumRecords int `json:"num_records"`
		}
		if err == nil && (json.Unmarshal(b, &got) != nil || got.NumRecords != want) {
			t.errs = append(t.errs, fmt.Errorf("%s append %d: %s, want %d records", t.name, t.state, b, want))
		}
		t.state++
		t.model.reset()
		return
	}
	body, _ := json.Marshal(op.cfg) // a plain struct always marshals
	b, err := e.post(fmt.Sprintf("/v1/datasets/%s/mine?limit=%d", t.name, serveLimit), body)
	req := request{op: k, kind: t.model.label(op)}
	if err == nil {
		req.run = new(server.RunJSON)
		err = json.Unmarshal(b, req.run)
	}
	t.record(req, t0, b, err)
}

func (t *tenant) record(req request, t0 time.Time, body []byte, err error) {
	req.ms = float64(time.Since(t0).Nanoseconds()) / 1e6
	req.tenant, req.state, req.bytes = t.id, t.state, len(body)
	if err != nil {
		t.errs = append(t.errs, fmt.Errorf("%s %s: %w", t.name, req.kind, err))
		req.run = nil
	}
	t.reqs = append(t.reqs, req)
}

// loop runs the client until the deadline: an upload, then cycles until
// the deltas run out, then a fresh upload, and so on.
func (t *tenant) loop(e *serveEnv, in *inputs, cycle []serveOp, deadline time.Time) {
	for time.Now().Before(deadline) {
		if t.state < 0 || t.state == len(in.deltas) {
			t.upload(e, in)
		}
		t0, done := time.Now(), true
		for k, op := range cycle {
			if !time.Now().Before(deadline) {
				done = false
				break
			}
			t.do(e, in, k, op)
		}
		if done {
			t.cycle = append(t.cycle, time.Since(t0).Seconds())
		}
	}
}

// runServe measures serve-store: serveTenants closed-loop clients against
// one store-mode server, then, outside the window, the oracle and (traced)
// the per-layer replays.
func runServe(o options, in *inputs, e *serveEnv, r *report) error {
	cycle := serveCycle(o.seed)
	tenants := make([]*tenant, serveTenants)
	for i := range tenants {
		tenants[i] = &tenant{id: i, name: fmt.Sprintf("t%d", i), state: -1}
	}
	m := startMeter()
	deadline := time.Now().Add(o.seconds)
	var wg sync.WaitGroup
	for _, t := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.loop(e, in, cycle, deadline)
		}()
	}
	wg.Wait()

	var reqs []request
	var cycles []float64
	for _, t := range tenants {
		reqs = append(reqs, t.reqs...)
		cycles = append(cycles, t.cycle...)
	}
	if o.trace {
		r.note("trace.pipeline_s.p50", "s", median(cycles), "traced run; no spans are taken inside the window")
	} else {
		m.stop(r, len(reqs))
		r.set("pipeline_s.p50", "s", median(cycles))
		latencyRows(r, reqs)
	}

	// Bring every tenant to the same state, so the retained heap does not
	// depend on where the window cut the cycle: a fresh upload, then the
	// cycle's two cold mines.
	for _, t := range tenants {
		t.upload(e, in)
		t.do(e, in, 0, cycle[0])
		t.do(e, in, 1, cycle[1])
	}
	if !o.trace {
		retained(r)
	}
	for _, t := range tenants {
		r.attempted += len(t.reqs)
		for _, err := range t.errs {
			r.fail("%v", err)
		}
		reqs = append(reqs, t.reqs[len(t.reqs)-3:]...)
	}
	if err := e.close(); err != nil {
		return err
	}
	return serveOracle(o, in, cycle, reqs, r)
}

// latencyRows prints the client-side latency of each request class.
func latencyRows(r *report, reqs []request) {
	byKind := map[string][]float64{}
	var all []float64
	for _, q := range reqs {
		byKind[q.kind] = append(byKind[q.kind], q.ms)
		all = append(all, q.ms)
	}
	for _, k := range []struct{ kind, name string }{
		{"mine-warm", "mine_warm_ms.p50"}, {"mine-cold", "mine_cold_ms.p50"}, {"perm", "perm_ms.p50"},
		{"append", "append_ms.p50"}, {"upload", "upload_ms.p50"},
	} {
		r.note(k.name, "ms", median(byKind[k.kind]), fmt.Sprintf("n=%d", len(byKind[k.kind])))
	}
	r.note("request_ms.p90", "ms", nearestRank(all, 90), fmt.Sprintf("n=%d", len(all)))
	if p, v, ok := tail(all); ok {
		r.note(fmt.Sprintf("request_ms.p%d", p), "ms", v, fmt.Sprintf("n=%d, highest percentile with >=10 samples beyond", len(all)))
	}
}

// serveOracle checks every /mine response against core.Session.Run of the
// same config on an in-memory dataset holding the same rows, one session
// per dataset state, running the cycle's mines in order. The traced run
// also replays each state on a store-backed session and rebuilds it from
// layer calls under spans.
func serveOracle(o options, in *inputs, cycle []serveOp, reqs []request, r *report) error {
	byState := map[int][]request{}
	for _, q := range reqs {
		if q.run != nil {
			byState[q.state] = append(byState[q.state], q)
		}
	}
	states := make([]int, 0, len(byState))
	for s := range byState {
		states = append(states, s)
	}
	sort.Ints(states)
	var cfgs []core.Config
	var mineOps []int
	for k, op := range cycle {
		if op.append {
			continue
		}
		cfg, err := op.cfg.ToConfig()
		if err != nil {
			return err
		}
		cfgs = append(cfgs, cfg)
		mineOps = append(mineOps, k)
	}

	var tr *tracer
	var c counts
	replayMS := map[[2]int]float64{}
	var encodeMS []float64
	if o.trace {
		tr = newTracer()
	}
	for _, s := range states {
		csv := in.stateCSV(s)
		d, err := dataset.ReadDataset(bytes.NewReader(csv), -1)
		if err != nil {
			return err
		}
		if err := disc.DiscretizeDataset(d); err != nil {
			return err
		}
		sess := core.NewSession(d)
		want := make(map[int]server.RunJSON)
		wantDigest := make([]digest, len(cfgs))
		for i, cfg := range cfgs {
			res, err := sess.Run(cfg)
			if err != nil {
				return fmt.Errorf("oracle state %d op %d: %w", s, mineOps[i], err)
			}
			want[mineOps[i]] = server.EncodeRun(res, serveLimit)
			wantDigest[i] = digestOf(res)
		}
		for _, q := range byState[s] {
			if w := want[q.op]; !sameRun(*q.run, w) {
				r.fail("tenant %d state %d op %d: response %d tested/%d significant/cutoff %g, in-memory oracle %d/%d/%g",
					q.tenant, s, q.op, q.run.NumTested, q.run.NumSignificant, q.run.Cutoff, w.NumTested, w.NumSignificant, w.Cutoff)
			}
		}
		if tr == nil {
			continue
		}
		if err := replayState(tr, o, in, s, cfgs, mineOps, want, replayMS, &encodeMS, &c, r); err != nil {
			return err
		}
		opIDs := make([]int, len(cfgs))
		for i := range opIDs {
			opIDs[i] = s*len(cycle) + mineOps[i]
		}
		_, rb, err := rebuild(tr, -1, opIDs, csv, cfgs, &c)
		if err != nil {
			return err
		}
		checkDigests(r, fmt.Sprintf("state %d: layer rebuild vs in-memory oracle", s), rebuiltDigests(rb), wantDigest)
	}
	if tr == nil {
		return nil
	}

	// Per-layer figures are per dataset state: one state is the distinct
	// work behind one cycle's mines.
	n := len(states)
	layerReport(r, tr.spans, &c, n, "core.run",
		[]string{"colstore.snapshot", "mining.mine", "mining.score", "permute.engine", "permute.adaptive"})
	coreReport(r, &c, n)
	total, _, count := totals(tr.spans)
	st, err := storeStats(o, in)
	if err != nil {
		return err
	}
	r.set("colstore.segments", "count", float64(st.segments))
	r.set("colstore.disk_bytes_per_record", "B", st.bytesPerRecord)
	for _, x := range []string{"ingest", "append", "open", "snapshot"} {
		r.note("colstore."+x+"_ms", "ms", ratio(total["colstore."+x], float64(count["colstore."+x])), "per call")
	}
	var kb, self []float64
	byKind := map[string][]float64{}
	for _, q := range reqs {
		byKind[q.kind] = append(byKind[q.kind], q.ms)
		if q.run != nil {
			kb = append(kb, float64(q.bytes)/1e3)
			self = append(self, q.ms-replayMS[[2]int{q.state, q.op}])
		}
	}
	r.set("server.response_kb", "KB", median(kb))
	for _, k := range []string{"upload", "append", "mine-warm", "mine-cold", "perm"} {
		r.note("server.request_ms."+k, "ms", median(byKind[k]), fmt.Sprintf("n=%d", len(byKind[k])))
	}
	r.note("server.self_ms", "ms", median(self), "mine request minus its store-backed core replay")
	r.note("server.encode_ms", "ms", median(encodeMS), "EncodeRun + json.Marshal")
	return writeSpans(o.tracePath(), tr.spans)
}

// sameRun compares everything a response reports except its timings.
func sameRun(a, b server.RunJSON) bool {
	a.MineMillis, a.CorrectMillis, b.MineMillis, b.CorrectMillis = 0, 0, 0, 0
	return reflect.DeepEqual(a, b)
}

// replayState rebuilds state s as a segment store through colstore's
// public calls, then replays the cycle's mines on a store-backed
// core.Session — the server's work for those requests without HTTP.
func replayState(tr *tracer, o options, in *inputs, s int, cfgs []core.Config, mineOps []int,
	want map[int]server.RunJSON, replayMS map[[2]int]float64, encodeMS *[]float64, c *counts, r *report) error {
	dir := filepath.Join(o.out, fmt.Sprintf("replay-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var (
		st  *colstore.Store
		err error
	)
	tr.do("colstore.ingest", -1, s, func() { st, err = colstore.Create(dir, bytes.NewReader(in.base), colstore.Options{}) })
	if err != nil {
		return err
	}
	for k := 0; k < s; k++ {
		tr.do("colstore.append", -1, s, func() { _, err = st.Append(bytes.NewReader(in.deltas[k]), colstore.Options{}) })
		if err != nil {
			return err
		}
	}
	tr.do("colstore.open", -1, s, func() { st, err = colstore.Open(dir) })
	if err != nil {
		return err
	}
	// The session's first run snapshots the store; time one snapshot on
	// its own too, through the public call.
	tr.do("colstore.snapshot", -1, s, func() { _, _, err = st.Snapshot() })
	if err != nil {
		return err
	}
	sess := core.NewSessionSource(st)
	for i, cfg := range cfgs {
		var res *core.Result
		t0 := time.Now()
		tr.do("core.run", -1, s, func() { res, err = sess.Run(cfg) })
		replayMS[[2]int{s, mineOps[i]}] = float64(time.Since(t0).Nanoseconds()) / 1e6
		if err != nil {
			return err
		}
		t1 := time.Now()
		run := server.EncodeRun(res, serveLimit)
		if _, err := json.Marshal(run); err != nil {
			return err
		}
		*encodeMS = append(*encodeMS, float64(time.Since(t1).Nanoseconds())/1e6)
		if !sameRun(run, want[mineOps[i]]) {
			r.fail("state %d op %d: store-backed replay differs from the in-memory oracle", s, mineOps[i])
		}
	}
	c.addSession(sess.Stats())
	runtime.KeepAlive(st)
	return nil
}

// storeFigures describes a store holding the full dataset.
type storeFigures struct {
	segments       int
	bytesPerRecord float64
}

// storeStats builds a store from the upload plus every delta and reports
// its segment count and on-disk bytes per record.
func storeStats(o options, in *inputs) (storeFigures, error) {
	dir := filepath.Join(o.out, fmt.Sprintf("size-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return storeFigures{}, err
	}
	defer os.RemoveAll(dir)
	st, err := colstore.Create(dir, bytes.NewReader(in.base), colstore.Options{})
	if err != nil {
		return storeFigures{}, err
	}
	for _, d := range in.deltas {
		if _, err := st.Append(bytes.NewReader(d), colstore.Options{}); err != nil {
			return storeFigures{}, err
		}
	}
	var size int64
	err = filepath.WalkDir(dir, func(_ string, de os.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		fi, err := de.Info()
		size += fi.Size()
		return err
	})
	return storeFigures{st.NumSegments(), float64(size) / float64(st.NumRecords())}, err
}
