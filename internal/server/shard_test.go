package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
)

// mineBody is the permutation config every sharded-serving test mines
// with; shards only get to differ in where counting happens, never in the
// answer.
const mineBody = `{"min_sup": 60, "method": "permutation", "permutations": 120, "seed": 5, "control": "fwer"}`

// batchBody mines mineBody's FWER config together with its FDR twin.
const batchBody = `[` + mineBody + `, {"min_sup": 60, "method": "permutation", "permutations": 120, "seed": 5, "control": "fdr"}]`

// TestServerShardedMineByteIdentical: the same mine request single-node
// and fanned out over HTTP to one peer, or to that peer listed three
// times, must return byte-identical bodies (timings zeroed) — the serving
// layer's half of the conformance contract. A fleet with a failed peer
// answers 502 naming that peer, and a config still carrying the retired
// "shards" field is refused.
func TestServerShardedMineByteIdentical(t *testing.T) {
	d := signalDataset(t, 3)

	// The worker peer: holds the same dataset, serves /shard.
	peerSrv, peerTS := newTestServer(t, 4, Options{})
	if _, err := peerSrv.Registry().Register("sig", d); err != nil {
		t.Fatal(err)
	}
	// coordinator starts a server holding the same dataset that fans
	// permutation runs out to peers, one shard per entry.
	coordinator := func(peers ...string) string {
		srv, ts := newTestServer(t, 4, Options{ShardPeers: peers, Timeout: time.Second})
		if _, err := srv.Registry().Register("sig", d); err != nil {
			t.Fatal(err)
		}
		return ts.URL
	}

	status, single := post(t, peerTS.URL+"/v1/datasets/sig/mine", mineBody)
	if status != 200 {
		t.Fatalf("single-node mine: status %d: %s", status, single)
	}
	want := canonBody(t, single)
	status, singleBatch := post(t, peerTS.URL+"/v1/datasets/sig/batch", batchBody)
	if status != 200 {
		t.Fatalf("single-node batch: status %d: %s", status, singleBatch)
	}
	wantBatch := canonBatchBody(t, singleBatch)

	for _, peers := range [][]string{{peerTS.URL}, {peerTS.URL, peerTS.URL, peerTS.URL}} {
		coordURL := coordinator(peers...)
		status, fanned := post(t, coordURL+"/v1/datasets/sig/mine", mineBody)
		if status != 200 {
			t.Fatalf("%d-peer mine: status %d: %s", len(peers), status, fanned)
		}
		if got := canonBody(t, fanned); string(got) != string(want) {
			t.Fatalf("%d-peer mine diverged:\n got %s\nwant %s", len(peers), got, want)
		}
		status, fanned = post(t, coordURL+"/v1/datasets/sig/batch", batchBody)
		if status != 200 {
			t.Fatalf("%d-peer batch: status %d: %s", len(peers), status, fanned)
		}
		if got := canonBatchBody(t, fanned); string(got) != string(wantBatch) {
			t.Fatalf("%d-peer batch diverged:\n got %s\nwant %s", len(peers), got, wantBatch)
		}
	}

	// A failed peer is an upstream fault (502) named by its URL — never
	// the 499 of the cancellation it causes in its healthy siblings, nor
	// a 422 blaming the client's config. A peer that stalls past the
	// request deadline is still a 504.
	deadTS := httptest.NewServer(http.NotFoundHandler())
	deadTS.Close()
	_, emptyTS := newTestServer(t, 4, Options{}) // holds no dataset: /shard 404s
	stallTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // lets the server notice the client hanging up
		<-r.Context().Done()
	}))
	t.Cleanup(stallTS.Close)
	for _, tc := range []struct {
		name   string
		peers  []string
		status int
		names  string
	}{
		{"live+dead", []string{peerTS.URL, deadTS.URL}, http.StatusBadGateway, deadTS.URL},
		{"dead", []string{deadTS.URL}, http.StatusBadGateway, deadTS.URL},
		{"404", []string{emptyTS.URL}, http.StatusBadGateway, emptyTS.URL},
		{"stalled", []string{peerTS.URL, stallTS.URL}, http.StatusGatewayTimeout, ""},
	} {
		coordURL := coordinator(tc.peers...)
		for _, ep := range []struct{ path, body string }{{"mine", mineBody}, {"batch", batchBody}} {
			status, body := post(t, coordURL+"/v1/datasets/sig/"+ep.path, ep.body)
			if status != tc.status || !strings.Contains(string(body), tc.names) {
				t.Errorf("%s peers, /%s: status %d (%s), want %d naming %q", tc.name, ep.path, status, body, tc.status, tc.names)
			}
		}
	}

	// The shard count is no longer a config field: the peer list sets it.
	stale := `{"min_sup": 60, "method": "permutation", "permutations": 120, "seed": 5, "control": "fwer", "shards": 3}`
	if status, body := post(t, peerTS.URL+"/v1/datasets/sig/mine", stale); status != 400 || !strings.Contains(string(body), "shards") {
		t.Fatalf("config carrying shards: status %d (%s), want 400 naming the field", status, body)
	}
}

// TestServerPeerListSetsFanOut: a server started with ShardPeers runs
// every permutation config as one shard per listed peer — a peer listed
// three times receives three assignments for a fixed run — while
// non-permutation methods never touch the peers, and the sharded result
// still matches single-node output.
func TestServerPeerListSetsFanOut(t *testing.T) {
	d := signalDataset(t, 3)
	peerSrv, _ := newTestServer(t, 4, Options{})
	if _, err := peerSrv.Registry().Register("sig", d); err != nil {
		t.Fatal(err)
	}
	var assignments atomic.Int64
	peerTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/shard") {
			assignments.Add(1)
		}
		peerSrv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(peerTS.Close)
	coordSrv, coordTS := newTestServer(t, 4, Options{ShardPeers: []string{peerTS.URL, peerTS.URL, peerTS.URL}})
	if _, err := coordSrv.Registry().Register("sig", d); err != nil {
		t.Fatal(err)
	}

	_, plain := post(t, peerTS.URL+"/v1/datasets/sig/mine", mineBody)
	status, sharded := post(t, coordTS.URL+"/v1/datasets/sig/mine", mineBody)
	if status != 200 {
		t.Fatalf("peer-sharded mine: status %d: %s", status, sharded)
	}
	if string(canonBody(t, sharded)) != string(canonBody(t, plain)) {
		t.Fatal("peer-sharded mine diverged from single-node output")
	}
	if n := assignments.Load(); n != 3 {
		t.Fatalf("a fixed run over 3 listed peers posted %d shard assignments, want 3", n)
	}
	if status, body := post(t, coordTS.URL+"/v1/datasets/sig/mine", `{"min_sup": 60, "method": "direct"}`); status != 200 {
		t.Fatalf("direct mine: status %d: %s", status, body)
	}
	if n := assignments.Load(); n != 3 {
		t.Fatalf("a direct run posted %d shard assignments", n-3)
	}
}

// TestServerShardEndpoint exercises the worker endpoint directly: a valid
// assignment returns the shard's statistics, malformed assignments are
// rejected with request-level statuses.
func TestServerShardEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, 4, Options{})
	if _, err := srv.Registry().Register("sig", signalDataset(t, 3)); err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"config": %s, "request": {"shard": 0, "lo": 10, "hi": 20, "with_pool": true}}`, mineBody)
	status, reply := post(t, ts.URL+"/v1/datasets/sig/shard", body)
	if status != 200 {
		t.Fatalf("shard endpoint: status %d: %s", status, reply)
	}
	var rep struct {
		Shard    int       `json:"shard"`
		Lo       int       `json:"lo"`
		Hi       int       `json:"hi"`
		MinP     []float64 `json:"min_p"`
		PoolHist []int64   `json:"pool_hist"`
	}
	if err := json.Unmarshal(reply, &rep); err != nil {
		t.Fatalf("shard reply %s: %v", reply, err)
	}
	if rep.Lo != 10 || rep.Hi != 20 || len(rep.MinP) != 10 || len(rep.PoolHist) == 0 {
		t.Fatalf("shard reply shape wrong: %+v", rep)
	}
	var pooled int64
	for _, c := range rep.PoolHist {
		pooled += c
	}
	if want := int64(len(rep.PoolHist)-1) * 10; pooled != want {
		t.Fatalf("shard pool holds %d values, want %d rules × 10 perms = %d", pooled, len(rep.PoolHist)-1, want)
	}

	// A coordinator asking for per-rule own counts ("with_own"), which the
	// wire codec does not carry, is refused by the strict decoder, so a
	// mixed-version fleet fails loudly instead of merging.
	old := fmt.Sprintf(`{"config": %s, "request": {"shard": 0, "lo": 10, "hi": 20, "with_own": true, "with_pool": true}}`, mineBody)
	if status, body := post(t, ts.URL+"/v1/datasets/sig/shard", old); status != 400 || !strings.Contains(string(body), "with_own") {
		t.Fatalf("request carrying with_own: status %d (%s), want 400 naming the field", status, body)
	}

	for name, bad := range map[string]string{
		"range overrun":     fmt.Sprintf(`{"config": %s, "request": {"lo": 0, "hi": 1000}}`, mineBody),
		"inverted range":    fmt.Sprintf(`{"config": %s, "request": {"lo": 9, "hi": 3}}`, mineBody),
		"non-perm method":   `{"config": {"min_sup": 60, "method": "direct"}, "request": {"lo": 0, "hi": 5}}`,
		"unknown field":     `{"config": {}, "request": {"lo": 0, "hi": 5}, "extra": 1}`,
		"unknown dataset":   "",
		"retired unordered": fmt.Sprintf(`{"config": %s, "request": {"lo": 0, "hi": 5, "retired": [3, 1]}}`, mineBody),
	} {
		url := ts.URL + "/v1/datasets/sig/shard"
		if name == "unknown dataset" {
			url = ts.URL + "/v1/datasets/nope/shard"
			bad = fmt.Sprintf(`{"config": %s, "request": {"lo": 0, "hi": 5}}`, mineBody)
		}
		if status, body := post(t, url, bad); status < 400 {
			t.Errorf("%s: status %d (%s), want an error", name, status, body)
		}
	}
}

// loopbackPeer is a shard peer without the HTTP hop: it evaluates each
// assignment with Session.ShardSpan, the call the /shard handler makes.
type loopbackPeer struct {
	sess *core.Session
	cfg  core.Config
}

func (p loopbackPeer) Span(ctx context.Context, req shard.Request) (*shard.Reply, error) {
	return p.sess.ShardSpan(ctx, p.cfg, req)
}

// TestServerShardedMineSurvivesEviction: sharded mines hold their session
// (resolved through Get, exactly as the handler does) while the registry
// evicts the dataset underneath them — every run must complete with the
// same answer, like the unsharded eviction guarantee, with coordinator
// fan-out in flight. Run under -race in the CI matrix.
func TestServerShardedMineSurvivesEviction(t *testing.T) {
	srv, _ := newTestServer(t, 1, Options{})
	reg := srv.Registry()
	d := signalDataset(t, 3)
	if _, err := reg.Register("sig", d); err != nil {
		t.Fatal(err)
	}
	sess, ok := reg.Get("sig")
	if !ok {
		t.Fatal("session vanished before the test began")
	}
	cfg := core.Config{
		MinSup: 60, Method: core.MethodPermutation, Permutations: 120,
		Seed: 5, Control: core.ControlFWER,
	}
	want, err := sess.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg := cfg
	scfg.ShardWorkers = make([]shard.Worker, 3)
	for i := range scfg.ShardWorkers {
		scfg.ShardWorkers[i] = loopbackPeer{sess: sess, cfg: cfg}
	}

	var wg sync.WaitGroup
	results := make([]*core.Result, 4)
	errs := make([]error, len(results))
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = sess.RunContext(context.Background(), scfg)
		}(i)
	}
	// Concurrent registrations into a capacity-1 registry: each evicts the
	// previous session while the sharded mines are mid-flight.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i uint64) {
			defer wg.Done()
			if _, err := reg.Register(fmt.Sprintf("evict%d", i), signalDataset(t, 100+i)); err != nil {
				t.Error(err)
			}
		}(uint64(i))
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("sharded mine %d under eviction: %v", i, errs[i])
		}
		if got := wireBytes(t, canonRun(EncodeRun(results[i], 0))); string(got) != string(wireBytes(t, canonRun(EncodeRun(want, 0)))) {
			t.Fatalf("sharded mine %d under eviction diverged from the pre-eviction answer", i)
		}
	}
}
