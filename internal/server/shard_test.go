package server

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// mineBody is the permutation config every sharded-serving test mines
// with; shards only get to differ in where counting happens, never in the
// answer.
const mineBody = `{"min_sup": 60, "method": "permutation", "permutations": 120, "seed": 5, "control": "fwer"}`

func shardedBody(shards int) string {
	return fmt.Sprintf(`{"min_sup": 60, "method": "permutation", "permutations": 120, "seed": 5, "control": "fwer", "shards": %d}`, shards)
}

// TestServerShardedMineByteIdentical: the same mine request at shards 1,
// in-process shards 3, and HTTP fan-out over a peer must return
// byte-identical bodies (timings zeroed) — the serving layer's half of the
// conformance contract.
func TestServerShardedMineByteIdentical(t *testing.T) {
	d := signalDataset(t, 3)

	// The worker peer: holds the same dataset, serves /shard.
	peerSrv, peerTS := newTestServer(t, 4, Options{})
	if _, err := peerSrv.Registry().Register("sig", d); err != nil {
		t.Fatal(err)
	}

	// The coordinator: same dataset, fans sharded runs out to the peer.
	coordSrv, coordTS := newTestServer(t, 4, Options{ShardPeers: []string{peerTS.URL}})
	if _, err := coordSrv.Registry().Register("sig", d); err != nil {
		t.Fatal(err)
	}

	status, single := post(t, peerTS.URL+"/v1/datasets/sig/mine", mineBody)
	if status != 200 {
		t.Fatalf("single-node mine: status %d: %s", status, single)
	}
	want := canonBody(t, single)

	// In-process sharding on the peer (no ShardPeers configured there).
	status, inproc := post(t, peerTS.URL+"/v1/datasets/sig/mine", shardedBody(3))
	if status != 200 {
		t.Fatalf("in-process sharded mine: status %d: %s", status, inproc)
	}
	if got := canonBody(t, inproc); string(got) != string(want) {
		t.Fatalf("in-process sharded mine diverged:\n got %s\nwant %s", got, want)
	}

	// HTTP fan-out: the coordinator posts shard assignments to the peer.
	status, fanned := post(t, coordTS.URL+"/v1/datasets/sig/mine", shardedBody(3))
	if status != 200 {
		t.Fatalf("fanned-out sharded mine: status %d: %s", status, fanned)
	}
	if got := canonBody(t, fanned); string(got) != string(want) {
		t.Fatalf("HTTP fan-out mine diverged:\n got %s\nwant %s", got, want)
	}
}

// TestServerDefaultShards: a server started with DefaultShards shards
// every permutation config that leaves the count unset, and the result
// still matches single-node output.
func TestServerDefaultShards(t *testing.T) {
	d := signalDataset(t, 3)
	plainSrv, plainTS := newTestServer(t, 4, Options{})
	shardSrv, shardTS := newTestServer(t, 4, Options{DefaultShards: 3})
	for _, s := range []*Server{plainSrv, shardSrv} {
		if _, err := s.Registry().Register("sig", d); err != nil {
			t.Fatal(err)
		}
	}
	_, plain := post(t, plainTS.URL+"/v1/datasets/sig/mine", mineBody)
	status, sharded := post(t, shardTS.URL+"/v1/datasets/sig/mine", mineBody)
	if status != 200 {
		t.Fatalf("default-sharded mine: status %d: %s", status, sharded)
	}
	if string(canonBody(t, sharded)) != string(canonBody(t, plain)) {
		t.Fatal("DefaultShards mine diverged from single-node output")
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
	scfg.Shards = 3

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
