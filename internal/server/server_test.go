package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/disc"
	"repro/internal/synth"
)

// signalDataset returns a dataset with one strong embedded rule.
func signalDataset(t *testing.T, seed uint64) *dataset.Dataset {
	t.Helper()
	p := synth.PaperDefaults()
	p.N = 600
	p.Attrs = 10
	p.NumRules = 1
	p.MinCvg, p.MaxCvg = 150, 150
	p.MinConf, p.MaxConf = 0.9, 0.9
	p.Seed = seed
	res, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return res.Data
}

// newTestServer builds a server over a fresh registry and an httptest
// listener.
func newTestServer(t *testing.T, capacity int, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	opts.Log = log.New(io.Discard, "", 0)
	s := New(NewRegistry(capacity, core.CacheLimits{}), opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// wireBytes encodes v exactly as the server's response writer does.
func wireBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// canonRun strips the only nondeterministic response fields — the
// wall-clock timings — so the rest of the run can be compared
// byte-for-byte.
func canonRun(run RunJSON) RunJSON {
	run.MineMillis, run.CorrectMillis = 0, 0
	return run
}

// canonBody re-encodes a response body with timings zeroed.
func canonBody(t *testing.T, body []byte) []byte {
	t.Helper()
	var run RunJSON
	if err := json.Unmarshal(body, &run); err != nil {
		t.Fatalf("response %q: %v", body, err)
	}
	return wireBytes(t, canonRun(run))
}

// canonBatchBody is canonBody over a batch ([]RunJSON) response.
func canonBatchBody(t *testing.T, body []byte) []byte {
	t.Helper()
	var runs []RunJSON
	if err := json.Unmarshal(body, &runs); err != nil {
		t.Fatalf("response %q: %v", body, err)
	}
	for i := range runs {
		runs[i] = canonRun(runs[i])
	}
	return wireBytes(t, runs)
}

// post issues a JSON POST and returns status and body.
func post(t *testing.T, url string, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestServerUploadMineRoundTrip covers the zero-to-mined path over HTTP:
// CSV upload → registered dataset → one mine whose response is
// byte-identical to a direct pipeline run over the identically parsed CSV.
func TestServerUploadMineRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, 4, Options{})
	d := signalDataset(t, 31)
	var csvBuf bytes.Buffer
	if err := d.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	csvBytes := csvBuf.Bytes()

	status, body := post(t, ts.URL+"/v1/datasets?name=demo", string(csvBytes))
	if status != http.StatusCreated {
		t.Fatalf("upload status %d: %s", status, body)
	}
	var info datasetJSON
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Name != "demo" || info.NumRecords != d.NumRecords() {
		t.Fatalf("upload response %+v", info)
	}

	// The direct run must see the dataset exactly as the server parsed it:
	// same CSV, same read/discretize/convert path.
	tab, err := dataset.ReadTable(bytes.NewReader(csvBytes))
	if err != nil {
		t.Fatal(err)
	}
	classCol := len(tab.Header) - 1
	dt, err := disc.DiscretizeTable(tab, classCol)
	if err != nil {
		t.Fatal(err)
	}
	local, err := dt.ToDataset(classCol)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{MinSup: 60, Method: core.MethodDirect, Control: core.ControlFDR}
	fresh, err := core.Run(local, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := wireBytes(t, canonRun(EncodeRun(fresh, 0)))

	status, body = post(t, ts.URL+"/v1/datasets/demo/mine",
		`{"min_sup": 60, "method": "direct", "control": "fdr"}`)
	if status != http.StatusOK {
		t.Fatalf("mine status %d: %s", status, body)
	}
	if got := canonBody(t, body); !bytes.Equal(got, want) {
		t.Fatalf("mine response differs from direct run:\n got %s\nwant %s", got, want)
	}
}

// TestServerConcurrentMineSharedStages is the serving acceptance property:
// N concurrent mine requests against two registered datasets all return
// responses byte-identical to direct Mine calls, while each session's
// counters show exactly one executed mine — concurrent requests shared one
// mine per stage key via the singleflight caches.
func TestServerConcurrentMineSharedStages(t *testing.T) {
	s, ts := newTestServer(t, 4, Options{})
	names := []string{"d1", "d2"}
	cfgs := map[string]string{
		"d1": `{"min_sup": 100, "method": "direct", "control": "fwer"}`,
		"d2": `{"min_sup": 120, "method": "direct", "control": "fdr", "alpha": 0.01}`,
	}
	coreCfgs := map[string]core.Config{
		"d1": {MinSup: 100, Method: core.MethodDirect, Control: core.ControlFWER},
		"d2": {MinSup: 120, Method: core.MethodDirect, Control: core.ControlFDR, Alpha: 0.01},
	}
	want := make(map[string][]byte)
	for i, name := range names {
		d := signalDataset(t, 40+uint64(i))
		if _, err := s.Registry().Register(name, d); err != nil {
			t.Fatal(err)
		}
		fresh, err := core.Run(d, coreCfgs[name])
		if err != nil {
			t.Fatal(err)
		}
		want[name] = wireBytes(t, canonRun(EncodeRun(fresh, 0)))
	}

	const perDataset = 8
	var wg sync.WaitGroup
	errs := make(chan error, 2*perDataset)
	for _, name := range names {
		for g := 0; g < perDataset; g++ {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/v1/datasets/"+name+"/mine", "application/json",
					strings.NewReader(cfgs[name]))
				if err != nil {
					errs <- err
					return
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d: %s", name, resp.StatusCode, body)
					return
				}
				var run RunJSON
				if err := json.Unmarshal(body, &run); err != nil {
					errs <- fmt.Errorf("%s: %w", name, err)
					return
				}
				var buf bytes.Buffer
				enc := json.NewEncoder(&buf)
				enc.SetEscapeHTML(false)
				if err := enc.Encode(canonRun(run)); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(buf.Bytes(), want[name]) {
					errs <- fmt.Errorf("%s: response differs from direct run", name)
				}
			}(name)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	for _, name := range names {
		status, body := get(t, ts.URL+"/v1/datasets/"+name+"/stats")
		if status != http.StatusOK {
			t.Fatalf("stats status %d: %s", status, body)
		}
		var st statsJSON
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.Session.Mines != 1 || st.Session.Scores != 1 || st.Session.Encodes != 1 {
			t.Errorf("%s: concurrent requests did not share stages: mines=%d scores=%d encodes=%d",
				name, st.Session.Mines, st.Session.Scores, st.Session.Encodes)
		}
		if st.Session.Corrections != perDataset {
			t.Errorf("%s: corrections=%d, want %d", name, st.Session.Corrections, perDataset)
		}
	}
}

// TestServerBatch maps the batch endpoint onto Session.RunBatch: one mine,
// N corrections, responses in request order and byte-identical to direct
// runs.
func TestServerBatch(t *testing.T) {
	s, ts := newTestServer(t, 4, Options{})
	d := signalDataset(t, 50)
	if _, err := s.Registry().Register("d", d); err != nil {
		t.Fatal(err)
	}
	batch := `[
		{"min_sup": 100, "method": "none"},
		{"min_sup": 100, "method": "direct", "control": "fwer"},
		{"min_sup": 100, "method": "direct", "control": "fdr"}
	]`
	coreCfgs := []core.Config{
		{MinSup: 100, Method: core.MethodNone},
		{MinSup: 100, Method: core.MethodDirect, Control: core.ControlFWER},
		{MinSup: 100, Method: core.MethodDirect, Control: core.ControlFDR},
	}
	wantRuns := make([]RunJSON, len(coreCfgs))
	for i, cfg := range coreCfgs {
		fresh, err := core.Run(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantRuns[i] = canonRun(EncodeRun(fresh, 0))
	}
	status, body := post(t, ts.URL+"/v1/datasets/d/batch", batch)
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %s", status, body)
	}
	if got, want := canonBatchBody(t, body), wireBytes(t, wantRuns); !bytes.Equal(got, want) {
		t.Fatalf("batch response differs from direct runs:\n got %s\nwant %s", got, want)
	}
	var st statsJSON
	if status, sb := get(t, ts.URL+"/v1/datasets/d/stats"); status != http.StatusOK {
		t.Fatalf("stats status %d", status)
	} else if err := json.Unmarshal(sb, &st); err != nil {
		t.Fatal(err)
	}
	if st.Session.Mines != 1 || st.Session.Corrections != int64(len(coreCfgs)) {
		t.Errorf("batch stats: mines=%d corrections=%d, want 1/%d",
			st.Session.Mines, st.Session.Corrections, len(coreCfgs))
	}
}

// TestServerRegistryEvictionObservable fills the registry past capacity:
// the LRU dataset stops resolving (404) and the eviction is visible in
// /healthz.
func TestServerRegistryEvictionObservable(t *testing.T) {
	s, ts := newTestServer(t, 2, Options{})
	d := tinyData()
	for _, name := range []string{"a", "b", "c"} {
		if _, err := s.Registry().Register(name, d); err != nil {
			t.Fatal(err)
		}
	}
	if status, body := get(t, ts.URL+"/v1/datasets/a/stats"); status != http.StatusNotFound {
		t.Errorf("evicted dataset stats status %d: %s", status, body)
	}
	status, body := get(t, ts.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz status %d", status)
	}
	var h healthJSON
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Datasets != 2 || h.Evictions != 1 {
		t.Errorf("healthz = %+v, want ok/2 datasets/1 eviction", h)
	}
}

// TestServerTimeout enforces the per-request deadline: an unmeetable
// timeout turns into 504, and a fresh request with a live deadline still
// succeeds (the deadline error never poisons the caches).
func TestServerTimeout(t *testing.T) {
	s, ts := newTestServer(t, 2, Options{Timeout: time.Nanosecond})
	d := signalDataset(t, 60)
	if _, err := s.Registry().Register("d", d); err != nil {
		t.Fatal(err)
	}
	body := `{"min_sup": 100, "method": "direct"}`
	status, resp := post(t, ts.URL+"/v1/datasets/d/mine", body)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", status, resp)
	}
	// A server with a livable deadline serves the same dataset fine — the
	// deadline error never poisons the session caches.
	s2, ts2 := newTestServer(t, 2, Options{})
	if _, err := s2.Registry().Register("d", d); err != nil {
		t.Fatal(err)
	}
	if status, resp := post(t, ts2.URL+"/v1/datasets/d/mine", body); status != http.StatusOK {
		t.Fatalf("with live deadline: status %d (%s)", status, resp)
	}
}

// TestServerConnectionTimeouts pins the slowloris guard on the listener
// ListenAndServe uses: headers and idle keep-alives are bounded, while
// request bodies and responses are not, because uploads and permutation
// runs may legitimately take minutes.
func TestServerConnectionTimeouts(t *testing.T) {
	s := New(NewRegistry(1, core.CacheLimits{}), Options{Log: log.New(io.Discard, "", 0)})
	if got := s.http.ReadHeaderTimeout; got != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 10s", got)
	}
	if got := s.http.IdleTimeout; got != 2*time.Minute {
		t.Errorf("IdleTimeout = %v, want 2m", got)
	}
	if s.http.ReadTimeout != 0 || s.http.WriteTimeout != 0 {
		t.Errorf("ReadTimeout = %v, WriteTimeout = %v; both must stay unset", s.http.ReadTimeout, s.http.WriteTimeout)
	}
}

// TestServerErrors covers the failure surface: unknown datasets, malformed
// bodies, invalid enums/limits and pipeline-level config errors, each with
// the right status code and a JSON error body.
func TestServerErrors(t *testing.T) {
	s, ts := newTestServer(t, 2, Options{})
	if _, err := s.Registry().Register("d", signalDataset(t, 70)); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		label  string
		method string
		url    string
		body   string
		status int
	}{
		{"mine unknown dataset", "POST", "/v1/datasets/nope/mine", `{"min_sup":5}`, http.StatusNotFound},
		{"stats unknown dataset", "GET", "/v1/datasets/nope/stats", "", http.StatusNotFound},
		{"bad json", "POST", "/v1/datasets/d/mine", `{`, http.StatusBadRequest},
		{"trailing content", "POST", "/v1/datasets/d/mine", `{"min_sup":5} {"min_sup":6}`, http.StatusBadRequest},
		{"unknown field", "POST", "/v1/datasets/d/mine", `{"bogus": 1}`, http.StatusBadRequest},
		{"bad method enum", "POST", "/v1/datasets/d/mine", `{"min_sup":5,"method":"bogus"}`, http.StatusBadRequest},
		{"bad control enum", "POST", "/v1/datasets/d/mine", `{"min_sup":5,"control":"bogus"}`, http.StatusBadRequest},
		{"bad test enum", "POST", "/v1/datasets/d/mine", `{"min_sup":5,"test":"bogus"}`, http.StatusBadRequest},
		{"bad limit", "POST", "/v1/datasets/d/mine?limit=-1", `{"min_sup":5}`, http.StatusBadRequest},
		{"config rejected by pipeline", "POST", "/v1/datasets/d/mine", `{"min_sup":5,"alpha":2}`, http.StatusUnprocessableEntity},
		{"negative permutations", "POST", "/v1/datasets/d/mine", `{"min_sup":5,"method":"permutation","permutations":-5}`, http.StatusUnprocessableEntity},
		{"empty batch", "POST", "/v1/datasets/d/batch", `[]`, http.StatusBadRequest},
		{"batch bad entry", "POST", "/v1/datasets/d/batch", `[{"min_sup":5},{"method":"bogus"}]`, http.StatusBadRequest},
		{"upload missing name", "POST", "/v1/datasets", "a,class\nx,y\n", http.StatusBadRequest},
		{"upload bad name", "POST", "/v1/datasets?name=a/b", "a,class\nx,y\n", http.StatusBadRequest},
		{"upload empty csv", "POST", "/v1/datasets?name=e", "", http.StatusBadRequest},
		{"delete unknown", "DELETE", "/v1/datasets/nope", "", http.StatusNotFound},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.url, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d (%s), want %d", tc.label, resp.StatusCode, body, tc.status)
			continue
		}
		var e errorJSON
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q not JSON", tc.label, body)
		}
	}
	// Batch index: the malformed entry's position is reported.
	status, body := post(t, ts.URL+"/v1/datasets/d/batch", `[{"min_sup":5},{"method":"bogus"}]`)
	if status != http.StatusBadRequest || !strings.Contains(string(body), "config 1") {
		t.Errorf("batch error should name the offending index: %d %s", status, body)
	}
}

// TestServerUploadTooLarge distinguishes a size-limit hit (413) from a
// malformed CSV (400) so clients can react to each.
func TestServerUploadTooLarge(t *testing.T) {
	_, ts := newTestServer(t, 2, Options{MaxUploadBytes: 16})
	status, body := post(t, ts.URL+"/v1/datasets?name=big", "a,class\nx,y\nx,y\nx,y\n")
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d (%s), want 413", status, body)
	}
}

// TestServerJSONBodyLimits bounds the per-request memory of mine/batch:
// oversized JSON bodies get 413 (like uploads) and oversized batches 400.
func TestServerJSONBodyLimits(t *testing.T) {
	s, ts := newTestServer(t, 2, Options{})
	if _, err := s.Registry().Register("d", tinyData()); err != nil {
		t.Fatal(err)
	}
	huge := `{"min_sup": 1, "test": "` + strings.Repeat(" ", maxJSONBody) + `"}`
	status, body := post(t, ts.URL+"/v1/datasets/d/mine", huge)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d (%.80s), want 413", status, body)
	}
	var b strings.Builder
	b.WriteString("[")
	for i := 0; i <= maxBatchConfigs; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"min_sup":%d}`, i+1)
	}
	b.WriteString("]")
	status, body = post(t, ts.URL+"/v1/datasets/d/batch", b.String())
	if status != http.StatusBadRequest || !strings.Contains(string(body), "maximum") {
		t.Fatalf("oversized batch: status %d (%.120s), want 400 naming the cap", status, body)
	}
}

// TestServerDeleteAndList exercises dataset lifecycle endpoints.
func TestServerDeleteAndList(t *testing.T) {
	s, ts := newTestServer(t, 4, Options{})
	d := tinyData()
	for _, n := range []string{"a", "b"} {
		if _, err := s.Registry().Register(n, d); err != nil {
			t.Fatal(err)
		}
	}
	status, body := get(t, ts.URL+"/v1/datasets")
	if status != http.StatusOK {
		t.Fatalf("list status %d", status)
	}
	var l listJSON
	if err := json.Unmarshal(body, &l); err != nil {
		t.Fatal(err)
	}
	if len(l.Datasets) != 2 {
		t.Fatalf("list = %v", l.Datasets)
	}
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/datasets/a", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	if s.Registry().Len() != 1 {
		t.Errorf("registry len = %d after delete", s.Registry().Len())
	}
}
