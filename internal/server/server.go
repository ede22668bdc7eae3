package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/disc"
	"repro/internal/shard"
)

// Options configures the HTTP mining service.
type Options struct {
	// Addr is the listen address for ListenAndServe (default ":8080").
	Addr string
	// Timeout bounds each mining request's wall clock: the request context
	// is cancelled at the deadline and the response is 504 (default 2m;
	// negative disables).
	Timeout time.Duration
	// MaxUploadBytes caps a CSV upload body (default 64 MiB).
	MaxUploadBytes int64
	// Log receives request-level diagnostics (default log.Default()).
	Log *log.Logger
	// ShardPeers lists peer base URLs (e.g. "http://host:8080") holding
	// the same datasets. Every permutation run then splits into one shard
	// per entry (a peer listed twice gets two), each POSTed to that
	// peer's /v1/datasets/{name}/shard endpoint; empty = single-node.
	ShardPeers []string
	// StoreDir, when set, switches uploads to out-of-core mode: each CSV
	// upload streams into a segment store at StoreDir/{name} instead of
	// an in-memory dataset, and POST /v1/datasets/{name}/append grows it
	// with CSV deltas. Store-mode uploads must be pre-discretized — the
	// immutable segment bitmaps cannot be re-binned, so numeric columns
	// are rejected with 400 (discretize offline with `armine convert`).
	StoreDir string
}

func (o Options) withDefaults() Options {
	if o.Addr == "" {
		o.Addr = ":8080"
	}
	if o.Timeout == 0 {
		o.Timeout = 2 * time.Minute
	}
	if o.MaxUploadBytes == 0 {
		o.MaxUploadBytes = 64 << 20
	}
	if o.Log == nil {
		o.Log = log.Default()
	}
	return o
}

// Server is the long-lived HTTP mining service: a registry of prepared
// sessions behind JSON endpoints. Concurrent requests against one dataset
// share mining work through the session's singleflight stage caches, and
// Shutdown drains in-flight mining before returning.
type Server struct {
	reg  *Registry
	opts Options
	http *http.Server
	// shardClient issues fan-out requests to shard peers; one client so
	// connections to the peers are pooled across mining requests.
	shardClient *http.Client
}

// Connection timeouts for ListenAndServe. A client gets readHeaderTimeout
// to send its request headers, so a slowloris client trickling header
// bytes cannot hold connections open, and an idle keep-alive connection
// is closed after idleTimeout. Bodies and responses are deliberately not
// bounded (no ReadTimeout/WriteTimeout): large uploads and long
// permutation runs are legitimately slow, and Options.Timeout already
// bounds the mining itself.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// New builds a Server over reg. Call Handler for an http.Handler (tests,
// custom listeners) or ListenAndServe to serve opts.Addr.
func New(reg *Registry, opts Options) *Server {
	s := &Server{reg: reg, opts: opts.withDefaults(), shardClient: &http.Client{}}
	s.http = &http.Server{
		Addr:              s.opts.Addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	return s
}

// Registry returns the server's dataset registry (for pre-loading datasets
// before serving).
func (s *Server) Registry() *Registry { return s.reg }

// Handler returns the service's endpoint table:
//
//	GET    /healthz                     liveness + registry occupancy
//	GET    /v1/datasets                 list registered dataset names
//	POST   /v1/datasets?name=N          register a CSV upload as dataset N
//	DELETE /v1/datasets/{name}          drop a dataset
//	GET    /v1/datasets/{name}/stats    session stage/cache counters
//	POST   /v1/datasets/{name}/append   append a CSV delta (store mode only)
//	POST   /v1/datasets/{name}/mine     run one Config (body: ConfigJSON)
//	POST   /v1/datasets/{name}/batch    run many Configs (body: [ConfigJSON])
//	POST   /v1/datasets/{name}/shard    evaluate one shard assignment
//
// Mine and batch accept ?limit=K to truncate the reported rule lists.
// Shard is the worker half of distributed permutation counting: a peer
// coordinator posts {config, request} bodies here and merges the replies.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/datasets", s.handleList)
	mux.HandleFunc("POST /v1/datasets", s.handleUpload)
	mux.HandleFunc("DELETE /v1/datasets/{name}", s.handleDelete)
	mux.HandleFunc("GET /v1/datasets/{name}/stats", s.handleStats)
	mux.HandleFunc("POST /v1/datasets/{name}/append", s.handleAppend)
	mux.HandleFunc("POST /v1/datasets/{name}/mine", s.handleMine)
	mux.HandleFunc("POST /v1/datasets/{name}/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/datasets/{name}/shard", s.handleShard)
	return mux
}

// ListenAndServe serves opts.Addr until Shutdown (or a listener error).
func (s *Server) ListenAndServe() error {
	s.opts.Log.Printf("server: listening on %s (registry capacity %d)", s.opts.Addr, s.reg.Capacity())
	err := s.http.ListenAndServe()
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown stops accepting connections and waits for in-flight requests —
// including running mining stages — to drain, up to ctx's deadline.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.http.Shutdown(ctx)
}

// requestCtx derives the per-request mining context: the connection's
// context (cancelled on client disconnect) bounded by the configured
// timeout.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.opts.Timeout < 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.opts.Timeout)
}

// errorJSON is the uniform error body.
type errorJSON struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorJSON{Error: err.Error()})
}

// mineStatus maps a pipeline error to an HTTP status: deadline overruns
// are the server's fault (504), an incomplete stage is an internal fault
// (500), a failed shard peer is an upstream fault (502), everything else —
// config validation, node-budget exhaustion — is the request's (422).
func mineStatus(err error) int {
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	if errors.Is(err, context.Canceled) {
		return 499 // client closed request (nginx convention)
	}
	if errors.Is(err, core.ErrStageIncomplete) {
		return http.StatusInternalServerError
	}
	if errors.Is(err, shard.ErrPeer) {
		return http.StatusBadGateway
	}
	return http.StatusUnprocessableEntity
}

// session resolves the {name} path value, 404ing unknown datasets.
func (s *Server) session(w http.ResponseWriter, r *http.Request) (*core.Session, string, bool) {
	name := r.PathValue("name")
	sess, ok := s.reg.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown dataset %q", name))
		return nil, name, false
	}
	return sess, name, true
}

// limitParam parses the ?limit= rule-truncation parameter (0 = all).
func limitParam(r *http.Request) (int, error) {
	q := r.URL.Query().Get("limit")
	if q == "" {
		return 0, nil
	}
	limit, err := strconv.Atoi(q)
	if err != nil || limit < 0 {
		return 0, fmt.Errorf("invalid limit %q", q)
	}
	return limit, nil
}

// healthJSON is the GET /healthz body.
type healthJSON struct {
	Status    string `json:"status"`
	Datasets  int    `json:"datasets"`
	Capacity  int    `json:"capacity"`
	Evictions int64  `json:"evictions"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthJSON{
		Status:    "ok",
		Datasets:  s.reg.Len(),
		Capacity:  s.reg.Capacity(),
		Evictions: s.reg.Evictions(),
	})
}

// listJSON is the GET /v1/datasets body.
type listJSON struct {
	Datasets  []string `json:"datasets"`
	Capacity  int      `json:"capacity"`
	Evictions int64    `json:"evictions"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, listJSON{
		Datasets:  s.reg.Names(),
		Capacity:  s.reg.Capacity(),
		Evictions: s.reg.Evictions(),
	})
}

// datasetJSON describes a registered dataset.
type datasetJSON struct {
	Name       string `json:"name"`
	NumRecords int    `json:"num_records"`
	NumAttrs   int    `json:"num_attrs"`
	NumClasses int    `json:"num_classes"`
}

func describe(name string, sess *core.Session) datasetJSON {
	schema := sess.Schema()
	return datasetJSON{
		Name:       name,
		NumRecords: sess.NumRecords(),
		NumAttrs:   schema.NumAttrs(),
		NumClasses: len(schema.Class.Values),
	}
}

// handleUpload registers the request body — a CSV stream with a header
// row, class label last — under ?name=. In-memory mode discretizes
// numeric columns automatically; store mode (Options.StoreDir) streams
// the CSV into a segment store instead and requires pre-discretized
// input.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing ?name= query parameter"))
		return
	}
	// Reject bad names before parsing a potentially large body;
	// Registry re-checks under its lock.
	if !nameRE.MatchString(name) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("server: invalid dataset name %q", name))
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxUploadBytes)
	var sess *core.Session
	var err error
	if s.opts.StoreDir != "" {
		sess, err = s.uploadStore(name, body)
	} else {
		sess, err = s.uploadMemory(name, body)
	}
	if err != nil {
		writeError(w, bodyErrStatus(err), err)
		return
	}
	s.opts.Log.Printf("server: registered dataset %q (%d records, %d attrs)", name, sess.NumRecords(), sess.Schema().NumAttrs())
	writeJSON(w, http.StatusCreated, describe(name, sess))
}

// uploadMemory streams the CSV straight into an encoded dataset — the
// row reader interns values as it parses, so the raw string table and
// the cell matrix never coexist — then discretizes numeric columns in
// place.
func (s *Server) uploadMemory(name string, body io.Reader) (*core.Session, error) {
	d, err := dataset.ReadDataset(body, -1)
	if err != nil {
		return nil, err
	}
	if err := disc.DiscretizeDataset(d); err != nil {
		return nil, err
	}
	return s.reg.Register(name, d)
}

// uploadStore streams the CSV into a segment store at StoreDir/name,
// replacing any existing store of that name. Numeric columns cannot be
// discretized after ingest (segment bitmaps are immutable), so they are
// rejected and the fresh store removed.
func (s *Server) uploadStore(name string, body io.Reader) (*core.Session, error) {
	dir := filepath.Join(s.opts.StoreDir, name)
	if _, err := os.Stat(filepath.Join(dir, colstore.ManifestName)); err == nil {
		if err := colstore.Remove(dir); err != nil {
			return nil, err
		}
	}
	st, err := colstore.Create(dir, body, colstore.Options{})
	if err != nil {
		os.RemoveAll(dir) // partial ingest: segments without a manifest
		return nil, err
	}
	for _, attr := range st.Schema().Attrs {
		if disc.NumericVocab(attr.Values) {
			colstore.Remove(dir)
			return nil, fmt.Errorf("server: column %q is numeric; store-mode uploads must be pre-discretized (run `armine convert` first)", attr.Name)
		}
	}
	return s.reg.RegisterSource(name, st)
}

// LoadStores opens every segment store under Options.StoreDir and
// registers it, so a restarted server serves its datasets without
// re-upload. It is a no-op when StoreDir is unset.
func (s *Server) LoadStores() error {
	if s.opts.StoreDir == "" {
		return nil
	}
	names, err := colstore.List(s.opts.StoreDir)
	if err != nil {
		return err
	}
	for _, name := range names {
		st, err := colstore.Open(filepath.Join(s.opts.StoreDir, name))
		if err != nil {
			return fmt.Errorf("server: opening store %q: %w", name, err)
		}
		if _, err := s.reg.RegisterSource(name, st); err != nil {
			return err
		}
	}
	s.opts.Log.Printf("server: loaded %d store(s) from %s", len(names), s.opts.StoreDir)
	return nil
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.reg.Remove(name) {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown dataset %q", name))
		return
	}
	if s.opts.StoreDir != "" {
		// Best effort: the binding is gone either way, and Remove refuses
		// anything that is not a store directory.
		if err := colstore.Remove(filepath.Join(s.opts.StoreDir, name)); err != nil {
			s.opts.Log.Printf("server: removing store for %q: %v", name, err)
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

// appendJSON is the POST /v1/datasets/{name}/append response body.
type appendJSON struct {
	Name       string `json:"name"`
	Added      int    `json:"added"`
	NumRecords int    `json:"num_records"`
	Version    uint64 `json:"version"`
}

// handleAppend ingests a CSV delta — same header as the original upload —
// as new immutable segments of a store-backed dataset. The store's
// version bump flows into every stage-cache key, so the next mine
// re-snapshots the grown dataset; no stale stage can be served. Appending
// to an in-memory dataset is a 409.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	sess, name, ok := s.session(w, r)
	if !ok {
		return
	}
	store, isStore := sess.Source().(*colstore.Store)
	if !isStore {
		writeError(w, http.StatusConflict,
			fmt.Errorf("dataset %q is in-memory; append needs a store-backed dataset (serve with -store-dir)", name))
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxUploadBytes)
	added, err := store.Append(body, colstore.Options{})
	if err != nil {
		writeError(w, bodyErrStatus(err), err)
		return
	}
	s.opts.Log.Printf("server: appended %d records to %q (now %d, version %d)", added, name, store.NumRecords(), store.Version())
	writeJSON(w, http.StatusOK, appendJSON{
		Name:       name,
		Added:      added,
		NumRecords: store.NumRecords(),
		Version:    store.Version(),
	})
}

// statsJSON is the GET /v1/datasets/{name}/stats body.
type statsJSON struct {
	Dataset datasetJSON `json:"dataset"`
	Session StatsJSON   `json:"session"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	sess, name, ok := s.session(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, statsJSON{
		Dataset: describe(name, sess),
		Session: EncodeStats(sess.Stats()),
	})
}

func (s *Server) handleMine(w http.ResponseWriter, r *http.Request) {
	sess, name, ok := s.session(w, r)
	if !ok {
		return
	}
	limit, err := limitParam(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var cj ConfigJSON
	if err := decodeBody(w, r, &cj); err != nil {
		writeError(w, bodyErrStatus(err), err)
		return
	}
	cfg, err := cj.ToConfig()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.applyShards(&cfg, cj, name); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	res, err := sess.RunContext(ctx, cfg)
	if err != nil {
		s.opts.Log.Printf("server: mine %s: %v", name, err)
		writeError(w, mineStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, EncodeRun(res, limit))
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	sess, name, ok := s.session(w, r)
	if !ok {
		return
	}
	limit, err := limitParam(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var cjs []ConfigJSON
	if err := decodeBody(w, r, &cjs); err != nil {
		writeError(w, bodyErrStatus(err), err)
		return
	}
	if len(cjs) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("empty batch"))
		return
	}
	if len(cjs) > maxBatchConfigs {
		// RunBatch holds every distinct stage for the batch's duration
		// (bypassing the session cache bounds by design), so the request
		// size is the memory bound — keep it modest.
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("batch of %d configs exceeds the per-request maximum %d", len(cjs), maxBatchConfigs))
		return
	}
	cfgs, err := validateConfigs(cjs)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	for i := range cfgs {
		if err := s.applyShards(&cfgs[i], cjs[i], name); err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	results, err := sess.RunBatch(ctx, cfgs)
	if err != nil {
		s.opts.Log.Printf("server: batch %s: %v", name, err)
		writeError(w, mineStatus(err), err)
		return
	}
	runs := make([]RunJSON, len(results))
	for i, res := range results {
		runs[i] = EncodeRun(res, limit)
	}
	writeJSON(w, http.StatusOK, runs)
}

// maxJSONBody caps mine/batch request bodies: configs are tiny, so a
// modest fixed bound keeps a single request from buffering unbounded
// client input.
const maxJSONBody = 1 << 20

// maxBatchConfigs caps the configs in one batch request.
const maxBatchConfigs = 256

// bodyErrStatus distinguishes a size-limit hit (413, matching the upload
// path) from a malformed body (400).
func bodyErrStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// decodeBody strictly decodes one JSON value from the request body:
// unknown fields, trailing content after the value, and bodies over
// maxJSONBody are errors.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJSONBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		return fmt.Errorf("request body has trailing content after the JSON value")
	}
	return nil
}
