package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/permute"
)

// Worker evaluates shard work assignments against its prepared session.
// Implementations must be exact: a reply's statistics must equal what a
// single-node engine would compute for the assignment's range, or the
// coordinator's merged results silently diverge from the conformance
// contract.
type Worker interface {
	Span(ctx context.Context, req Request) (*Reply, error)
}

// Local is the in-process Worker: a thin wrapper over a permutation
// engine, behind core's Session.ShardSpan (a peer's /shard endpoint) and
// the conformance tests. Several Local workers may share one engine.
type Local struct{ e *permute.Engine }

// NewLocal wraps an engine (typically built with Config.DeferLabels so
// construction skips the full label matrix).
func NewLocal(e *permute.Engine) *Local { return &Local{e: e} }

// Span validates and evaluates one assignment. Cancellation arrives via
// the engine's Config.Ctx; callers wire the dispatch context there when
// building the engine, which is why ctx is unused here.
func (l *Local) Span(_ context.Context, req Request) (*Reply, error) {
	if err := req.Validate(l.e.NumPerms(), l.e.NumRules()); err != nil {
		return nil, err
	}
	st, err := l.e.ShardSpan(req.Lo, req.Hi, req.Live(l.e.NumRules()), req.WithPool)
	if err != nil {
		return nil, err
	}
	return &Reply{Shard: req.Shard, Lo: st.Lo, Hi: st.Hi, MinP: st.MinP, PoolHist: st.PoolHist}, nil
}

// ErrPeer wraps every failure of an HTTP peer: the post, a non-200
// status, or a reply the strict codec refuses.
var ErrPeer = errors.New("shard peer failed")

// HTTP is the wire-transport Worker: each assignment is POSTed to a peer's
// /v1/datasets/{name}/shard endpoint together with the mining config that
// identifies the prepared session on the peer. Go's JSON encoding emits
// float64s in shortest-round-trip form, so p-values survive the wire
// bit for bit and HTTP shards merge as exactly as in-process ones.
type HTTP struct {
	// Client issues the requests; nil means http.DefaultClient.
	Client *http.Client
	// URL is the peer's shard endpoint, e.g.
	// http://host:8080/v1/datasets/census/shard.
	URL string
	// Config is the peer-side mining configuration, pre-marshalled in the
	// server's ConfigJSON wire form.
	Config json.RawMessage
}

// Span posts the assignment and decodes the peer's reply.
func (h *HTTP) Span(ctx context.Context, req Request) (*Reply, error) {
	body, err := json.Marshal(struct {
		Config  json.RawMessage `json:"config"`
		Request Request         `json:"request"`
	}{h.Config, req})
	if err != nil {
		return nil, fmt.Errorf("shard: encoding request: %w", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, h.URL, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("shard: building request: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	client := h.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrPeer, err) // a *url.Error names the peer
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return nil, fmt.Errorf("%w: peer %s returned %s: %s", ErrPeer, h.URL, resp.Status, bytes.TrimSpace(msg))
	}
	rep, err := decodeReply(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%w: decoding reply from %s: %w", ErrPeer, h.URL, err)
	}
	return rep, nil
}

// decodeReply decodes one Reply strictly, rejecting unknown fields and
// trailing content, so a peer on another codec version fails loudly.
func decodeReply(r io.Reader) (*Reply, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var rep Reply
	if err := dec.Decode(&rep); err != nil {
		return nil, err
	}
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		return nil, errors.New("trailing content after the reply object")
	}
	return &rep, nil
}
