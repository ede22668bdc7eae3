package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"

	"repro/internal/core"
	"repro/internal/shard"
)

// shardRequestJSON is the POST /v1/datasets/{name}/shard body: the mining
// config that identifies the prepared session on this worker, plus the
// span assignment to evaluate against it.
type shardRequestJSON struct {
	Config  ConfigJSON    `json:"config"`
	Request shard.Request `json:"request"`
}

// handleShard is the worker half of distributed permutation counting: it
// resolves the same session stages a local mine would (sharing the
// singleflight stage caches), evaluates the assignment's permutation
// range, and replies with the shard's statistics for the coordinator to
// merge.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	sess, name, ok := s.session(w, r)
	if !ok {
		return
	}
	var sj shardRequestJSON
	if err := decodeBody(w, r, &sj); err != nil {
		writeError(w, bodyErrStatus(err), err)
		return
	}
	cfg, err := sj.Config.ToConfig()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	rep, err := sess.ShardSpan(ctx, cfg, sj.Request)
	if err != nil {
		s.opts.Log.Printf("server: shard %s: %v", name, err)
		writeError(w, mineStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// applyShards gives a decoded permutation config one HTTP shard worker per
// entry of the peer list (none without peers: single-node). The peers
// receive the client's own wire config, so they resolve the identical
// prepared session.
func (s *Server) applyShards(cfg *core.Config, cj ConfigJSON, name string) error {
	if cfg.Method != core.MethodPermutation || len(s.opts.ShardPeers) == 0 {
		return nil
	}
	raw, err := json.Marshal(cj)
	if err != nil {
		return fmt.Errorf("server: encoding peer config: %w", err)
	}
	workers := make([]shard.Worker, len(s.opts.ShardPeers))
	for i, peer := range s.opts.ShardPeers {
		workers[i] = &shard.HTTP{
			Client: s.shardClient,
			URL:    strings.TrimSuffix(peer, "/") + "/v1/datasets/" + url.PathEscape(name) + "/shard",
			Config: raw,
		}
	}
	cfg.ShardWorkers = workers
	return nil
}
