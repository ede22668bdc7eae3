package shard

import "fmt"

// Request is the wire form of one shard work assignment: evaluate the
// absolute permutation-index range [Lo, Hi) against the rules still live
// under the coordinator's retirement frontier. The JSON shape is the body
// the HTTP transport posts to a worker's /v1/datasets/{name}/shard
// endpoint (alongside the mining config that identifies the prepared
// session), and what in-process workers consume directly.
type Request struct {
	// Shard is the assignment's ordinal within its round — the slot the
	// reply must echo so the merge can reject duplicates.
	Shard int `json:"shard"`
	Lo    int `json:"lo"`
	Hi    int `json:"hi"`
	// Retired lists the rule indices the coordinator has retired so far,
	// strictly ascending; empty means every rule is live. Broadcasting the
	// frontier (rather than per-worker state) is what keeps adaptive
	// sharding exact: every worker compacts against the same frontier the
	// single-node run would use.
	Retired []int32 `json:"retired,omitempty"`
	// WithPool requests the pooled histogram alongside the
	// always-present minima.
	WithPool bool `json:"with_pool,omitempty"`
}

// Validate checks the assignment against the worker's session shape.
func (r Request) Validate(numPerms, numRules int) error {
	if r.Shard < 0 {
		return fmt.Errorf("shard: negative shard ordinal %d", r.Shard)
	}
	if r.Lo < 0 || r.Hi > numPerms || r.Lo >= r.Hi {
		return fmt.Errorf("shard: request range [%d, %d) not within [0, %d)", r.Lo, r.Hi, numPerms)
	}
	prev := int32(-1)
	for _, ri := range r.Retired {
		if ri < 0 || int(ri) >= numRules {
			return fmt.Errorf("shard: retired rule %d outside [0, %d)", ri, numRules)
		}
		if ri <= prev {
			return fmt.Errorf("shard: retired list not strictly ascending at rule %d", ri)
		}
		prev = ri
	}
	return nil
}

// Live expands the retirement frontier into the live mask
// Engine.ShardSpan consumes; nil when nothing has retired.
func (r Request) Live(numRules int) []bool {
	if len(r.Retired) == 0 {
		return nil
	}
	live := make([]bool, numRules)
	for i := range live {
		live[i] = true
	}
	for _, ri := range r.Retired {
		live[ri] = false
	}
	return live
}

// RetiredFromLive derives the wire-form frontier of a live mask: the
// indices of the retired rules, strictly ascending. nil masks (and masks
// with nothing retired) yield nil.
func RetiredFromLive(live []bool) []int32 {
	var retired []int32
	for ri, l := range live {
		if !l {
			retired = append(retired, int32(ri))
		}
	}
	return retired
}

// Reply is the wire form of one shard's statistics over [Lo, Hi), echoing
// the assignment's ordinal and range so the merge can verify the replies
// tile the round exactly. The fields mirror permute.ShardStats.
type Reply struct {
	Shard    int       `json:"shard"`
	Lo       int       `json:"lo"`
	Hi       int       `json:"hi"`
	MinP     []float64 `json:"min_p"`
	PoolHist []int64   `json:"pool_hist,omitempty"`
}
