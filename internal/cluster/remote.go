package cluster

import (
	"context"
	"net/http"

	"repro/internal/access"
	"repro/internal/websim"
)

// RemoteShard speaks the websim shard protocol to one topkd -shard node:
// a websim.Client whose routes all point at the shard's base URL, plus
// the Shard-contract surface — LocalN, and the client's own SortedPage as
// the PageBackend capability: one shard round trip per cursor refill
// instead of one per entry.
type RemoteShard struct {
	*websim.Client
}

// DialShard connects to a shard node serving m predicates at baseURL,
// validating its /meta. The node must run in shard mode (topkd -shard),
// so its sorted streams carry global object ids and its meta reports the
// universe size alongside the local slice size; a whole-universe node
// degenerates to a 1-shard cluster. Client options (retries, attempt
// timeouts, observers) pass through to the underlying websim client.
func DialShard(ctx context.Context, baseURL string, m int, httpc *http.Client, opts ...websim.ClientOption) (*RemoteShard, error) {
	routes := make([]websim.Route, m)
	for i := range routes {
		routes[i] = websim.Route{BaseURL: baseURL, Pred: i}
	}
	c, err := websim.NewClient(ctx, httpc, routes, opts...)
	if err != nil {
		return nil, err
	}
	return &RemoteShard{Client: c}, nil
}

var (
	_ Shard               = (*RemoteShard)(nil)
	_ PageBackend         = (*RemoteShard)(nil)
	_ access.BatchBackend = (*RemoteShard)(nil)
)
