package cluster

import (
	"context"
	"net/http"

	"repro/internal/access"
	"repro/internal/websim"
)

// RemoteShard is one topkd -shard node behind the shard wire: a
// websim.Wire — binary frames over a small pool of persistent connections
// upgraded on the node's HTTP port (DESIGN.md §15, "The shard wire") —
// which already is the Shard contract: global object ids, local ranks,
// LocalN, one round trip per page (a cursor refill) and per probe group
// (access.BatchBackend). Close it to release its connections.
type RemoteShard struct {
	*websim.Wire
}

// DialShard connects to a shard node serving m predicates at baseURL. The
// node must run in shard mode (topkd -shard), so its sorted streams carry
// global object ids and its handshake reports the universe size alongside
// the local slice size; a whole-universe node degenerates to a 1-shard
// cluster. A node that refuses the upgrade is a dial error: there is no
// second protocol to fall back to. Client options (retries, attempt
// timeouts, observers) configure the wire's retry policy.
func DialShard(ctx context.Context, baseURL string, m int, httpc *http.Client, opts ...websim.ClientOption) (*RemoteShard, error) {
	w, err := websim.DialWire(ctx, httpc, baseURL, m, opts...)
	if err != nil {
		return nil, err
	}
	return &RemoteShard{Wire: w}, nil
}

var (
	_ Shard               = (*RemoteShard)(nil)
	_ access.BatchBackend = (*RemoteShard)(nil)
)
