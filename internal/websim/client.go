package websim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/access"
)

// Route maps one middleware query predicate to a source: the server's base
// URL and the predicate's local index at that server.
type Route struct {
	BaseURL string
	Pred    int
}

// Client is an access.Backend that gathers scores from HTTP sources. It
// performs one HTTP request per access, matching the paper's cost model
// where each source access incurs network communication and server time.
// Transient failures (HTTP 5xx and transport errors) are retried with
// exponential backoff up to the configured limit, since real Web sources
// drop requests under load.
type Client struct {
	retrier
	routes []Route
	n      int
	localN int
	httpc  *http.Client
}

// NewClient dials every routed source, validates that all sources serve
// the same object universe (identical n), and that each route's predicate
// exists at its source. The context bounds the validation dials; later
// accesses carry their own.
func NewClient(ctx context.Context, httpc *http.Client, routes []Route, opts ...ClientOption) (*Client, error) {
	if len(routes) == 0 {
		return nil, fmt.Errorf("websim: client requires at least one route")
	}
	if httpc == nil {
		httpc = http.DefaultClient
	}
	c := &Client{routes: append([]Route(nil), routes...), httpc: httpc}
	c.configure(opts)
	for i, rt := range routes {
		var meta metaPayload
		if err := c.get(ctx, rt.BaseURL+"/meta", &meta); err != nil {
			return nil, fmt.Errorf("websim: route %d meta: %w", i, err)
		}
		localN := meta.LocalN
		if localN == 0 {
			localN = meta.N
		}
		if i == 0 {
			c.n = meta.N
			c.localN = localN
		} else if meta.N != c.n {
			return nil, fmt.Errorf("websim: route %d serves %d objects, route 0 serves %d", i, meta.N, c.n)
		} else if localN != c.localN {
			return nil, fmt.Errorf("websim: route %d holds %d local objects, route 0 holds %d", i, localN, c.localN)
		}
		if rt.Pred < 0 || rt.Pred >= meta.M {
			return nil, fmt.Errorf("websim: route %d predicate %d out of source range [0,%d)", i, rt.Pred, meta.M)
		}
	}
	return c, nil
}

func (c *Client) get(ctx context.Context, rawURL string, into interface{}) error {
	return c.do(ctx, &jsonRequest{c: c, method: http.MethodGet, url: rawURL, into: into})
}

// post sends the payload as JSON, with the same retry policy as get. The
// body is marshaled once and replayed on each attempt.
func (c *Client) post(ctx context.Context, rawURL string, payload, into interface{}) error {
	body, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("websim: encoding request: %w", err)
	}
	return c.do(ctx, &jsonRequest{c: c, method: http.MethodPost, url: rawURL, body: body, into: into})
}

// jsonRequest is one JSON-protocol request, the retry loop's attempter.
type jsonRequest struct {
	c      *Client
	method string
	url    string
	body   []byte
	into   interface{}
}

// attempt performs one request, bounded by the per-attempt timeout: a
// transport error, an attempt timeout or a 5xx is transient, and
// retryAfter carries the server's Retry-After hint from a 503 (zero when
// absent).
func (q *jsonRequest) attempt(ctx context.Context) (err error, retryable bool, retryAfter time.Duration) {
	actx := ctx
	if q.c.attemptTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, q.c.attemptTimeout)
		defer cancel()
	}
	var reader io.Reader
	if q.body != nil {
		reader = bytes.NewReader(q.body)
	}
	req, err := http.NewRequestWithContext(actx, q.method, q.url, reader)
	if err != nil {
		return err, false, 0
	}
	if q.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := q.c.httpc.Do(req)
	if err != nil {
		// Retryable as long as the caller's own context is alive: a
		// per-attempt timeout converts a hung source into a retryable
		// failure rather than a dead query.
		return err, ctx.Err() == nil, 0
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err, ctx.Err() == nil, 0
	}
	if resp.StatusCode != http.StatusOK {
		var ep errorPayload
		if json.Unmarshal(respBody, &ep) == nil && ep.Error != "" {
			err = fmt.Errorf("websim: source error (%d): %s", resp.StatusCode, ep.Error)
		} else {
			err = fmt.Errorf("websim: source returned status %d", resp.StatusCode)
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			retryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
		}
		return err, resp.StatusCode >= 500, retryAfter
	}
	return json.Unmarshal(respBody, q.into), false, 0
}

// parseRetryAfter reads an HTTP Retry-After header value (delta-seconds or
// HTTP-date), returning 0 when absent or unparsable.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// N returns the object count shared by all sources: the universe size
// when the sources are shards.
func (c *Client) N() int { return c.n }

// LocalN returns how many objects the sources actually hold: their shard
// slice size, or N for whole-universe sources. Sorted ranks are local —
// they walk a list of LocalN entries.
func (c *Client) LocalN() int { return c.localN }

// M returns the number of routed predicates.
func (c *Client) M() int { return len(c.routes) }

// accessURL starts one access's URL — the route's base and the endpoint
// up to and including its predicate — and intParam appends one more
// "&name=" with its integer. Integers need no escaping.
func accessURL(rt Route, endpoint string) []byte {
	b := make([]byte, 0, len(rt.BaseURL)+len(endpoint)+48)
	b = append(append(b, rt.BaseURL...), endpoint...)
	return strconv.AppendInt(b, int64(rt.Pred), 10)
}

func intParam(b []byte, name string, v int) []byte {
	return strconv.AppendInt(append(b, name...), int64(v), 10)
}

// Page fetches the entry at rank from of the predicate's descending list:
// one request, a page of one, because a Web source's sorted access is what
// the cost model prices, and the client does no source work past the rank
// asked for.
func (c *Client) Page(ctx context.Context, pred, from int, buf []access.Entry) (int, error) {
	page, err := c.SortedPage(ctx, pred, from, 1)
	return copy(buf, page), err
}

// Sorted implements access.Backend as a page of one.
func (c *Client) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	return access.Fields(access.SortedAt(ctx, c, pred, rank))
}

// SortedPage fetches count consecutive entries of the predicate's
// descending list starting at rank, in one round trip.
func (c *Client) SortedPage(ctx context.Context, pred, rank, count int) ([]access.Entry, error) {
	if pred < 0 || pred >= len(c.routes) {
		return nil, fmt.Errorf("websim: predicate %d out of range", pred)
	}
	rt := c.routes[pred]
	u := string(intParam(intParam(accessURL(rt, "/sortedpage?pred="), "&rank=", rank), "&count=", count))
	var p sortedPagePayload
	if err := c.get(ctx, u, &p); err != nil {
		return nil, err
	}
	if len(p.Entries) != count {
		return nil, fmt.Errorf("websim: source returned %d entries for a page of %d", len(p.Entries), count)
	}
	for _, e := range p.Entries {
		if e.Obj < 0 || e.Obj >= c.n {
			return nil, fmt.Errorf("websim: source returned out-of-universe object %d", e.Obj)
		}
	}
	return p.Entries, nil
}

// Random fetches the exact score of one object on one predicate.
func (c *Client) Random(ctx context.Context, pred, obj int) (float64, error) {
	if pred < 0 || pred >= len(c.routes) {
		return 0, fmt.Errorf("websim: predicate %d out of range", pred)
	}
	rt := c.routes[pred]
	u := string(intParam(accessURL(rt, "/random?pred="), "&obj=", obj))
	var p randomPayload
	if err := c.get(ctx, u, &p); err != nil {
		return 0, err
	}
	return p.Score, nil
}

// BatchRandom implements the access.BatchBackend capability: every
// (preds[i], objs[i]) probe is resolved, in order, into the returned
// scores. Probes are grouped by source so each routed server receives one
// POST /batch round trip, amortizing per-request latency across however
// many probes the caller coalesced.
func (c *Client) BatchRandom(ctx context.Context, preds, objs []int) ([]float64, error) {
	if len(preds) != len(objs) {
		return nil, fmt.Errorf("websim: batch has %d predicates but %d objects", len(preds), len(objs))
	}
	if len(preds) == 0 {
		return nil, nil
	}
	type group struct {
		indices []int
		probes  []batchProbe
	}
	groups := make(map[string]*group)
	var order []string
	for i, pred := range preds {
		if pred < 0 || pred >= len(c.routes) {
			return nil, fmt.Errorf("websim: predicate %d out of range", pred)
		}
		rt := c.routes[pred]
		g := groups[rt.BaseURL]
		if g == nil {
			g = &group{}
			groups[rt.BaseURL] = g
			order = append(order, rt.BaseURL)
		}
		g.indices = append(g.indices, i)
		g.probes = append(g.probes, batchProbe{Pred: rt.Pred, Obj: objs[i]})
	}
	scores := make([]float64, len(preds))
	for _, base := range order {
		g := groups[base]
		var p batchPayload
		if err := c.post(ctx, base+"/batch", batchRequest{Probes: g.probes}, &p); err != nil {
			return nil, err
		}
		if len(p.Scores) != len(g.probes) {
			return nil, fmt.Errorf("websim: source returned %d scores for %d probes", len(p.Scores), len(g.probes))
		}
		for j, idx := range g.indices {
			scores[idx] = p.Scores[j]
		}
	}
	return scores, nil
}
