// Package service exposes the top-k middleware as an HTTP service: clients
// POST queries in the paper's SQL-like syntax and receive ranked answers
// with the access bill. One service instance fronts one database (a
// dataset or any access backend composition) under one cost scenario —
// the deployable form of the middleware that cmd/topkd runs.
//
// Endpoints:
//
//	GET  /meta     -> {"n":1000,"m":2,"columns":["rating","closeness"],"scenario":"example1"}
//	GET  /healthz  -> 200 ok (503 when the readiness probe fails; see
//	                  Config.HealthBackend)
//	GET  /metrics  -> Prometheus text exposition of the engine and service
//	                  metric set (topk_* series)
//	GET  /debug/pprof/*  -> runtime profiles, when Config.EnablePprof is set
//	POST /query    <- {"sql":"select name from db order by min(rating, closeness) stop after 5",
//	                   "algorithm":"opt",          // opt (default) | nc | any baseline name
//	                   "h":[0.4,1], "omega":[1,0], // with algorithm "nc"
//	                   "budget":25.0,              // optional anytime cap (cost units)
//	                   "epsilon":0.1,              // optional approximation slack
//	                   "parallel":8}               // optional simulated concurrency
//	               -> {"items":[{"object":3,"label":"restaurant-003","score":0.91,"exact":true}],
//	                   "cost":14.2,"truncated":false,"plan":{"h":[...],"omega":[...]},
//	                   "sortedAccesses":[20,50],"randomAccesses":[0,0]}
//
// Adding "cursor":true to /query suspends the query server-side instead of
// discarding its state: the response carries the first page plus a cursor
// id, and POST /query/next deepens it at only the marginal access cost:
//
//	POST /query/next <- {"cursor":"<id>","k":5}      // next 5 answers
//	                 <- {"cursor":"<id>","tau":0.8}  // all answers scoring >= 0.8
//	                 <- {"cursor":"<id>","close":true}
//	                 -> {"cursor":"<id>","page":2,"items":[...],"cost":21.7,
//	                     "exhausted":false,...}
//
// Page responses list only the page's new answers; cost and access counts
// stay cumulative, so the final page's bill equals a one-shot run of the
// total depth. Cursors idle longer than Config.CursorTTL expire (a later
// /query/next gets 404), and at most Config.MaxCursors are open at once.
//
// Appending ?trace=1 to /query or /query/next returns a per-query
// execution trace in the response's "trace" field: phase timings,
// per-predicate access counts (matching the ledger exactly), refused
// accesses, and optimizer statistics. On cursor pages the trace is
// cumulative and carries a "cursor" identity block.
//
// A repeated POST /query body is a prepared statement: the handler looks
// the body's bytes up in a bounded statement cache and, on a hit, skips
// JSON decoding, SQL parsing and binding; plain answers are written by a
// direct encoder whose bytes equal encoding/json's (DESIGN.md §10, "The
// served request, front to back"). Bodies over 1 MiB are refused with 413.
//
// One engine serves every query, whatever columns its SQL names: the
// columns ride on the query (topk.Query.Cols), so one pool of query state,
// one contract guard and one breaker set — all keyed by database predicate
// — are shared by every column list.
//
// The service is fault-tolerant by construction: every query runs under a
// deadline (Config.QueryTimeout) with per-access timeouts and shared
// circuit breakers (one per dataset predicate and access kind), so a
// failing or hanging backend degrades the answer instead of wedging the
// service. Degraded answers are still 200s, carrying the best current
// candidates with "truncated":true and machine-readable reasons in
// "degraded". Above Config.MaxInflight concurrent queries, new requests
// are shed with 503 and a Retry-After hint.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	topk "repro"
	"repro/internal/access"
	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/kit"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/sqlq"
)

// Config describes the database one service instance fronts.
type Config struct {
	// Dataset is the in-memory database (each query reads the columns its
	// SQL names). Exactly one of Dataset and Cluster must be set.
	Dataset *data.Dataset
	// Cluster, when non-nil, fronts a shard cluster instead of a local
	// dataset: queries read the coordinator's scatter-gather Backend, so
	// every algorithm, breaker, and sharing feature runs unchanged over
	// the distributed sources.
	// The coordinator's topk_cluster_* series register on the service's
	// metrics registry, and ?trace=1 responses carry its shard fan-out
	// counters.
	Cluster *cluster.Coordinator
	// Store, when non-nil, fronts a disk store directory instead of an
	// in-memory dataset: queries read the store, so sorted accesses run as
	// block scans and random accesses as point reads while every algorithm,
	// breaker, and sharing feature runs unchanged. The store's topk_store_*
	// series register on the service's metrics registry. Exactly one of
	// Dataset, Cluster, and Store must be set.
	Store *topk.Store
	// StoreCalibration carries the store's IO-measured (cs, cr) — it
	// fingerprints every store-mode plan into the shared plan cache
	// (topk.WithStore) so plans priced under one calibration are not
	// replayed after the physics moves. Ignored without Store.
	StoreCalibration topk.StoreCalibration
	// Columns names the dataset's predicates for SQL binding.
	Columns []string
	// Scenario is the access cost configuration.
	Scenario topk.Scenario
	// Optimizer tunes the default cost-based pipeline.
	Optimizer opt.Config

	// Metrics is the registry behind GET /metrics. When nil the handler
	// creates a private one, so the endpoint always serves; pass a shared
	// registry to aggregate several handlers into one scrape.
	Metrics *obs.Registry
	// SlowQueryThreshold logs queries slower than this through Logger and
	// counts them in topk_slow_queries_total. Zero disables the log.
	SlowQueryThreshold time.Duration
	// Logger receives slow-query lines (default log.Default()).
	Logger *log.Logger
	// EnablePprof mounts the runtime profiling handlers under
	// /debug/pprof/. Off by default: profiles expose internals, so the
	// operator opts in (cmd/topkd does, behind -pprof).
	EnablePprof bool
	// HealthBackend, when non-nil, turns GET /healthz into a readiness
	// probe: one sorted access at rank 0 under HealthTimeout; a failure
	// answers 503. Nil keeps /healthz as a trivial liveness check — the
	// in-memory dataset cannot be "down".
	HealthBackend topk.Backend
	// HealthTimeout bounds the readiness probe (default 1s).
	HealthTimeout time.Duration

	// QueryTimeout bounds each /query end to end (default 30s): when it
	// fires mid-run the response carries the best current candidates with
	// "degraded":["query_deadline"] instead of hanging. Negative disables
	// the bound.
	QueryTimeout time.Duration
	// MaxInflight caps concurrently executing queries; excess requests are
	// shed immediately with 503 and a Retry-After hint instead of queuing
	// into an ever-growing pile. Zero means unlimited.
	MaxInflight int
	// AccessTimeout bounds each backend access inside a query (default 5s;
	// negative disables): a hung source becomes a failed access the
	// circuit breakers can act on.
	AccessTimeout time.Duration
	// Breaker tunes the per-capability circuit breakers shared across
	// queries. The zero value uses the breaker defaults (3 consecutive
	// failures open a circuit for 1s).
	Breaker topk.BreakerConfig
	// WrapBackend, when non-nil, wraps the handler's base backend — every
	// predicate of the database, in its own numbering. It runs once, when
	// the handler builds its one engine, and every query goes through the
	// returned backend, so a wrapper with state (a fault injector's access
	// counters and seeded rng) carries it from query to query. The chaos
	// tests use it to splice a fault injector into the service's own
	// execution path. With sharing enabled the wrapper sits above the
	// shared layer, so injected faults hit each query's session (and its
	// breakers) without poisoning the shared caches. A wrapper should
	// declare Unwrap() topk.Backend returning b: the engine finds the
	// sharing layer (for its planning discounts) and the cluster membership
	// (for the plan-cache key) by walking the stack, and a wrapper without
	// it hides both.
	WrapBackend func(b topk.Backend) topk.Backend

	// AdaptivePeriod, when > 0, runs every default-pipeline query with
	// mid-query adaptive re-planning: a divergence checkpoint every
	// AdaptivePeriod accesses compares observed source behaviour against
	// the plan's assumptions and re-plans through the shared plan cache
	// when sources drift (topk.WithAdaptive). Re-plans surface in /metrics
	// (topk_replan_total) and ?trace=1 responses. Skipped for explicit
	// algorithms, parallel, and approximate runs.
	AdaptivePeriod int
	// ContractGuard wraps each query's backend with the source contract
	// guard (topk.WithContractGuard): responses violating the access
	// contract — unsorted streams, non-finite or out-of-range scores,
	// duplicate ids, random results contradicting sorted sightings — are
	// rejected unbilled and, via the shared breakers, quarantine the lying
	// capability, so answers degrade honestly instead of going silently
	// wrong. Violations land in /metrics (topk_contract_violations_total)
	// and ?trace=1.
	ContractGuard bool

	// EnableSharing routes every query through one cross-query access-
	// sharing layer over the full dataset: concurrent queries share sorted
	// cursors and probed scores per dataset predicate (queries selecting
	// different column subsets still share the predicates they have in
	// common). Breaker transitions invalidate the affected predicate's
	// shared state, and the optimizer's expected costs are discounted by
	// the observed hit rates. Counters land in /metrics (topk_share_*)
	// and in ?trace=1 responses.
	EnableSharing bool
	// ShareScoreCapacity bounds the shared score cache in entries
	// (default share.DefaultScoreCapacity; negative disables score
	// caching while keeping shared cursors).
	ShareScoreCapacity int

	// CursorTTL expires server-side cursors idle longer than this: a
	// background reaper closes them and returns their pooled query state
	// (default 60s; negative disables expiry, so cursors live until the
	// client closes them or the handler shuts down). A request naming an
	// expired cursor gets 404 and re-runs from scratch.
	CursorTTL time.Duration
	// MaxCursors caps concurrently open server-side cursors; opening past
	// the cap is shed with 503 (default 128; negative means unlimited).
	MaxCursors int
}

// Handler is the HTTP middleware service.
type Handler struct {
	cfg Config
	mux *http.ServeMux

	// Observability: reg backs /metrics; metrics folds engine events into
	// it and is threaded through every query's engine run.
	reg       *obs.Registry
	metrics   *obs.Metrics
	logger    *log.Logger
	queryOK   *obs.Counter
	queryKO   *obs.Counter
	querySec  *obs.Histogram
	slowTotal *obs.Counter

	// breakers carries circuit-breaker state across queries: one breaker
	// per (dataset predicate, access kind), consulted by every query's
	// session through its resilience attachment.
	breakers *topk.BreakerSet
	// inflight counts queries currently executing, for load shedding.
	inflight atomic.Int64

	// plans memoizes optimizer plans across queries, keyed by the full
	// planning problem including the scenario the session currently sees —
	// so a breaker-degraded scenario keys differently and repeated queries
	// skip the plan search only while the plan is actually valid.
	// Concurrent identical queries dedup to a single optimization.
	plans *topk.PlanCache

	// base is the database every query reads, picked once: the
	// coordinator, the store or the dataset backend, under shared — the
	// cross-query access-sharing layer over the full database — when
	// Config.EnableSharing. Answers are named by Config.Dataset's labels —
	// a nil dataset, in cluster and store mode (shards and store files hold
	// scores, not row metadata), labels every object u<id>. A query's
	// columns never renumber objects, so one label source serves every
	// query.
	base   topk.Backend
	shared *topk.SharedAccess

	// eng is the one engine, over Config.WrapBackend(base) under the full
	// scenario: every query runs on it with its statement's columns, so one
	// pool keeps every query's session, score table, queue and cursor
	// scratch warm, and one contract guard witnesses every query's
	// accesses. resilient attaches the breakers and access timeout to a
	// run: built once, not as a closure per request.
	eng       *topk.Engine
	resilient topk.RunOption

	// stmts caches prepared statements by the request body that spelled
	// them, most recently used first: a repeated POST /query finds its
	// decoded request, parsed and bound query, canonical string and run
	// options in one lookup. Everything a statement is built from — the
	// body, Config.Columns, Config.Optimizer, Config.AdaptivePeriod — is
	// fixed for the handler's life, so entries never go stale and eviction
	// is the only removal. stmtHits and stmtMisses count lookups, read at
	// scrape.
	stmtMu     sync.Mutex
	stmts      *kit.LRU[string, *statement]
	stmtHits   atomic.Uint64
	stmtMisses atomic.Uint64
	// observed streams an untraced run's events into metrics: one option
	// value shared by every such run instead of a closure per request.
	observed topk.RunOption

	// Cursor registry: open server-side cursors by id, their pooled state
	// alive between requests. curPrefix makes ids unguessable across
	// handler restarts; the reaper (started lazily with the first cursor)
	// expires idle entries.
	curMu      sync.Mutex
	cursors    map[string]*liveCursor
	curSeq     atomic.Uint64
	curPrefix  string
	reaperOn   bool
	reaperStop chan struct{}
	closeOnce  sync.Once

	cursorOpened  *obs.Counter
	cursorPages   *obs.Counter
	cursorClosed  *obs.Counter
	cursorExpired *obs.Counter
	cursorOpenG   *obs.Gauge
}

// NewHandler validates the configuration and builds the service.
func NewHandler(cfg Config) (*Handler, error) {
	var base topk.Backend
	sources := 0
	if cfg.Dataset != nil {
		sources++
		base = topk.DataBackend(cfg.Dataset)
	}
	if cfg.Cluster != nil {
		sources++
		base = cfg.Cluster
	}
	if cfg.Store != nil {
		sources++
		base = cfg.Store
	}
	if sources == 0 {
		return nil, fmt.Errorf("service: config requires a dataset, a cluster coordinator, or a disk store")
	}
	if sources > 1 {
		return nil, fmt.Errorf("service: config names more than one of dataset, cluster coordinator, and disk store")
	}
	m := base.M()
	if len(cfg.Columns) != m {
		return nil, fmt.Errorf("service: %d column names for %d predicates", len(cfg.Columns), m)
	}
	if err := cfg.Scenario.Validate(m); err != nil {
		return nil, err
	}
	if cfg.HealthTimeout <= 0 {
		cfg.HealthTimeout = time.Second
	}
	if cfg.QueryTimeout == 0 {
		cfg.QueryTimeout = 30 * time.Second
	}
	if cfg.AccessTimeout == 0 {
		cfg.AccessTimeout = 5 * time.Second
	}
	if cfg.CursorTTL == 0 {
		cfg.CursorTTL = 60 * time.Second
	}
	if cfg.MaxCursors == 0 {
		cfg.MaxCursors = 128
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	logger := cfg.Logger
	if logger == nil {
		logger = log.Default()
	}
	h := &Handler{
		cfg:       cfg,
		mux:       http.NewServeMux(),
		base:      base,
		stmts:     kit.NewLRU[string, *statement](maxStatements),
		reg:       reg,
		metrics:   obs.NewMetrics(reg),
		logger:    logger,
		queryOK:   reg.Counter("topk_queries_total", "Queries served by status.", obs.L("status", "ok")),
		queryKO:   reg.Counter("topk_queries_total", "Queries served by status.", obs.L("status", "error")),
		querySec:  reg.Histogram("topk_query_seconds", "End-to-end /query latency.", nil),
		slowTotal: reg.Counter("topk_slow_queries_total", "Queries slower than the configured threshold."),
		breakers:  topk.NewBreakerSet(m, cfg.Breaker),
		plans:     topk.NewPlanCache(0),
		cursors:   make(map[string]*liveCursor),
		curPrefix: cursorPrefix(),

		cursorOpened:  reg.Counter("topk_cursor_opened_total", "Server-side cursors opened."),
		cursorPages:   reg.Counter("topk_cursor_pages_total", "Cursor pages served, including each cursor's opening page."),
		cursorClosed:  reg.Counter("topk_cursor_closed_total", "Cursors closed by client request or handler shutdown."),
		cursorExpired: reg.Counter("topk_cursor_expired_total", "Idle cursors expired by the TTL reaper."),
		cursorOpenG:   reg.Gauge("topk_cursor_open", "Server-side cursors currently open."),
	}
	h.observed = topk.WithObserver(h.metrics)
	const stmtHelp = "POST /query bodies by prepared-statement cache outcome."
	reg.CounterFunc("topk_statement_cache_total", stmtHelp, h.stmtHits.Load, obs.L("result", "hit"))
	reg.CounterFunc("topk_statement_cache_total", stmtHelp, h.stmtMisses.Load, obs.L("result", "miss"))
	reg.GaugeFunc("topk_statement_cache_entries", "Prepared statements currently cached.", func() int64 {
		h.stmtMu.Lock()
		defer h.stmtMu.Unlock()
		return int64(h.stmts.Len())
	})
	// The base layer's own counters join the service's scrape, read when
	// it is scraped rather than written a second time per access.
	if cfg.Cluster != nil {
		cfg.Cluster.AttachMetrics(reg)
	}
	if cfg.Store != nil {
		cfg.Store.AttachMetrics(reg)
	}
	if cfg.EnableSharing {
		// The sharing layer sits above the whole database: a shared cursor
		// prefix hit or a cached probe never fans out to the shards or
		// reaches the disk.
		h.shared = topk.NewSharedAccess(base, topk.SharingOptions{
			ScoreCapacity: cfg.ShareScoreCapacity,
			Breakers:      h.breakers,
			Metrics:       reg,
		})
		h.base = h.shared
	}
	// The one engine (DESIGN.md "Backend stack"): the chaos wrapper over the
	// base, then the contract guard inside NewEngine, all on database
	// predicates.
	backend := h.base
	if cfg.WrapBackend != nil {
		backend = cfg.WrapBackend(backend)
	}
	engOpts := []topk.EngineOption{topk.WithPlanCache(h.plans)}
	if cfg.Store != nil {
		// Fingerprint the store identity and its measured calibration into
		// the plan cache: a re-calibration re-keys every plan.
		engOpts = append(engOpts, topk.WithStore(cfg.Store, cfg.StoreCalibration))
	}
	if cfg.ContractGuard {
		engOpts = append(engOpts, topk.WithContractGuard())
	}
	var err error
	if h.eng, err = topk.NewEngine(backend, cfg.Scenario, engOpts...); err != nil {
		return nil, err
	}
	res := &topk.Resilience{Breakers: h.breakers}
	if cfg.AccessTimeout > 0 {
		res.AccessTimeout = cfg.AccessTimeout
	}
	h.resilient = topk.WithResilience(res)
	h.mux.HandleFunc("/meta", h.handleMeta)
	h.mux.HandleFunc("/healthz", h.handleHealth)
	h.mux.HandleFunc("/query", h.handleQuery)
	h.mux.HandleFunc("/query/next", h.handleNext)
	h.mux.HandleFunc("/metrics", h.handleMetrics)
	if cfg.EnablePprof {
		// Explicit wiring: importing net/http/pprof for its side effect
		// would publish profiles on http.DefaultServeMux for every binary
		// linking this package, opted in or not.
		h.mux.HandleFunc("/debug/pprof/", pprof.Index)
		h.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		h.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		h.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		h.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return h, nil
}

// Metrics returns the registry behind /metrics (the configured one, or the
// private registry the handler created).
func (h *Handler) Metrics() *obs.Registry { return h.reg }

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

// QueryRequest is the POST /query payload.
type QueryRequest struct {
	SQL       string    `json:"sql"`
	Algorithm string    `json:"algorithm,omitempty"`
	H         []float64 `json:"h,omitempty"`
	Omega     []int     `json:"omega,omitempty"`
	Budget    float64   `json:"budget,omitempty"`
	Epsilon   float64   `json:"epsilon,omitempty"`
	Parallel  int       `json:"parallel,omitempty"`
	// Cursor opens the query as a resumable server-side cursor instead of
	// a one-shot run: the response carries the first page (the query's
	// "stop after k" answers) plus a cursor id for POST /query/next.
	// Incompatible with "parallel" and batch-only baselines.
	Cursor bool `json:"cursor,omitempty"`
}

// NextRequest is the POST /query/next payload: deepen, score-page, or close
// an open cursor.
type NextRequest struct {
	// Cursor is the id returned by POST /query with "cursor":true.
	Cursor string `json:"cursor"`
	// K asks for the next K answers (ordinal deepening). K=0 with no tau
	// is a metadata poll: an empty, access-free page that still reports
	// cumulative cost and exhaustion.
	K int `json:"k,omitempty"`
	// Tau switches this page to score-range mode: emit every remaining
	// answer provably scoring at least tau (NC-shaped cursors only).
	Tau *float64 `json:"tau,omitempty"`
	// Close releases the cursor instead of paging.
	Close bool `json:"close,omitempty"`
}

// QueryItem is one ranked answer in a response.
type QueryItem struct {
	Object int     `json:"object"`
	Label  string  `json:"label"`
	Score  float64 `json:"score"`
	Exact  bool    `json:"exact"`
}

// PlanPayload reports the optimizer's configuration choice.
type PlanPayload struct {
	H     []float64 `json:"h"`
	Omega []int     `json:"omega"`
}

// QueryResponse is the POST /query result.
type QueryResponse struct {
	Query          string       `json:"query"`
	Items          []QueryItem  `json:"items"`
	Cost           float64      `json:"cost"`
	Truncated      bool         `json:"truncated"`
	Plan           *PlanPayload `json:"plan,omitempty"`
	SortedAccesses []int        `json:"sortedAccesses"`
	RandomAccesses []int        `json:"randomAccesses"`
	// Degraded lists machine-readable reasons the answer is best-effort
	// rather than exact ("circuit_open:sa:p1", "query_deadline",
	// "no_legal_plan", ...). Absent for exact answers.
	Degraded []string `json:"degraded,omitempty"`
	// Trace is the per-query execution trace, present when the request
	// asked for it with ?trace=1.
	Trace *obs.TraceSnapshot `json:"trace,omitempty"`
	// Share snapshots the service's cross-query sharing layer at response
	// time (cumulative across queries, not per-query), present when
	// sharing is enabled and the request asked for a trace.
	Share *topk.SharingStats `json:"share,omitempty"`
	// Cluster snapshots the coordinator's scatter-gather counters and
	// membership at response time (cumulative across queries, like Share),
	// present when the service fronts a shard cluster and the request
	// asked for a trace.
	Cluster *cluster.Stats `json:"cluster,omitempty"`

	// Cursor/Page/Exhausted are the pagination fields of cursor-backed
	// responses. Items then holds only the page's new answers, while Cost
	// and the access counts stay cumulative across the cursor's life — the
	// final page's bill equals a one-shot run of the total depth. Closed
	// acknowledges a NextRequest.Close.
	Cursor    string `json:"cursor,omitempty"`
	Page      int    `json:"page,omitempty"`
	Exhausted bool   `json:"exhausted,omitempty"`
	Closed    bool   `json:"closed,omitempty"`
}

type errPayload struct {
	Error string `json:"error"`
}

// bufPool recycles request-sized buffers: a POST's body is read into one,
// looked up, and the same buffer then takes the encoded answer, written
// with a single syscall-sized Write; metric expositions stream through one
// too. Buffers that grew beyond maxPooledBuf are dropped rather than pinned
// in the pool.
var bufPool = sync.Pool{New: func() interface{} { return new(bytes.Buffer) }}

const maxPooledBuf = 1 << 20

func putBuf(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBuf {
		bufPool.Put(b)
	}
}

// jsonContentType is the Content-Type value of every JSON response, one
// slice shared by all of them: net/http copies header values out when the
// status line is written and never writes into them.
var jsonContentType = []string{"application/json"}

// writeBody sends a finished JSON body in one Write with an exact
// Content-Length.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	hdr := w.Header()
	hdr["Content-Type"] = jsonContentType
	hdr["Content-Length"] = []string{strconv.Itoa(len(body))}
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeJSON answers with v through encoding/json: errors, /meta and every
// other body off the query path.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	_ = json.NewEncoder(buf).Encode(v)
	writeBody(w, status, buf.Bytes())
	putBuf(buf)
}

// handleMetrics serves the Prometheus exposition through a pooled buffer:
// the registry streams into recycled memory and the response goes out in
// one Write with an exact Content-Length.
func (h *Handler) handleMetrics(w http.ResponseWriter, r *http.Request) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := h.reg.WritePrometheus(buf); err != nil {
		putBuf(buf)
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	_, _ = w.Write(buf.Bytes())
	putBuf(buf)
}

// handleHealth answers liveness, and — when a health backend is
// configured — readiness: the sources this instance fronts must answer one
// sorted access within the deadline, otherwise load balancers should stop
// routing queries here.
func (h *Handler) handleHealth(w http.ResponseWriter, r *http.Request) {
	if b := h.cfg.HealthBackend; b != nil {
		ctx, cancel := context.WithTimeout(r.Context(), h.cfg.HealthTimeout)
		defer cancel()
		//topklint:allow billedaccess readiness probe: one unbilled access decides routability, no query pays for it
		if _, _, err := b.Sorted(ctx, 0, 0); err != nil {
			writeJSON(w, http.StatusServiceUnavailable, errPayload{Error: "backend unavailable: " + err.Error()})
			return
		}
	}
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, "ok\n")
}

type metaPayload struct {
	N        int      `json:"n"`
	M        int      `json:"m"`
	Columns  []string `json:"columns"`
	Scenario string   `json:"scenario"`
}

func (h *Handler) handleMeta(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, metaPayload{
		N:        h.base.N(),
		M:        h.base.M(),
		Columns:  h.cfg.Columns,
		Scenario: h.cfg.Scenario.Name,
	})
}

// maxBody caps a POST body.
const maxBody = 1 << 20

// readPost is the front half of both POST endpoints: it enforces the method
// and reads the body into buf, answering the request itself (and reporting
// false) when the method is wrong, the read fails or the body is over
// maxBody.
func (h *Handler) readPost(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer) bool {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errPayload{Error: "POST required"})
		return false
	}
	// Read one byte past the cap, so a body at it and one over it differ.
	for buf.Len() <= maxBody {
		buf.Grow(bytes.MinRead)
		b := buf.AvailableBuffer()
		n, err := r.Body.Read(b[:min(cap(b), maxBody+1-buf.Len())])
		buf.Write(b[:n])
		if err == io.EOF {
			return true
		}
		if err != nil {
			h.reject(w, http.StatusBadRequest, "bad request: "+err.Error())
			return false
		}
	}
	h.reject(w, http.StatusRequestEntityTooLarge, "request body too large")
	return false
}

// decodeStrict decodes the JSON value at the front of body into req,
// refusing fields req does not declare.
func decodeStrict(body []byte, req any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(req)
}

// reject answers a failed request and counts it.
func (h *Handler) reject(w http.ResponseWriter, status int, msg string) {
	h.queryKO.Inc()
	writeJSON(w, status, errPayload{Error: msg})
}

// serve is the back half of both POST endpoints: shed past MaxInflight,
// run the engine work — which leaves the encoded answer in buf — under the
// latency histogram and the slow-query log (what names the unit of work,
// query the SQL it belongs to), count the outcome and write the response.
func (h *Handler) serve(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer, what, query string, run func(traced bool) (int, error)) {
	if max := h.cfg.MaxInflight; max > 0 {
		if h.inflight.Add(1) > int64(max) {
			h.inflight.Add(-1)
			h.metrics.Observe(obs.Event{Kind: obs.RequestShed})
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, errPayload{Error: "service overloaded; retry later"})
			return
		}
		defer h.inflight.Add(-1)
	}
	start := time.Now()
	buf.Reset()
	// Most requests carry no query string: skip building its url.Values.
	status, err := run(r.URL.RawQuery != "" && r.URL.Query().Get("trace") == "1")
	elapsed := time.Since(start)
	h.querySec.Observe(elapsed.Seconds())
	if t := h.cfg.SlowQueryThreshold; t > 0 && elapsed >= t {
		h.slowTotal.Inc()
		h.logger.Printf("service: slow %s (%v >= %v): %.120q", what, elapsed, t, query)
	}
	if err != nil {
		h.reject(w, status, err.Error())
		return
	}
	h.queryOK.Inc()
	writeBody(w, http.StatusOK, buf.Bytes())
}

func (h *Handler) handleQuery(w http.ResponseWriter, r *http.Request) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer putBuf(buf)
	if !h.readPost(w, r, buf) {
		return
	}
	st := h.cachedStatement(buf.Bytes())
	if st == nil {
		// A body not seen before (or not cacheable): decode it here, where
		// a malformed one is refused before it counts as a query; prepare
		// parses and binds it inside serve, where a bad query is counted
		// and timed like any other, and caches what it made.
		st = new(statement)
		if err := decodeStrict(buf.Bytes(), &st.req); err != nil {
			h.reject(w, http.StatusBadRequest, "bad request: "+err.Error())
			return
		}
		if buf.Len() <= maxStatementBody {
			st.key = buf.String()
		}
	}
	h.serve(w, r, buf, "query", st.req.SQL, func(traced bool) (int, error) {
		if st.req.Cursor {
			return h.openCursor(buf, st, traced)
		}
		return h.execute(r.Context(), buf, st, traced)
	})
}

// maxStatements bounds the statement cache; bodies over maxStatementBody
// are served but not cached, so the cache holds at most their product in
// keys. An application asks few statements many times: past the bound the
// least recently used one is dropped and prepared again on demand.
const (
	maxStatements    = 1024
	maxStatementBody = 2048
)

// statement is one POST /query body decoded, parsed and bound — a pure
// function of the body and the handler's fixed configuration, so a cached
// one is exactly what decoding the same bytes again would produce. A
// statement fresh from decoding has only req and key set; prepare fills in
// the rest and publishes it, after which nothing writes to it.
type statement struct {
	key   string // the body, to cache it under ("" when over maxStatementBody)
	req   QueryRequest
	q     topk.Query       // the bound query: F, k and the columns F reads
	query string           // the parsed query's canonical string: the response's "query" field
	opts  []topk.RunOption // what the request fixes of a run: algorithm, budget, epsilon, parallel
}

// cachedStatement looks body up among the prepared statements, counting
// the outcome.
func (h *Handler) cachedStatement(body []byte) *statement {
	h.stmtMu.Lock()
	st, ok := kit.GetBytes(h.stmts, body)
	h.stmtMu.Unlock()
	if !ok {
		h.stmtMisses.Add(1)
		return nil
	}
	h.stmtHits.Add(1)
	return st
}

// maxRunOptions is the most options a served run carries: observer,
// resilience and context around a statement's own, which are at most
// optimizer, budget, epsilon and parallel together. Callers of prepare
// hand it a stack array of this size to assemble them in.
const maxRunOptions = 8

// prepare configures one statement to run on the handler's engine —
// everything the one-shot path (execute) and the cursor path (openCursor)
// share: a fresh statement is first parsed, bound and, once all of that
// succeeded, cached for the requests that repeat its body; a cached one
// skips straight to its run options. Either way the parse and plan phases
// are reported, so phase counts stay one per query. It returns the run
// options appended to dst — without the context: one-shot runs attach the
// HTTP request's, cursors rebind a fresh deadline per page — and, when
// traced, the per-query trace riding along beside the service metrics every
// run feeds.
func (h *Handler) prepare(dst []topk.RunOption, st *statement, traced bool) (opts []topk.RunOption, tr *obs.QueryTrace, err error) {
	var o obs.Observer = h.metrics
	observed := h.observed
	if traced {
		tr = obs.NewQueryTrace()
		o = obs.Multi(h.metrics, tr)
		observed = topk.WithObserver(o)
	}
	parseStart := time.Now()
	fresh := st.q.F == nil
	if fresh {
		pq, perr := sqlq.Parse(st.req.SQL)
		if perr != nil {
			return nil, nil, perr
		}
		st.q, st.query = topk.Query{F: pq.Func, K: pq.K}, pq.String()
		st.q.Cols, err = sqlq.Bind(pq, h.cfg.Columns)
	}
	o.Observe(obs.Event{Kind: obs.PhaseDone, Label: string(obs.PhaseParse), Value: time.Since(parseStart).Seconds()})
	if err != nil {
		return nil, nil, err
	}
	planStart := time.Now()
	if fresh {
		if st.opts, err = h.requestOptions(&st.req); err != nil {
			return nil, nil, err
		}
		if st.key != "" {
			h.stmtMu.Lock()
			h.stmts.Put(st.key, st)
			h.stmtMu.Unlock()
		}
	}
	opts = append(append(dst, observed, h.resilient), st.opts...)
	o.Observe(obs.Event{Kind: obs.PhaseDone, Label: string(obs.PhasePlan), Value: time.Since(planStart).Seconds()})
	return opts, tr, nil
}

// requestOptions assembles the run options a request's own fields fix:
// algorithm, budget, epsilon and parallel. Observer, resilience and context
// belong to the run, not the statement, and are added around these.
func (h *Handler) requestOptions(req *QueryRequest) ([]topk.RunOption, error) {
	opts := make([]topk.RunOption, 0, 4)
	switch alg := req.Algorithm; {
	case alg == "" || alg == "opt":
		// The engine's plan cache (shared across queries via h.plans)
		// resolves the plan; hit/miss lands on the observer from inside
		// the cache, so the trace and metrics see the real outcome. With
		// sharing on, the engine finds the layer in its stack and discounts
		// the expected costs by the observed hit rates itself.
		opts = append(opts, topk.WithOptimizer(h.cfg.Optimizer))
		if h.cfg.AdaptivePeriod > 0 && req.Parallel == 0 && req.Epsilon == 0 {
			opts = append(opts, topk.WithAdaptive(h.cfg.AdaptivePeriod))
		}
	case alg == "nc":
		if req.H == nil {
			return nil, fmt.Errorf("service: algorithm \"nc\" requires h")
		}
		opts = append(opts, topk.WithNC(req.H, req.Omega))
	default:
		opts = append(opts, topk.WithAlgorithm(alg))
	}
	if req.Budget > 0 {
		opts = append(opts, topk.WithBudget(req.Budget))
	}
	if req.Epsilon > 0 {
		opts = append(opts, topk.WithApproximation(req.Epsilon))
	}
	if req.Parallel > 0 {
		opts = append(opts, topk.WithParallel(req.Parallel))
	}
	return opts, nil
}

// bound is one request's deadline — the stack's one deadline mechanism,
// access.Deadline — and the run option that attaches it, built once per
// pooled value instead of a context.WithTimeout and a WithContext closure
// per request. A bound whose deadline fired (or whose request was
// cancelled) is dropped, never pooled: whoever still holds it keeps seeing
// it expired.
type bound struct { //topklint:allow resetcomplete nothing to restore: Deadline.Stop disarms and detaches the deadline before a bound goes back, and opt is fixed to it
	dl  *access.Deadline
	opt topk.RunOption
}

var bounds = sync.Pool{New: func() any {
	b := &bound{dl: access.NewDeadline()}
	b.opt = topk.WithContext(b.dl)
	return b
}}

// startBound draws a bound and arms it over parent for one query or cursor
// page of at most timeout.
func startBound(parent context.Context, timeout time.Duration) *bound {
	b := bounds.Get().(*bound)
	if !b.dl.Start(parent, timeout) {
		// Unreachable for a bound that Stop let back into the pool; a fresh
		// one always starts.
		b = bounds.New().(*bound)
		b.dl.Start(parent, timeout)
	}
	return b
}

// stop ends the bound's unit and pools it again unless its deadline is
// spent.
func (b *bound) stop() {
	if b.dl.Stop() {
		bounds.Put(b)
	}
}

// execute runs one statement to completion, leaving the encoded answer in
// buf. The context (the HTTP request's) cancels the run when the client
// goes away; QueryTimeout bounds it through a pooled deadline.
func (h *Handler) execute(ctx context.Context, buf *bytes.Buffer, st *statement, traced bool) (int, error) {
	var scratch [maxRunOptions]topk.RunOption
	opts, tr, err := h.prepare(scratch[:0], st, traced)
	if err != nil {
		return http.StatusBadRequest, err
	}
	if t := h.cfg.QueryTimeout; t > 0 {
		b := startBound(ctx, t)
		defer b.stop()
		opts = append(opts, b.opt)
	} else {
		opts = append(opts, topk.WithContext(ctx))
	}
	ans, err := h.eng.Run(st.q, opts...)
	if err != nil {
		return http.StatusBadRequest, err
	}
	// A one-shot answer is the single page of the cursor it never opened.
	page := topk.Page{Items: ans.Items, Ledger: ans.Ledger, Truncated: ans.Truncated, Degraded: ans.Degraded, Plan: ans.Plan}
	h.answer(buf, st.query, &page, pagination{}, tr, nil)
	return http.StatusOK, nil
}

// answer encodes the response every answering path shares into buf. A
// plain request (tr nil) goes through the direct encoder; a traced one
// builds the QueryResponse and adds the trace — tagged with cur on cursor
// pages — and the sharing layer's and the cluster's snapshots beside it,
// through encoding/json.
func (h *Handler) answer(buf *bytes.Buffer, query string, page *topk.Page, pg pagination, tr *obs.QueryTrace, cur *obs.CursorTrace) {
	if tr == nil {
		buf.Write(appendQueryResponse(buf.AvailableBuffer(), h.cfg.Dataset, query, page, pg))
		return
	}
	resp := newQueryResponse(h.cfg.Dataset, query, page, pg)
	snap := tr.Snapshot()
	snap.Cursor = cur
	resp.Trace = &snap
	if h.shared != nil {
		s := h.shared.Stats()
		resp.Share = &s
	}
	if h.cfg.Cluster != nil {
		cs := h.cfg.Cluster.Stats()
		resp.Cluster = &cs
	}
	_ = json.NewEncoder(buf).Encode(resp)
}

// newQueryResponse assembles the untraced QueryResponse for page: what
// appendQueryResponse writes without building, kept for the traced path
// and as the encoder's reference.
func newQueryResponse(labels *data.Dataset, query string, page *topk.Page, pg pagination) *QueryResponse {
	resp := &QueryResponse{
		Query:          query,
		Cost:           page.Ledger.TotalCost.Units(),
		Truncated:      page.Truncated,
		SortedAccesses: page.Ledger.SortedCounts,
		RandomAccesses: page.Ledger.RandomCounts,
		Degraded:       page.Degraded,
		Cursor:         pg.cursor,
		Page:           pg.page,
		Exhausted:      page.Exhausted,
		Closed:         pg.closed,
	}
	for _, it := range page.Items {
		resp.Items = append(resp.Items, QueryItem{
			Object: it.Obj,
			Label:  labels.Label(it.Obj),
			Score:  it.Score,
			Exact:  it.Exact,
		})
	}
	if page.Plan != nil {
		resp.Plan = &PlanPayload{H: page.Plan.H, Omega: page.Plan.Omega}
	}
	return resp
}

// PlanCacheHits reports how many queries were answered with a cached plan
// (for tests and operational visibility). Singleflight followers count:
// they reused a concurrent identical optimization.
func (h *Handler) PlanCacheHits() int { return int(h.plans.Stats().Hits) }

// PlanCacheStats reports the plan cache's cumulative hits, misses, and
// evictions.
func (h *Handler) PlanCacheStats() topk.PlanCacheStats { return h.plans.Stats() }

// Sharing reports whether the cross-query sharing layer is enabled.
func (h *Handler) Sharing() bool { return h.shared != nil }

// ShareStats reports the sharing layer's cumulative counters (the zero
// Stats when sharing is disabled).
func (h *Handler) ShareStats() topk.SharingStats {
	if h.shared == nil {
		return topk.SharingStats{}
	}
	return h.shared.Stats()
}
