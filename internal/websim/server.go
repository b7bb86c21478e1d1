// Package websim simulates Web sources over real HTTP: servers expose
// sorted and random access endpoints for the predicates they score (as
// superpages.com, dineme.com, and hotels.com do in the paper's travel
// scenario), and a client-side Backend lets the middleware run any
// algorithm in this repository against them unchanged. Network and server
// time can be simulated with a configurable per-request latency.
//
// Protocol (JSON over GET):
//
//	/meta                             -> {"n": 120, "m": 2}
//	/sortedpage?pred=0&rank=3&count=4 -> {"entries":[{"obj":17,"score":0.83},...]}
//	/random?pred=0&obj=17             -> {"score": 0.83}
//
// plus one POST endpoint coalescing random accesses (JSON body):
//
//	POST /batch  {"probes":[{"pred":0,"obj":17},...]} -> {"scores":[0.83,...]}
//
// Every request pays one round trip and passes the fault-injection gate
// once: a sorted access is a page of one (count=1), and a longer page or a
// batch succeeds or fails as a unit.
//
// Predicates in URLs are zero-based and local to the server; a middleware
// Route maps each query predicate to (server, local predicate).
//
// A server may also be one *shard* of a larger object universe
// (WithShardObjects): the dataset then holds only the shard's local
// slice, /meta reports the global object count plus the slice size as
// local_n, sorted pages walk the local list in global object ids, and
// random/batch probes address objects by global id.
//
// A shard is a node the middleware owns, not a third-party source, and a
// coordinator does not pay HTTP + JSON per access to reach it: the same
// port serves one more route,
//
//	GET /wire  (Connection: Upgrade, Upgrade: topk-wire/1) -> 101
//
// after which the connection carries the binary frame protocol of
// wire.go — the same three operations, resolved by the same server
// functions as the JSON endpoints, with the latency and fault gate
// applied per frame. DialWire is its client.
package websim

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/access"
	"repro/internal/data"
)

// Server is an http.Handler serving one Web source: a dataset restricted
// to the predicates the source can score.
type Server struct {
	ds         *data.Dataset
	preds      []int // local predicate -> dataset predicate
	global     []int // local object -> global id (nil = identity universe)
	globalN    int   // universe size when global is set
	toLocal    []int32
	latency    time.Duration
	failery    int           // fail every n-th request with 503 (0 = never)
	failRate   float64       // fail this fraction of requests with 503 (0 = never)
	outFrom    int           // outage window in request ordinals, half-open
	outTo      int           // [outFrom, outTo); outTo <= outFrom disables
	retryAfter time.Duration // Retry-After hint attached to 503s (0 = none)
	drift      float64       // score drift exponent (0 = honest)
	unsorted   float64       // fraction of sorted responses served out of order
	dupRate    float64       // fraction of sorted responses replaying the previous rank
	mu         sync.Mutex
	requests   uint64                                   // request counter for deterministic failure injection
	rng        *rand.Rand                               // nil unless WithFailRate; guarded by mu
	lieRng     *rand.Rand                               // nil unless WithUnsortedRate/WithDupRate; guarded by mu
	logf       func(format string, args ...interface{}) // nil unless WithLogf
	mux        *http.ServeMux
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithLatency makes every request sleep for d before answering,
// simulating network plus server time.
func WithLatency(d time.Duration) ServerOption {
	return func(s *Server) { s.latency = d }
}

// WithPredicates restricts the source to the given dataset predicates (in
// the order the source exposes them). Default: all predicates.
func WithPredicates(preds ...int) ServerOption {
	return func(s *Server) { s.preds = append([]int(nil), preds...) }
}

// WithFailEvery makes every n-th request fail with 503 Service
// Unavailable (deterministically), simulating the intermittent
// availability of real Web sources. n <= 0 disables failures.
func WithFailEvery(n int) ServerOption {
	return func(s *Server) { s.failery = n }
}

// WithFailRate makes each request fail with 503 with the given
// probability, drawn from a private generator seeded for replayability:
// equal seeds and request sequences produce equal failure sequences.
func WithFailRate(rate float64, seed int64) ServerOption {
	return func(s *Server) {
		s.failRate = rate
		s.rng = rand.New(rand.NewSource(seed))
	}
}

// WithOutageWindow fails every request whose ordinal n (0-based arrival
// order) satisfies from <= n < to with 503, simulating a hard outage that
// starts and ends at deterministic points. to <= from disables the window.
func WithOutageWindow(from, to int) ServerOption {
	return func(s *Server) { s.outFrom, s.outTo = from, to }
}

// WithRetryAfter attaches a Retry-After header (in whole seconds, rounded
// up) to every 503 the server emits, telling well-behaved clients when to
// come back.
func WithRetryAfter(d time.Duration) ServerOption {
	return func(s *Server) { s.retryAfter = d }
}

// WithScoreDrift warps every served score through s -> s^gamma (gamma > 0,
// 1 = honest). The transform is monotone and applied consistently across
// the sorted, random, and batch endpoints, so the source still honors the
// access contract — its score *distribution* just no longer matches any
// sample taken before the drift. This is the "wrong statistics" chaos mode
// the adaptive layer exists for: gamma > 1 collapses scores early (steep
// descent), gamma < 1 flattens the head.
func WithScoreDrift(gamma float64) ServerOption {
	return func(s *Server) { s.drift = gamma }
}

// WithUnsortedRate makes the sorted endpoint lie: each response (beyond
// rank 0) is, with the given probability, served with its score inflated
// above the previous rank's — a descending-order violation the contract
// guard must catch. The true object id is kept, so a later random access
// to it also contradicts the lie ("inconsistent"). Draws come from a
// private seeded generator for replayability.
func WithUnsortedRate(rate float64, seed int64) ServerOption {
	return func(s *Server) {
		s.unsorted = rate
		s.ensureLieRng(seed)
	}
}

// WithDupRate makes the sorted endpoint replay: each response (beyond rank
// 0) is, with the given probability, the previous rank's entry again — the
// same object at two ranks, a duplicate-id violation. Seeded like
// WithUnsortedRate; when both are set they share one generator.
func WithDupRate(rate float64, seed int64) ServerOption {
	return func(s *Server) {
		s.dupRate = rate
		s.ensureLieRng(seed)
	}
}

// WithShardObjects declares the server one shard of a larger object
// universe: the dataset holds the shard's slice in local ids, global[u]
// is local object u's global id, and globalN is the universe size. The
// sorted endpoints then serve global ids, and the random and batch
// endpoints resolve probes addressed by global id (unknown ids 404).
func WithShardObjects(global []int, globalN int) ServerOption {
	return func(s *Server) {
		s.global = append([]int(nil), global...)
		s.globalN = globalN
	}
}

func (s *Server) ensureLieRng(seed int64) {
	if s.lieRng == nil {
		s.lieRng = rand.New(rand.NewSource(seed))
	}
}

// NewServer builds a source server over the dataset.
func NewServer(ds *data.Dataset, opts ...ServerOption) (*Server, error) {
	s := &Server{ds: ds}
	for _, o := range opts {
		o(s)
	}
	if s.preds == nil {
		s.preds = make([]int, ds.M())
		for i := range s.preds {
			s.preds[i] = i
		}
	}
	for _, p := range s.preds {
		if p < 0 || p >= ds.M() {
			return nil, fmt.Errorf("websim: predicate %d out of dataset range [0,%d)", p, ds.M())
		}
	}
	if s.global != nil {
		if len(s.global) != ds.N() {
			return nil, fmt.Errorf("websim: shard mapping covers %d objects, dataset has %d", len(s.global), ds.N())
		}
		s.toLocal = make([]int32, s.globalN)
		for i := range s.toLocal {
			s.toLocal[i] = -1
		}
		for local, g := range s.global {
			if g < 0 || g >= s.globalN {
				return nil, fmt.Errorf("websim: shard object %d has global id %d outside universe [0,%d)", local, g, s.globalN)
			}
			if s.toLocal[g] != -1 {
				return nil, fmt.Errorf("websim: global id %d mapped twice", g)
			}
			s.toLocal[g] = int32(local)
		}
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/meta", s.handleMeta)
	s.mux.HandleFunc("/sortedpage", s.handleSortedPage)
	s.mux.HandleFunc("/random", s.handleRandom)
	s.mux.HandleFunc("/batch", s.handleBatch)
	return s, nil
}

// universeN is the object count the server advertises: the global
// universe for a shard, the dataset size otherwise.
func (s *Server) universeN() int {
	if s.global != nil {
		return s.globalN
	}
	return s.ds.N()
}

// globalID maps a local object id to the id served on the wire.
func (s *Server) globalID(local int) int {
	if s.global == nil {
		return local
	}
	return s.global[local]
}

// localID resolves a wire object id to a local one, or -1 when the
// server does not hold it.
func (s *Server) localID(global int) int {
	if s.global == nil {
		if global < 0 || global >= s.ds.N() {
			return -1
		}
		return global
	}
	if global < 0 || global >= s.globalN {
		return -1
	}
	return int(s.toLocal[global])
}

// ServeHTTP implements http.Handler. Every JSON request passes the
// latency and fault gate once; the upgrade route does not — on an upgraded
// connection the gate applies to each frame instead.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == WirePath {
		s.handleWire(w, r)
		return
	}
	if s.gate() {
		if s.retryAfter > 0 {
			secs := int64((s.retryAfter + time.Second - 1) / time.Second)
			w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		}
		writeError(w, errBusy)
		return
	}
	s.mux.ServeHTTP(w, r)
}

// gate is the price and the hazard of one operation, whichever protocol
// carried it: the simulated latency, then the fault injector's verdict
// (true = this operation fails as "temporarily overloaded").
func (s *Server) gate() bool {
	if s.latency > 0 {
		time.Sleep(s.latency)
	}
	return s.failRequest()
}

// failRequest advances the request counter and decides whether this
// request is a simulated failure under any configured fault mode.
func (s *Server) failRequest() bool {
	if s.failery <= 0 && s.failRate <= 0 && s.outTo <= s.outFrom {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ordinal := s.requests // 0-based arrival order
	s.requests++
	if s.failery > 0 && s.requests%uint64(s.failery) == 0 {
		return true
	}
	if s.outFrom < s.outTo && int(ordinal) >= s.outFrom && int(ordinal) < s.outTo {
		return true
	}
	return s.failRate > 0 && s.rng.Float64() < s.failRate
}

// status is how an operation ended. It is the frame protocol's status
// byte and maps onto the JSON protocol's HTTP status, so both protocols
// report one verdict reached by one function.
type status uint8

const (
	statusOK         status = iota
	statusBadRequest        // malformed or out-of-range request: permanent
	statusNotFound          // rank beyond the list, object not held: permanent
	statusBusy              // the fault gate refused the operation: retryable
)

func (st status) String() string {
	switch st {
	case statusOK:
		return "ok"
	case statusBadRequest:
		return "bad request"
	case statusNotFound:
		return "not found"
	case statusBusy:
		return "busy"
	}
	return "status " + strconv.Itoa(int(st))
}

func (st status) httpStatus() int {
	switch st {
	case statusOK:
		return http.StatusOK
	case statusNotFound:
		return http.StatusNotFound
	case statusBusy:
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// opError is a refused operation: the verdict plus the text both
// protocols send back. Operations return it as a concrete pointer (nil =
// served), never boxed in an error interface.
type opError struct {
	st  status
	msg string
}

func refuse(st status, format string, args ...interface{}) *opError {
	return &opError{st: st, msg: fmt.Sprintf(format, args...)}
}

var errBusy = &opError{st: statusBusy, msg: "source temporarily overloaded"}

// The operations. Each is the single implementation of one access —
// validation, local/global id mapping, contract-violating chaos and score
// drift included — that the JSON handlers and the frame loop both call,
// addressed by the server's local predicate index.

// dsPred resolves a local predicate index to the dataset's.
func (s *Server) dsPred(local int) (int, *opError) {
	if local < 0 || local >= len(s.preds) {
		return 0, refuse(statusBadRequest, "predicate %d out of range [0,%d)", local, len(s.preds))
	}
	return s.preds[local], nil
}

// entryAt serves one rank of a validated predicate's sorted list.
func (s *Server) entryAt(dsPred, rank int) access.Entry {
	obj, sc := s.ds.SortedAt(dsPred, rank)
	obj, sc = s.lieSorted(dsPred, rank, obj, sc)
	return access.Entry{Obj: s.globalID(obj), Score: s.warp(sc)}
}

// page validates one prefetch window — count consecutive ranks from rank
// — and returns the dataset predicate to read it from with entryAt.
func (s *Server) page(pred, rank, count int) (int, *opError) {
	dsPred, oe := s.dsPred(pred)
	if oe != nil {
		return 0, oe
	}
	if count <= 0 || count > maxBatchProbes {
		return 0, refuse(statusBadRequest, "page of %d entries outside limit [1,%d]", count, maxBatchProbes)
	}
	if rank < 0 || rank > s.ds.N()-count {
		return 0, refuse(statusNotFound, "page [%d,%d) beyond list end", rank, rank+count)
	}
	return dsPred, nil
}

// random is one random access, and one probe of a batch.
func (s *Server) random(pred, obj int) (float64, *opError) {
	dsPred, oe := s.dsPred(pred)
	if oe != nil {
		return 0, oe
	}
	local := s.localID(obj)
	if local < 0 {
		return 0, refuse(statusNotFound, "object %d unknown", obj)
	}
	return s.warp(s.ds.Score(local, dsPred)), nil
}

// batchSize validates a batch's probe count; its probes are random
// accesses, and the batch fails as a unit on the first one refused.
func batchSize(n int) *opError {
	if n == 0 {
		return refuse(statusBadRequest, "batch requires at least one probe")
	}
	if n > maxBatchProbes {
		return refuse(statusBadRequest, "batch of %d probes exceeds limit %d", n, maxBatchProbes)
	}
	return nil
}

// inBatch names the probe a batch was refused at.
func (e *opError) inBatch(i int) *opError {
	return &opError{st: e.st, msg: fmt.Sprintf("probe %d: %s", i, e.msg)}
}

// warp applies the configured score drift (identity when unset).
func (s *Server) warp(sc float64) float64 {
	if s.drift <= 0 || s.drift == 1 {
		return sc
	}
	return math.Pow(sc, s.drift)
}

// lieSorted applies the configured contract-violating chaos modes to one
// sorted response: an inflated out-of-order score (WithUnsortedRate) or a
// replay of the previous rank's entry (WithDupRate). Rank 0 has no
// previous entry and is always served honestly.
func (s *Server) lieSorted(pred, rank, obj int, sc float64) (int, float64) {
	if (s.unsorted <= 0 && s.dupRate <= 0) || rank == 0 {
		return obj, sc
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.unsorted > 0 && s.lieRng.Float64() < s.unsorted {
		_, prev := s.ds.SortedAt(pred, rank-1)
		return obj, math.Min(1, prev*1.05+0.01) // jumps above the previous rank
	}
	if s.dupRate > 0 && s.lieRng.Float64() < s.dupRate {
		prevObj, prevSc := s.ds.SortedAt(pred, rank-1)
		return prevObj, prevSc // the previous entry again: duplicate id
	}
	return obj, sc
}

// The JSON protocol: parameter parsing and payload shapes around the
// operations above.

type metaPayload struct {
	N int `json:"n"`
	M int `json:"m"`
	// LocalN is the shard's slice size, present only when the server is a
	// shard of a larger universe (n then reports the universe size).
	LocalN int `json:"local_n,omitempty"`
}

type randomPayload struct {
	Score float64 `json:"score"`
}

type errorPayload struct {
	Error string `json:"error"`
}

type batchProbe struct {
	Pred int `json:"pred"`
	Obj  int `json:"obj"`
}

type batchRequest struct {
	Probes []batchProbe `json:"probes"`
}

type batchPayload struct {
	Scores []float64 `json:"scores"`
}

type sortedPagePayload struct {
	Entries []access.Entry `json:"entries"`
}

// maxBatchProbes bounds one batch request or sorted page, keeping a
// single round trip from turning into an unbounded table scan.
const maxBatchProbes = 4096

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding small fixed structs cannot fail in practice; an encoder
	// error here would mean the connection died, which the client will
	// surface on its side anyway.
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, oe *opError) {
	writeJSON(w, oe.st.httpStatus(), errorPayload{Error: oe.msg})
}

// intParams reads the named integer query parameters, in order.
func intParams(r *http.Request, names ...string) ([]int, *opError) {
	q := r.URL.Query()
	out := make([]int, len(names))
	for i, name := range names {
		raw := q.Get(name)
		if raw == "" {
			return nil, refuse(statusBadRequest, "missing parameter %q", name)
		}
		v, err := strconv.Atoi(raw)
		if err != nil {
			return nil, refuse(statusBadRequest, "parameter %q: %v", name, err)
		}
		out[i] = v
	}
	return out, nil
}

func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request) {
	p := metaPayload{N: s.universeN(), M: len(s.preds)}
	if s.global != nil {
		p.LocalN = s.ds.N()
	}
	writeJSON(w, http.StatusOK, p)
}

// handleSortedPage serves count consecutive entries of the sorted list in
// one round trip: the whole page passes the fault-injection gate (and
// pays the simulated latency) once, like a batched probe.
func (s *Server) handleSortedPage(w http.ResponseWriter, r *http.Request) {
	v, oe := intParams(r, "pred", "rank", "count")
	if oe != nil {
		writeError(w, oe)
		return
	}
	rank, count := v[1], v[2]
	dsPred, oe := s.page(v[0], rank, count)
	if oe != nil {
		writeError(w, oe)
		return
	}
	entries := make([]access.Entry, count)
	for i := range entries {
		entries[i] = s.entryAt(dsPred, rank+i)
	}
	writeJSON(w, http.StatusOK, sortedPagePayload{Entries: entries})
}

func (s *Server) handleRandom(w http.ResponseWriter, r *http.Request) {
	v, oe := intParams(r, "pred", "obj")
	if oe != nil {
		writeError(w, oe)
		return
	}
	score, oe := s.random(v[0], v[1])
	if oe != nil {
		writeError(w, oe)
		return
	}
	writeJSON(w, http.StatusOK, randomPayload{Score: score})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorPayload{Error: "batch requires POST"})
		return
	}
	var req batchRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, refuse(statusBadRequest, "batch body: %v", err))
		return
	}
	if oe := batchSize(len(req.Probes)); oe != nil {
		writeError(w, oe)
		return
	}
	scores := make([]float64, len(req.Probes))
	for i, p := range req.Probes {
		var oe *opError
		if scores[i], oe = s.random(p.Pred, p.Obj); oe != nil {
			writeError(w, oe.inBatch(i))
			return
		}
	}
	writeJSON(w, http.StatusOK, batchPayload{Scores: scores})
}
