// Server-side resumable cursors: POST /query with "cursor":true suspends
// the query after its first page instead of discarding the per-query state,
// and POST /query/next deepens it (ordinal k, or score-range tau) at only
// the marginal access cost. The engine-level Cursor keeps the score table,
// candidate queue, and access ledger alive between requests; this file adds
// the service concerns — an id registry, per-page deadlines, a TTL reaper
// that returns idle cursors' pooled state, and topk_cursor_* metrics. Page
// deadlines, last use and expiry all read the handler's clock.
package service

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	topk "repro"
	"repro/internal/kit"
	"repro/internal/obs"
)

// liveCursor is one registered server-side cursor: the engine cursor plus
// the request-independent context a page response needs (trace,
// pagination counters).
type liveCursor struct {
	id     string
	query  string
	sample string // the estimator sample of its plan, "" without one
	// run is the cursor's always-on trace and the observer that feeds it,
	// allocated with the cursor.
	run tracedRun

	// mu serializes pages — concurrent /query/next calls on the same id
	// queue up rather than interleave accesses — and guards page/cur
	// teardown ordering with the reaper.
	mu   sync.Mutex
	cur  *topk.Cursor
	page int
	// out is the page every request fills (NextInto) and encodes before
	// the lock is released.
	out topk.Page

	// lastUsed (unix nanos on the handler's clock) is touched at every page
	// boundary; the reaper compares it against the TTL cutoff.
	lastUsed atomic.Int64
}

func (lc *liveCursor) touch(c kit.Clock) { lc.lastUsed.Store(c.Now().UnixNano()) }

// cursorPrefix mints a per-handler random id prefix, so cursor ids are not
// guessable across restarts. crypto/rand, not math/rand: the repo's detrand
// lint keeps pseudo-randomness out of the serving path.
func cursorPrefix() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "cur"
	}
	return hex.EncodeToString(b[:])
}

func (h *Handler) nextCursorID() string {
	return h.curPrefix + "-" + strconv.FormatUint(h.curSeq.Add(1), 10)
}

// openCursor handles POST /query with "cursor":true: it prepares the
// statement exactly like a one-shot run, suspends it as an engine cursor,
// registers it, and serves the first page (the query's "stop after k"
// answers) into buf. Cursors always carry a trace so any later page may ask
// for ?trace=1.
func (h *Handler) openCursor(buf *bytes.Buffer, st *statement, traced bool) (int, error) {
	lc := new(liveCursor)
	var scratch [maxRunOptions]topk.RunOption
	opts, err := h.prepare(scratch[:0], st, &lc.run)
	if err != nil {
		return http.StatusBadRequest, err
	}
	if lc.cur, err = h.eng.Open(st.q, opts...); err != nil {
		return http.StatusBadRequest, err
	}
	lc.id, lc.query, lc.sample = h.nextCursorID(), st.query, h.planSample(&st.req)
	lc.touch(h.breakers.Clock())
	if err := h.register(lc); err != nil {
		_ = lc.cur.Close()
		return http.StatusServiceUnavailable, err
	}
	if err := lc.produce(h, buf, st.q.K, nil, traced); err != nil {
		h.unregister(lc, h.cursorClosed)
		return http.StatusInternalServerError, err
	}
	return http.StatusOK, nil
}

// handleNext serves POST /query/next: deepen an open cursor by k answers,
// page it by score threshold, or close it. Pages run under the same
// shedding, latency, and slow-query accounting as one-shot queries.
func (h *Handler) handleNext(w http.ResponseWriter, r *http.Request) {
	resp := getResponse()
	defer putResponse(resp)
	buf := &resp.buf
	if !h.readPost(w, r, buf) {
		return
	}
	var req NextRequest
	if err := decodeNext(buf.Bytes(), &req); err != nil {
		h.reject(w, http.StatusBadRequest, "bad request: "+err.Error())
		return
	}
	if req.Cursor == "" {
		h.reject(w, http.StatusBadRequest, "cursor id required")
		return
	}
	if req.K < 0 {
		h.reject(w, http.StatusBadRequest, "k must be >= 0")
		return
	}
	lc := h.lookup(req.Cursor)
	if lc == nil {
		h.reject(w, http.StatusNotFound, "unknown cursor (closed, expired, or never opened): "+req.Cursor)
		return
	}
	if req.Close {
		h.unregister(lc, h.cursorClosed)
		h.queryOK.Inc()
		// The acknowledgement is an empty page that says so.
		buf.Reset()
		h.answer(buf, lc.query, &topk.Page{}, pagination{cursor: lc.id, closed: true}, nil, nil)
		writeBody(w, http.StatusOK, resp)
		return
	}
	h.serve(w, r, resp, "cursor page", lc.query, lc.sample, func(traced bool) (int, error) {
		err := lc.produce(h, buf, req.K, req.Tau, traced)
		if errors.Is(err, topk.ErrCursorClosed) {
			// The reaper or a concurrent close won the race after lookup.
			return http.StatusNotFound, err
		}
		return http.StatusBadRequest, err
	})
}

// produce runs one page under its own deadline and encodes its response
// into buf: the page's new answers, the cursor's cumulative bill, and —
// when asked — the cumulative trace tagged with the cursor's identity. The
// session — and the paid-for state behind it — survives between requests,
// so each page binds a pooled QueryTimeout deadline for just the duration
// of the call, and unbinds it before the deadline goes back. The page is
// encoded before the lock is released: nothing the next page may reuse is
// read after it.
func (lc *liveCursor) produce(h *Handler, buf *bytes.Buffer, k int, tau *float64, traced bool) error {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.touch(h.breakers.Clock())
	if t := h.cfg.QueryTimeout; t > 0 {
		b := h.startBound(context.Background(), t)
		defer h.stopBound(b)
		lc.cur.Bind(b.dl)
	}
	page := &lc.out
	var err error
	if tau != nil {
		err = lc.cur.NextUntilInto(page, *tau)
	} else {
		err = lc.cur.NextInto(page, k)
	}
	lc.cur.Bind(nil)
	if err != nil {
		return err
	}
	lc.page++
	h.cursorPages.Inc()
	lc.touch(h.breakers.Clock())
	pg := pagination{cursor: lc.id, page: lc.page}
	if traced {
		h.answer(buf, lc.query, page, pg, &lc.run, &obs.CursorTrace{ID: lc.id, Page: lc.page, Emitted: lc.cur.Emitted(), Exhausted: page.Exhausted})
	} else {
		h.answer(buf, lc.query, page, pg, nil, nil)
	}
	return nil
}

// register adds a cursor to the registry, enforcing the open-cursor cap,
// and arms the TTL reaper with the first one.
func (h *Handler) register(lc *liveCursor) error {
	h.curMu.Lock()
	defer h.curMu.Unlock()
	if h.cursors == nil {
		return fmt.Errorf("service: handler closed")
	}
	if max := h.cfg.MaxCursors; max > 0 && len(h.cursors) >= max {
		return fmt.Errorf("service: cursor limit reached (%d open); close cursors or let idle ones expire", max)
	}
	h.cursors[lc.id] = lc
	h.cursorOpened.Inc()
	h.cursorOpenG.Add(1)
	if h.reaper == nil && h.cfg.CursorTTL > 0 {
		h.reaper = h.breakers.Clock().AfterFunc(h.cfg.CursorTTL, h.reap)
	}
	return nil
}

func (h *Handler) lookup(id string) *liveCursor {
	h.curMu.Lock()
	defer h.curMu.Unlock()
	return h.cursors[id]
}

// unregister removes a cursor from the registry and returns its pooled
// engine state; counter attributes the close (client request vs expiry).
// Reports whether this call was the one that removed it — losers of a
// close/expire race are no-ops, so each cursor is counted exactly once.
// The close is counted and the open gauge dropped with the delete, under
// curMu, so no reader sees a cursor gone from the registry but still open
// in the metrics.
func (h *Handler) unregister(lc *liveCursor, counter *obs.Counter) bool {
	h.curMu.Lock()
	_, present := h.cursors[lc.id]
	if present {
		delete(h.cursors, lc.id)
		counter.Inc()
		h.cursorOpenG.Add(-1)
	}
	h.curMu.Unlock()
	if !present {
		return false
	}
	// Taking the page lock orders teardown after any in-flight page: the
	// page completes normally, then the state goes back to the pool.
	lc.mu.Lock()
	_ = lc.cur.Close()
	lc.mu.Unlock()
	return true
}

// reap is the reaper, one timer on the handler's clock: it expires idle
// cursors and re-arms for the next instant one can expire — the least
// recently used cursor's last use plus the TTL, or a TTL from now when none
// is open — until Close stops it.
func (h *Handler) reap() {
	h.expireIdle()
	ttl := int64(h.cfg.CursorTTL)
	h.curMu.Lock()
	defer h.curMu.Unlock()
	now := h.breakers.Clock().Now().UnixNano()
	next := now + ttl
	for _, lc := range h.cursors {
		next = min(next, lc.lastUsed.Load()+ttl)
	}
	if h.cursors != nil { // else Close ran meanwhile
		h.reaper.Reset(time.Duration(next - now))
	}
}

// expireIdle closes every cursor idle for at least CursorTTL on the
// handler's clock, returning its pooled state, and reports how many it
// expired. Only a positive TTL arms the reaper that calls it.
func (h *Handler) expireIdle() int {
	cutoff := h.breakers.Clock().Now().Add(-h.cfg.CursorTTL).UnixNano()
	h.curMu.Lock()
	var idle []*liveCursor
	for _, lc := range h.cursors {
		if lc.lastUsed.Load() <= cutoff {
			idle = append(idle, lc)
		}
	}
	h.curMu.Unlock()
	n := 0
	for _, lc := range idle {
		// Re-check under the page lock: a page may have started since the
		// sweep, and a page boundary refreshes lastUsed.
		lc.mu.Lock()
		fresh := lc.lastUsed.Load() > cutoff
		lc.mu.Unlock()
		if fresh {
			continue
		}
		if h.unregister(lc, h.cursorExpired) {
			n++
		}
	}
	return n
}

// OpenCursors reports how many server-side cursors are currently open.
func (h *Handler) OpenCursors() int {
	h.curMu.Lock()
	defer h.curMu.Unlock()
	return len(h.cursors)
}

// Close shuts the cursor subsystem down: it stops the reaper, closes every
// open cursor (returning their pooled state), and refuses new ones with
// 503. One-shot queries keep serving. Idempotent.
func (h *Handler) Close() {
	h.closeOnce.Do(func() {
		h.curMu.Lock()
		if h.reaper != nil {
			h.reaper.Stop()
		}
		// Detached, the registry is this call's alone: register and
		// unregister find no map to write.
		open := h.cursors
		h.cursors = nil
		h.cursorClosed.Add(int64(len(open)))
		h.cursorOpenG.Add(-int64(len(open)))
		h.curMu.Unlock()
		for _, lc := range open {
			lc.mu.Lock()
			_ = lc.cur.Close()
			lc.mu.Unlock()
		}
	})
}
