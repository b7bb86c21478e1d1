// Server-side resumable cursors: POST /query with "cursor":true suspends
// the query after its first page instead of discarding the per-query state,
// and POST /query/next deepens it (ordinal k, or score-range tau) at only
// the marginal access cost. The engine-level Cursor keeps the score table,
// candidate queue, and access ledger alive between requests; this file adds
// the service concerns — an id registry, per-page deadlines, a TTL reaper
// that returns idle cursors' pooled state, and topk_cursor_* metrics.
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
	"repro/internal/obs"
)

// liveCursor is one registered server-side cursor: the engine cursor plus
// the request-independent context a page response needs (trace,
// pagination counters).
type liveCursor struct {
	id    string
	query string
	tr    *obs.QueryTrace

	// mu serializes pages — concurrent /query/next calls on the same id
	// queue up rather than interleave accesses — and guards page/cur
	// teardown ordering with the reaper.
	mu   sync.Mutex
	cur  *topk.Cursor
	page int

	// lastUsed (unix nanos) is touched at every page boundary; the reaper
	// compares it against the TTL cutoff.
	lastUsed atomic.Int64
}

func (lc *liveCursor) touch() { lc.lastUsed.Store(time.Now().UnixNano()) }

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
	var scratch [maxRunOptions]topk.RunOption
	opts, tr, err := h.prepare(scratch[:0], st, true)
	if err != nil {
		return http.StatusBadRequest, err
	}
	cur, err := h.eng.Open(st.q, opts...)
	if err != nil {
		return http.StatusBadRequest, err
	}
	lc := &liveCursor{id: h.nextCursorID(), query: st.query, tr: tr, cur: cur}
	lc.touch()
	if err := h.register(lc); err != nil {
		_ = cur.Close()
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
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer putBuf(buf)
	if !h.readPost(w, r, buf) {
		return
	}
	var req NextRequest
	if err := decodeStrict(buf.Bytes(), &req); err != nil {
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
		writeBody(w, http.StatusOK, buf.Bytes())
		return
	}
	h.serve(w, r, buf, "cursor page", lc.query, func(traced bool) (int, error) {
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
	lc.touch()
	if t := h.cfg.QueryTimeout; t > 0 {
		b := startBound(context.Background(), t)
		defer b.stop()
		lc.cur.Bind(b.dl)
	}
	var page *topk.Page
	var err error
	if tau != nil {
		page, err = lc.cur.NextUntil(*tau)
	} else {
		page, err = lc.cur.Next(k)
	}
	lc.cur.Bind(nil)
	if err != nil {
		return err
	}
	lc.page++
	h.cursorPages.Inc()
	lc.touch()
	pg := pagination{cursor: lc.id, page: lc.page}
	if traced {
		h.answer(buf, lc.query, page, pg, lc.tr, &obs.CursorTrace{ID: lc.id, Page: lc.page, Emitted: lc.cur.Emitted(), Exhausted: page.Exhausted})
	} else {
		h.answer(buf, lc.query, page, pg, nil, nil)
	}
	return nil
}

// register adds a cursor to the registry, enforcing the open-cursor cap,
// and lazily starts the TTL reaper.
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
	h.ensureReaperLocked()
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
func (h *Handler) unregister(lc *liveCursor, counter *obs.Counter) bool {
	h.curMu.Lock()
	_, present := h.cursors[lc.id]
	if present {
		delete(h.cursors, lc.id)
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
	counter.Inc()
	h.cursorOpenG.Add(-1)
	return true
}

// ensureReaperLocked starts the TTL reaper the first time a cursor is
// registered (curMu held). Handlers that never open cursors never run it.
func (h *Handler) ensureReaperLocked() {
	if h.cfg.CursorTTL <= 0 || h.reaperOn {
		return
	}
	h.reaperOn = true
	h.reaperStop = make(chan struct{})
	interval := h.cfg.CursorTTL / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	go h.reap(interval)
}

func (h *Handler) reap(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-h.reaperStop:
			return
		case <-t.C:
			h.expireIdle(time.Now())
		}
	}
}

// expireIdle closes every cursor idle for at least CursorTTL, returning
// its pooled state, and reports how many it expired. The reaper calls it
// on a timer; tests call it directly with a synthetic clock.
func (h *Handler) expireIdle(now time.Time) int {
	ttl := h.cfg.CursorTTL
	if ttl <= 0 {
		return 0
	}
	cutoff := now.Add(-ttl).UnixNano()
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
		if h.reaperOn {
			close(h.reaperStop)
			h.reaperOn = false
		}
		open := make([]*liveCursor, 0, len(h.cursors))
		for _, lc := range h.cursors {
			open = append(open, lc)
		}
		h.cursors = nil
		h.curMu.Unlock()
		for _, lc := range open {
			lc.mu.Lock()
			_ = lc.cur.Close()
			lc.mu.Unlock()
			h.cursorClosed.Inc()
			h.cursorOpenG.Add(-1)
		}
	})
}
