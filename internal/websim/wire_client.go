package websim

import (
	"bufio"
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/access"
)

// wirePoolSize bounds the connections a Wire holds to its shard, and so
// the frames it has in flight there: one per connection.
const wirePoolSize = 4

// errWireClosed refuses an access through a closed Wire.
var errWireClosed = errors.New("websim: wire closed")

// Wire is the frame-protocol client of one shard node: an access.Backend
// in the shard contract's terms (global object ids, local ranks) over a
// small pool of persistent upgraded connections. It shares the JSON
// client's retry policy — a transport error, an attempt timeout or a busy
// reply is retried, on another connection — and has no other protocol to
// fall back to. All methods are safe for concurrent use.
type Wire struct {
	retrier
	url          string
	httpc        *http.Client
	n, m, localN int

	ids   atomic.Uint64 // the last frame id minted
	slots chan struct{} // counting semaphore over the pool: one token per frame in flight
	calls sync.Pool     // of *wireCall

	mu     sync.Mutex
	conns  []*wireConn // every live connection, at most wirePoolSize
	closed bool
}

// DialWire upgrades a first connection to the shard node at baseURL and
// takes the universe it serves from the handshake. The node must serve at
// least m predicates; the Wire addresses the first m. ctx bounds the dial
// only. Upgrades go through httpc (nil = http.DefaultClient), whose
// Timeout must be zero: a client-wide timeout cannot hand a connection
// over.
func DialWire(ctx context.Context, httpc *http.Client, baseURL string, m int, opts ...ClientOption) (*Wire, error) {
	if httpc == nil {
		httpc = http.DefaultClient
	}
	w := &Wire{url: strings.TrimSuffix(baseURL, "/") + WirePath, httpc: httpc, slots: make(chan struct{}, wirePoolSize)}
	w.configure(opts)
	w.calls.New = func() interface{} { return new(wireCall) }
	// Frame ids count up from a random tag, so two dialers of one shard
	// do not mint the same ids.
	var tag [4]byte
	if _, err := crand.Read(tag[:]); err != nil {
		return nil, fmt.Errorf("websim: minting a frame id tag: %w", err)
	}
	w.ids.Store(uint64(binary.LittleEndian.Uint32(tag[:])) << 32)
	c, err := w.dial(ctx)
	if err != nil {
		return nil, err
	}
	if m < 1 || m > c.m {
		c.close()
		return nil, fmt.Errorf("websim: %s serves %d predicates, %d wanted", w.url, c.m, m)
	}
	w.n, w.m, w.localN = c.n, m, c.localN
	w.conns = append(w.conns, c)
	go c.readLoop()
	return w, nil
}

// N returns the universe size the shard reports.
func (w *Wire) N() int { return w.n }

// M returns the number of predicates addressed.
func (w *Wire) M() int { return w.m }

// LocalN returns how many objects the shard holds: the length of each of
// its sorted lists.
func (w *Wire) LocalN() int { return w.localN }

// Close closes every connection to the shard, in flight or idle; accesses
// in flight fail and later ones are refused.
func (w *Wire) Close() error {
	w.mu.Lock()
	conns := w.conns
	w.conns, w.closed = nil, true
	w.mu.Unlock()
	for _, c := range conns {
		c.close()
	}
	return nil
}

// wireConn is one upgraded connection. Its owner — whoever acquired it
// from the pool — builds a request in out, sends it and waits for the
// read loop to deliver the reply's header; the payload is then in in
// until the owner's next request.
type wireConn struct {
	rwc          io.ReadWriteCloser
	br           *bufio.Reader
	n, m, localN int // what the handshake reported
	out, in      []byte
	busy         bool // guarded by Wire.mu

	// permit is the owner's licence for the read loop to accept one frame:
	// a frame arriving without one was not asked for, and the read loop
	// must not overwrite in under the owner's decoder.
	permit  atomic.Bool
	replies chan wireReply // capacity 1: the one frame in flight
	// timer is the attempt timeout, re-armed around every round trip; it
	// closes the connection, which fails the write or the read under way.
	timer   *time.Timer
	expired atomic.Bool
	broken  atomic.Bool // closed: never to be used again
}

type wireReply struct {
	h   frameHeader
	err error
}

// close makes the connection unusable, by any goroutine at any time.
func (c *wireConn) close() {
	c.broken.Store(true)
	c.timer.Stop()
	_ = c.rwc.Close() // closing twice is harmless
}

func (c *wireConn) expire() {
	c.expired.Store(true)
	c.close()
}

// readLoop delivers each reply frame to the connection's owner and ends,
// closing the connection, at the first read error or frame nobody asked
// for — which is also how an idle connection learns its shard went away.
func (c *wireConn) readLoop() {
	var hdr [frameHeaderSize]byte
	for {
		h, err := readHeader(c.br, &hdr)
		if err == nil && !c.permit.CompareAndSwap(true, false) {
			err = fmt.Errorf("unsolicited frame %#016x", h.id)
		}
		if err == nil {
			c.in, err = readPayload(c.br, c.in, h.n)
		}
		if err != nil {
			c.close()
			select {
			case c.replies <- wireReply{err: err}:
			default: // the owner abandoned a reply: it is not listening
			}
			return
		}
		c.replies <- wireReply{h: h} // never blocks: the permit's owner consumed the previous reply
	}
}

// roundTrip sends the request frame in c.out, minted with id, and waits
// for its reply under ctx and the attempt timeout. On an error the
// connection is closed: a cancelled, timed-out or desynchronised round
// trip leaves a stream nobody can trust.
//
//topklint:hotpath
func (c *wireConn) roundTrip(ctx context.Context, timeout time.Duration, id uint64) (frameHeader, error) {
	c.permit.Store(true)
	if timeout > 0 {
		c.timer.Reset(timeout)
	}
	var r wireReply
	if _, r.err = c.rwc.Write(c.out); r.err == nil {
		select {
		case r = <-c.replies:
		case <-ctx.Done():
			r.err = ctx.Err()
		}
	}
	//topklint:allow hotpathalloc the escape is inlined Timer.Stop's panic text for a nil timer; dial always sets one
	if timeout > 0 && !c.timer.Stop() {
		c.close() // fired: the connection is gone, whatever arrived
	}
	switch {
	case r.err == nil && r.h.id != id:
		r.err = fmt.Errorf("reply echoes frame %#016x: stream out of sync", r.h.id)
	case r.err != nil && ctx.Err() != nil:
		r.err = ctx.Err()
	case r.err != nil && c.expired.Load():
		r.err = fmt.Errorf("no reply within %v", timeout)
	}
	if r.err != nil {
		c.close()
	}
	return r.h, r.err
}

// dial upgrades one new connection, bounded by the attempt timeout.
func (w *Wire) dial(ctx context.Context) (*wireConn, error) {
	if w.attemptTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, w.attemptTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url, nil)
	if err != nil {
		return nil, fmt.Errorf("websim: %w", err)
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", WireProtocol)
	resp, err := w.httpc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("websim: dialing shard: %w", err)
	}
	rwc, ok := resp.Body.(io.ReadWriteCloser)
	if resp.StatusCode != http.StatusSwitchingProtocols || !strings.EqualFold(resp.Header.Get("Upgrade"), WireProtocol) || !ok {
		resp.Body.Close()
		return nil, fmt.Errorf("websim: %s refused the %s upgrade (status %d)", w.url, WireProtocol, resp.StatusCode)
	}
	c := &wireConn{rwc: rwc, br: bufio.NewReader(rwc), replies: make(chan wireReply, 1)}
	c.timer = time.AfterFunc(time.Hour, c.expire)
	c.timer.Stop()
	for _, f := range []struct {
		name string
		into *int
	}{{wireHeaderN, &c.n}, {wireHeaderM, &c.m}, {wireHeaderLocalN, &c.localN}} {
		if *f.into, err = strconv.Atoi(resp.Header.Get(f.name)); err != nil || *f.into < 0 {
			c.close()
			return nil, fmt.Errorf("websim: %s handshake header %s = %q", w.url, f.name, resp.Header.Get(f.name))
		}
	}
	return c, nil
}

// acquire takes a connection out of the pool for one round trip, waiting
// under ctx for a free slot and dialing when every live connection is
// taken.
//
//topklint:hotpath
func (w *Wire) acquire(ctx context.Context) (*wireConn, error) {
	select {
	case w.slots <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		<-w.slots
		return nil, errWireClosed
	}
	for _, c := range w.conns {
		if !c.busy && !c.broken.Load() {
			c.busy = true
			w.mu.Unlock()
			return c, nil
		}
	}
	w.dropBrokenLocked(false) // whatever the read loops found dead while idle
	w.mu.Unlock()
	c, err := w.dial(ctx)
	if err == nil && (c.n != w.n || c.m < w.m || c.localN != w.localN) {
		c.close()
		err = fmt.Errorf("websim: %s now serves %d of %d objects on %d predicates, was %d of %d on at least %d",
			w.url, c.localN, c.n, c.m, w.localN, w.n, w.m)
	}
	if err != nil {
		<-w.slots
		return nil, err
	}
	c.busy = true
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		c.close()
		<-w.slots
		return nil, errWireClosed
	}
	w.conns = append(w.conns, c)
	w.mu.Unlock()
	go c.readLoop()
	return c, nil
}

// release returns a connection after its round trip: to the pool, or,
// when the round trip broke it, to nowhere. A connection the shard itself
// failed (not one its caller abandoned) takes the idle ones with it: they
// are as old as it was, and the retry must not draw the next casualty of
// the same shard restart.
//
//topklint:hotpath
func (w *Wire) release(ctx context.Context, c *wireConn) {
	w.mu.Lock()
	c.busy = false
	if c.broken.Load() {
		w.dropBrokenLocked(ctx.Err() == nil)
	}
	w.mu.Unlock()
	<-w.slots
}

// dropBrokenLocked forgets the closed connections and, with idleToo,
// closes and forgets the idle ones.
func (w *Wire) dropBrokenLocked(idleToo bool) {
	live := w.conns[:0]
	for _, c := range w.conns {
		switch {
		case c.broken.Load():
		case idleToo && !c.busy:
			c.close()
		default:
			live = append(live, c)
		}
	}
	clear(w.conns[len(live):])
	w.conns = live
}

// wireCall is one access on its way through the retry loop: the request's
// arguments in, the decoded reply out. Calls are pooled; a Wire method
// takes one, runs it and reads its result off before putting it back.
type wireCall struct {
	w           *Wire
	op          byte
	pred, a     int            // page: rank; random: obj
	page        []access.Entry // page: the caller's buffer, len(page) entries asked for
	preds, objs []int          // batch
	score       float64
	scores      []float64
}

// Reset drops the call's arguments, the caller's buffer and the results
// before it is pooled again.
func (q *wireCall) Reset() {
	q.w, q.op, q.pred, q.a, q.page = nil, 0, 0, 0, nil
	q.preds, q.objs, q.score, q.scores = nil, nil, 0, nil
}

// attempt is one round trip on one pooled connection.
//
//topklint:hotpath
func (q *wireCall) attempt(ctx context.Context) (err error, retryable bool, retryAfter time.Duration) {
	w := q.w
	if err := ctx.Err(); err != nil {
		return err, false, 0
	}
	c, err := w.acquire(ctx)
	if err != nil {
		// A failed dial is as transient as a failed request; a closed Wire
		// or a caller who gave up is not.
		return err, ctx.Err() == nil && !errors.Is(err, errWireClosed), 0
	}
	id := w.ids.Add(1)
	c.out = q.appendRequest(c.out[:0], id)
	h, err := c.roundTrip(ctx, w.attemptTimeout, id)
	switch st := status(h.code); {
	case err != nil:
		retryable = ctx.Err() == nil
	case st == statusOK:
		err = q.decode(c.in)
	default:
		var msg string
		if retryAfter, msg, err = decodeRefusal(c.in); err == nil {
			retryable = st == statusBusy
			err = fmt.Errorf("shard said %s: %s", st, msg)
		}
	}
	if err != nil {
		err = fmt.Errorf("websim: frame %#016x %s: %w", id, describeRequest(q.op, c.out[frameHeaderSize:]), err)
	}
	w.release(ctx, c)
	return err, retryable, retryAfter
}

//topklint:hotpath
func (q *wireCall) appendRequest(b []byte, id uint64) []byte {
	switch q.op {
	case opPage:
		return appendU32s(appendHeader(b, q.op, id, 3*4), q.pred, q.a, len(q.page))
	case opBatch:
		b = appendHeader(b, q.op, id, len(q.preds)*probeSize)
		for i, pred := range q.preds {
			b = appendU32s(b, pred, q.objs[i])
		}
		return b
	}
	return appendU32s(appendHeader(b, q.op, id, 2*4), q.pred, q.a)
}

func (q *wireCall) decode(payload []byte) (err error) {
	switch q.op {
	case opPage:
		err = decodePageReply(payload, q.page, q.w.n)
	case opRandom:
		q.score, err = decodeScoreReply(payload)
	case opBatch:
		q.scores, err = decodeScoresReply(payload, len(q.preds))
	}
	return err
}

// run sends one access through the retry loop and hands the call back
// to the pool; the caller reads its result out of the returned copy.
//
//topklint:hotpath
func (w *Wire) run(ctx context.Context, call wireCall) (wireCall, error) {
	if call.pred < 0 || call.pred >= w.m {
		return call, fmt.Errorf("websim: predicate %d out of range [0,%d)", call.pred, w.m)
	}
	if !fitsU32(call.a) {
		return call, fmt.Errorf("websim: %s p%d: argument %d cannot ride the wire", opName(call.op), call.pred, call.a)
	}
	q := w.calls.Get().(*wireCall)
	*q = call
	q.w = w
	err := w.do(ctx, q)
	call = *q
	q.Reset()
	w.calls.Put(q)
	return call, err
}

// Page fetches entries of pred's local list from rank from, as global
// object ids, in one round trip: as many as buf holds, up to a frame's
// limit and the end of the list. Replies are decoded into buf on the
// caller's goroutine, so nothing writes to buf once Page has returned.
func (w *Wire) Page(ctx context.Context, pred, from int, buf []access.Entry) (int, error) {
	if from < 0 || from >= w.localN || len(buf) == 0 {
		return 0, fmt.Errorf("websim: page of %d at rank %d beyond list end (%d entries)", len(buf), from, w.localN)
	}
	n := min(len(buf), maxBatchProbes, w.localN-from)
	if _, err := w.run(ctx, wireCall{op: opPage, pred: pred, a: from, page: buf[:n]}); err != nil {
		return 0, err
	}
	return n, nil
}

// Sorted implements access.Backend as a page of one.
func (w *Wire) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	return access.Fields(access.SortedAt(ctx, w, pred, rank))
}

// Random fetches the exact score of one object the shard holds, addressed
// by its global id.
//
//topklint:hotpath
func (w *Wire) Random(ctx context.Context, pred, obj int) (float64, error) {
	r, err := w.run(ctx, wireCall{op: opRandom, pred: pred, a: obj})
	return r.score, err
}

// BatchRandom implements access.BatchBackend: every (preds[i], objs[i])
// probe is resolved, in order, in one round trip that succeeds or fails
// as a unit.
func (w *Wire) BatchRandom(ctx context.Context, preds, objs []int) ([]float64, error) {
	if len(preds) != len(objs) {
		return nil, fmt.Errorf("websim: batch has %d predicates but %d objects", len(preds), len(objs))
	}
	if len(preds) == 0 {
		return nil, nil
	}
	if len(preds) > maxBatchProbes {
		return nil, fmt.Errorf("websim: batch of %d probes exceeds limit %d", len(preds), maxBatchProbes)
	}
	for i, pred := range preds {
		if pred < 0 || pred >= w.m || !fitsU32(objs[i]) {
			return nil, fmt.Errorf("websim: probe %d (p%d obj %d) cannot be addressed", i, pred, objs[i])
		}
	}
	r, err := w.run(ctx, wireCall{op: opBatch, preds: preds, objs: objs})
	return r.scores, err
}
