package websim

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/data"
	"repro/internal/data/datatest"
	"repro/internal/fault"
	"repro/internal/obs"
)

// shardOf serves the even objects of ds as one shard of its universe.
func shardOf(t testing.TB, ds *data.Dataset, opts ...ServerOption) (*Server, *data.Dataset, []int) {
	t.Helper()
	var global []int
	var rows [][]float64
	for u := 0; u < ds.N(); u += 2 {
		global = append(global, u)
		rows = append(rows, ds.Scores(u))
	}
	local := datatest.MustNew("evens", rows)
	srv, err := NewServer(local, append([]ServerOption{WithShardObjects(global, ds.N())}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return srv, local, global
}

// shardBackend is what both protocols' clients are to a caller.
type shardBackend interface {
	access.Pager
	access.BatchBackend
}

func dialWire(t testing.TB, ts *httptest.Server, m int, opts ...ClientOption) *Wire {
	t.Helper()
	w, err := DialWire(context.Background(), ts.Client(), ts.URL, m, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// TestWireOperations drives the three operations of the frame protocol
// against a shard server and the JSON protocol beside it: same answers,
// same refusals, from the same server functions. Sorted access is pages
// only — a page of one, of several, and of the whole list.
func TestWireOperations(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 40, 3, 3)
	srv, local, global := shardOf(t, ds)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	ctx := context.Background()
	w := dialWire(t, ts, 3)
	routes := []Route{{ts.URL, 0}, {ts.URL, 1}, {ts.URL, 2}}
	c, err := NewClient(ctx, ts.Client(), routes)
	if err != nil {
		t.Fatal(err)
	}
	if w.N() != c.N() || w.M() != c.M() || w.LocalN() != c.LocalN() || w.LocalN() != len(global) {
		t.Fatalf("handshake reports %d/%d/%d, /meta %d/%d/%d", w.N(), w.M(), w.LocalN(), c.N(), c.M(), c.LocalN())
	}

	one := make([]access.Entry, 1)
	for pred := 0; pred < 3; pred++ {
		for rank := 0; rank < local.N(); rank++ {
			n, err := w.Page(ctx, pred, rank, one)
			lo, want := local.SortedAt(pred, rank)
			if err != nil || n != 1 || one[0].Obj != global[lo] || one[0].Score != want {
				t.Fatalf("page of one p%d rank %d = (%d, %+v, %v), want (%d, %v)", pred, rank, n, one[0], err, global[lo], want)
			}
			if jn, jerr := c.Page(ctx, pred, rank, one); jerr != nil || jn != 1 || one[0].Obj != global[lo] || one[0].Score != want {
				t.Fatalf("JSON page of one p%d rank %d = (%d, %+v, %v)", pred, rank, jn, one[0], jerr)
			}
		}
		page := make([]access.Entry, 11)
		n, err := w.Page(ctx, pred, 3, page)
		jpage, jerr := c.SortedPage(ctx, pred, 3, 11)
		if err != nil || jerr != nil || n != len(page) || fmt.Sprint(page) != fmt.Sprint(jpage) {
			t.Fatalf("page p%d: frames %v (%d, %v), JSON %v (%v)", pred, page, n, err, jpage, jerr)
		}
		whole := make([]access.Entry, local.N()+5)
		if n, err := w.Page(ctx, pred, 0, whole); err != nil || n != local.N() {
			t.Fatalf("page over the list's end p%d: %d entries, %v; want %d", pred, n, err, local.N())
		}
		var objs, preds []int
		for _, u := range global {
			score, err := w.Random(ctx, pred, u)
			if err != nil || score != ds.Score(u, pred) {
				t.Fatalf("random p%d obj %d = (%v, %v), want %v", pred, u, score, err, ds.Score(u, pred))
			}
			objs, preds = append(objs, u), append(preds, (pred+u)%3)
		}
		scores, err := w.BatchRandom(ctx, preds, objs)
		if err != nil || len(scores) != len(objs) {
			t.Fatalf("batch: %d scores, %v", len(scores), err)
		}
		for i, u := range objs {
			if scores[i] != ds.Score(u, preds[i]) {
				t.Fatalf("batch slot %d = %v, want %v", i, scores[i], ds.Score(u, preds[i]))
			}
		}
	}

	// Refusals carry the JSON protocol's text and are permanent: a probe
	// for an object the shard does not hold, a rank past its list.
	refusals := []struct {
		name string
		do   func(b shardBackend) error
		text string
	}{
		{"unowned object", func(b shardBackend) error {
			_, err := b.Random(ctx, 0, 1)
			return err
		}, "object 1 unknown"},
		{"rank past the list", func(b shardBackend) error {
			_, err := b.Page(ctx, 1, local.N(), one)
			return err
		}, "beyond list end"},
		{"unowned object in a batch", func(b shardBackend) error {
			_, err := b.BatchRandom(ctx, []int{0, 0}, []int{2, 3})
			return err
		}, "probe 1: object 3 unknown"},
	}
	for _, r := range refusals {
		werr, jerr := r.do(w), r.do(c)
		if werr == nil || jerr == nil || !strings.Contains(werr.Error(), r.text) || !strings.Contains(jerr.Error(), r.text) {
			t.Errorf("%s: frames %v, JSON %v, want both to say %q", r.name, werr, jerr, r.text)
		}
	}
	// What cannot be a frame never becomes one.
	for name, err := range map[string]error{
		"predicate":      func() error { _, err := w.Random(ctx, 3, 0); return err }(),
		"page predicate": func() error { _, err := w.Page(ctx, 3, 0, one); return err }(),
		"negative rank":  func() error { _, err := w.Page(ctx, 0, -1, one); return err }(),
		"empty page":     func() error { _, err := w.Page(ctx, 0, 0, nil); return err }(),
		"ragged batch":   func() error { _, err := w.BatchRandom(ctx, []int{0}, nil); return err }(),
		"huge batch": func() error {
			_, err := w.BatchRandom(ctx, make([]int, maxBatchProbes+1), make([]int, maxBatchProbes+1))
			return err
		}(),
		"negative probe": func() error { _, err := w.BatchRandom(ctx, []int{0}, []int{-4}); return err }(),
	} {
		if err == nil {
			t.Errorf("%s out of range was sent anyway", name)
		}
	}
	if scores, err := w.BatchRandom(ctx, nil, nil); err != nil || len(scores) != 0 {
		t.Errorf("empty batch = %v, %v", scores, err)
	}
}

// TestWireDial: the handshake is the only way in. A node that does not
// speak the protocol, or serves fewer predicates than wanted, is a dial
// error; the route refuses a plain GET; and a connection survives the
// context it was dialed under.
func TestWireDial(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 10, 2, 1)
	ts := startSource(t, ds)
	if _, err := DialWire(context.Background(), ts.Client(), ts.URL, 3); err == nil || !strings.Contains(err.Error(), "serves 2 predicates") {
		t.Errorf("dialing for 3 predicates of 2: %v", err)
	}
	plain := httptest.NewServer(http.NotFoundHandler())
	defer plain.Close()
	if _, err := DialWire(context.Background(), plain.Client(), plain.URL, 1); err == nil || !strings.Contains(err.Error(), "refused the "+WireProtocol+" upgrade") {
		t.Errorf("dialing a node without the route: %v", err)
	}
	resp, err := ts.Client().Get(ts.URL + WirePath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUpgradeRequired {
		t.Errorf("plain GET %s = %d, want %d", WirePath, resp.StatusCode, http.StatusUpgradeRequired)
	}

	ctx, cancel := context.WithCancel(context.Background())
	w, err := DialWire(ctx, ts.Client(), ts.URL, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	cancel()
	if got, err := w.Random(context.Background(), 1, 4); err != nil || got != ds.Score(4, 1) {
		t.Errorf("probe after the dial context ended = %v, %v", got, err)
	}
}

// TestWireGatePerFrame: the fault gate that a JSON access passes once is
// passed once per frame, a busy reply is retried like a 503, its
// Retry-After hint floors the backoff, and a frame the shard sits on or
// hangs is cut by the attempt timeout and retried.
func TestWireGatePerFrame(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 30, 2, 9)
	ctx := context.Background()

	tr := obs.NewQueryTrace()
	w := dialWire(t, startSource(t, ds, WithFaults(fault.PredFault{FlapPeriod: 2}, 0)), 2, WithRetries(3, time.Millisecond), WithObserver(tr))
	one := make([]access.Entry, 1)
	for r := 0; r < 12; r++ {
		if _, err := w.Page(ctx, 0, r, one); err != nil {
			t.Fatal(err)
		}
	}
	// 12 accesses through a gate that flaps every two frames: frames 2–3,
	// 6–7, 10–11, 14–15 and 18–19 (0-based) are refused, so accesses 3, 5,
	// 7, 9 and 11 are retried twice each, 22 frames in all.
	if s := tr.Snapshot(); s.SourceRetries != 10 || s.SourceFailures != 0 {
		t.Errorf("flap-2 over 12 accesses: %d retries, %d failures, want 10 and 0", s.SourceRetries, s.SourceFailures)
	}

	// Retries exhausted: the refusal surfaces, named busy, with the frame.
	tr = obs.NewQueryTrace()
	w = dialWire(t, startSource(t, ds, WithFaults(fault.PredFault{OutageTo: -1}, 0)), 2, WithRetries(1, time.Millisecond), WithObserver(tr))
	_, err := w.Random(ctx, 1, 17)
	if err == nil || !strings.Contains(err.Error(), "random p1 obj 17: shard said busy") || !strings.Contains(err.Error(), "frame 0x") {
		t.Errorf("always-busy shard: %v", err)
	}
	if s := tr.Snapshot(); s.SourceRetries != 1 || s.SourceFailures != 1 {
		t.Errorf("always-busy shard: %d retries, %d failures, want 1 and 1", s.SourceRetries, s.SourceFailures)
	}

	// The hint, in milliseconds on this wire, floors the 1ms backoff.
	tr = obs.NewQueryTrace()
	w = dialWire(t, startSource(t, ds, WithFaults(fault.PredFault{OutageTo: 1}, 0), WithRetryAfter(40*time.Millisecond)), 2,
		WithRetries(2, time.Millisecond), WithObserver(tr))
	start := time.Now()
	if _, err := w.Random(ctx, 0, 2); err != nil {
		t.Fatal(err)
	}
	if took, s := time.Since(start), tr.Snapshot(); took < 40*time.Millisecond || s.BackoffSeconds < 0.04 || s.SourceRetries != 1 {
		t.Errorf("busy with a 40ms hint: back in %v after %d retries sleeping %vs", took, s.SourceRetries, s.BackoffSeconds)
	}

	// A shard that sits on a frame past the attempt timeout is a
	// retryable failure, and the connection it sat on is not used again.
	tr = obs.NewQueryTrace()
	w = dialWire(t, startSource(t, ds, WithFaults(fault.PredFault{SlowRate: 1, SlowDelay: 150 * time.Millisecond}, 0)), 2,
		WithRetries(1, time.Millisecond), WithAttemptTimeout(20*time.Millisecond), WithObserver(tr))
	_, err = w.Random(ctx, 0, 2)
	if err == nil || !strings.Contains(err.Error(), "no reply within 20ms") {
		t.Errorf("slow shard: %v", err)
	}
	if s := tr.Snapshot(); s.SourceRetries != 1 || s.SourceFailures != 1 {
		t.Errorf("slow shard: %d retries, %d failures, want 1 and 1", s.SourceRetries, s.SourceFailures)
	}

	// A hang holds its frame until the client hangs up: the attempt timeout
	// cuts it and the retry, on a new connection, draws the next verdict.
	// Seed 4 draws a hang, then a pass.
	tr = obs.NewQueryTrace()
	w = dialWire(t, startSource(t, ds, WithFaults(fault.PredFault{HangRate: 0.5}, 4)), 2,
		WithRetries(1, time.Millisecond), WithAttemptTimeout(20*time.Millisecond), WithObserver(tr))
	if got, err := w.Random(ctx, 0, 2); err != nil || got != ds.Score(2, 0) {
		t.Errorf("hang, then a pass: %v, %v", got, err)
	}
	if s := tr.Snapshot(); s.SourceRetries != 1 || s.SourceFailures != 0 {
		t.Errorf("hang, then a pass: %d retries, %d failures, want 1 and 0", s.SourceRetries, s.SourceFailures)
	}
}

// lyingShard completes the handshake for a universe of n objects and then
// answers every request frame with whatever reply returns, raw.
func lyingShard(t *testing.T, n int, reply func(h frameHeader, p []byte) []byte) *httptest.Server {
	t.Helper()
	var wg sync.WaitGroup
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, brw, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		wg.Add(1)
		defer wg.Done()
		defer conn.Close()
		fmt.Fprintf(brw, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: %s\r\n%s: %d\r\n%s: 2\r\n%s: %d\r\n\r\n",
			WireProtocol, wireHeaderN, n, wireHeaderM, wireHeaderLocalN, n)
		brw.Flush()
		var hdr [frameHeaderSize]byte
		var in []byte
		for {
			h, err := readHeader(brw, &hdr)
			if err != nil {
				return
			}
			if in, err = readPayload(brw, in, h.n); err != nil {
				return
			}
			if _, err := conn.Write(reply(h, in)); err != nil {
				return
			}
		}
	}))
	t.Cleanup(func() { ts.Close(); wg.Wait() })
	return ts
}

// TestWireTrustsNothing: every reply is checked against what was asked
// before a value reaches the caller — on every operation, not only the
// sorted ones.
func TestWireTrustsNothing(t *testing.T) {
	const n = 50
	ok := func(h frameHeader, payload []byte) []byte {
		return append(appendHeader(nil, byte(statusOK), h.id, len(payload)), payload...)
	}
	// shaped is the reply request h asks for — extra elements more or fewer
	// — with every slot filled with (obj, score).
	shaped := func(h frameHeader, p []byte, extra, obj int, score float64) []byte {
		elem, count := appendEntry(nil, access.Entry{Obj: obj, Score: score}), 1
		switch h.code {
		case opPage:
			count = u32(p[8:])
		case opRandom:
			elem = elem[4:]
		case opBatch:
			elem, count = elem[4:], len(p)/probeSize
		}
		return ok(h, bytes.Repeat(elem, count+extra))
	}
	type reply func(h frameHeader, p []byte) []byte
	badScore := func(score float64) reply {
		return func(h frameHeader, p []byte) []byte { return shaped(h, p, 0, 1, score) }
	}
	cases := []struct {
		name  string
		reply reply
		want  string
		ops   string // the operations the lie can be told to; "" = all three
	}{
		{"out-of-universe object", func(h frameHeader, p []byte) []byte { return shaped(h, p, 0, n, 0.5) }, "out-of-universe object 50", "page"},
		{"NaN score", badScore(math.NaN()), "outside [0,1]", ""},
		{"infinite score", badScore(math.Inf(1)), "outside [0,1]", ""},
		{"score above one", badScore(1.5), "outside [0,1]", ""},
		{"negative score", badScore(-0.1), "outside [0,1]", ""},
		{"short payload", func(h frameHeader, p []byte) []byte { return ok(h, []byte{1, 2, 3}) }, "bytes", ""},
		{"one element too many", func(h frameHeader, p []byte) []byte { return shaped(h, p, +1, 1, 0.5) }, "bytes", ""},
		{"one element too few", func(h frameHeader, p []byte) []byte { return shaped(h, p, -1, 1, 0.5) }, "bytes", ""},
		{"another frame's id", func(h frameHeader, p []byte) []byte {
			h.id++
			return shaped(h, p, 0, 1, 0.5)
		}, "out of sync", ""},
		{"oversized reply", func(h frameHeader, p []byte) []byte {
			return appendHeader(nil, byte(statusOK), h.id, maxFramePayload+1)
		}, "oversized payload", ""},
		{"unknown status", func(h frameHeader, p []byte) []byte {
			return appendRefusal(nil, h.id, &opError{st: 77, msg: "?"}, 0)
		}, "status 77", ""},
		{"refusal without a hint", func(h frameHeader, p []byte) []byte { return appendHeader(nil, byte(statusBusy), h.id, 0) }, "refusal payload", ""},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := dialWire(t, lyingShard(t, n, tc.reply), 2, WithRetries(0, 0))
			calls := map[string]func() error{
				"page":   func() error { _, err := w.Page(ctx, 0, 1, make([]access.Entry, 3)); return err },
				"random": func() error { _, err := w.Random(ctx, 1, 2); return err },
				"batch":  func() error { _, err := w.BatchRandom(ctx, []int{0, 1}, []int{3, 4}); return err },
			}
			for op, call := range calls {
				if tc.ops != "" && !strings.Contains(tc.ops, op) {
					continue
				}
				if err := call(); err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "frame 0x") {
					t.Errorf("%s: %v, want an error naming the frame and saying %q", op, err, tc.want)
				}
			}
		})
	}
}

// TestServerLogsRefusedFrames: a shard's log line for a refused frame and
// the dialer's error for it name the same frame id.
func TestServerLogsRefusedFrames(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 10, 2, 1)
	var mu sync.Mutex
	var lines []string
	ts := startSource(t, ds, WithLogf(func(format string, args ...interface{}) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}))
	w := dialWire(t, ts, 2)
	if _, err := w.Random(context.Background(), 0, 3); err != nil {
		t.Fatal(err)
	}
	_, err := w.Random(context.Background(), 1, 10)
	if err == nil {
		t.Fatal("probe for an object outside the universe was answered")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 1 || !strings.Contains(lines[0], "random p1 obj 10: not found: object 10 unknown") {
		t.Fatalf("shard log = %q, want the one refusal", lines)
	}
	id := lines[0][strings.Index(lines[0], "frame 0x"):][:len("frame 0x")+16]
	if !strings.Contains(err.Error(), id) {
		t.Errorf("shard logged %q, dialer reported %q: no frame id in common", lines[0], err)
	}
}

// FuzzWireFrame feeds arbitrary bytes to both ends of the shard wire. As a
// request stream into a shard's frame loop: it must not panic, must not
// size a buffer from an unchecked length, must echo each frame's id, and
// must answer ok only to a frame that is well-formed by the protocol's
// own definition. As a reply stream into the dialer's decoders: whatever
// decodes without an error is in the universe and in [0,1].
func FuzzWireFrame(f *testing.F) {
	frame := func(code byte, id uint64, vs ...int) []byte {
		return appendU32s(appendHeader(nil, code, id, 4*len(vs)), vs...)
	}
	f.Add(frame(opPage, 1, 0, 3, 1)) // a page of one
	f.Add(frame(opPage, 2, 1, 0, 5))
	f.Add(frame(opRandom, 3, 1, 4))
	f.Add(frame(opBatch, 4, 0, 2, 1, 4, 0, 6))
	f.Add(append(frame(opRandom, 5, 0, 2), frame(opPage, 6, 1, 19, 1)...)) // two frames, the second past the list
	f.Add(frame(opRandom, 7, 0, 3))                                        // an object the shard does not hold
	f.Add(frame(opRandom, 8, 9, 2))                                        // no such predicate
	f.Add(frame(opPage, 9, 0, 0, maxBatchProbes+1))
	f.Add(frame(opBatch, 10))
	f.Add(frame(opBatch, 11, 0, 2, 1))
	f.Add(frame(9, 12, 0, 0))
	f.Add(frame(opPage, 13, 0, 3, 1)[:frameHeaderSize+3]) // payload cut short
	f.Add(appendHeader(nil, opBatch, 14, math.MaxUint32))
	f.Add(appendHeader(nil, opBatch, 15, maxFramePayload+1))
	f.Add(appendEntry(appendHeader(nil, byte(statusOK), 16, entrySize), access.Entry{Obj: 7, Score: 0.25}))
	f.Add(appendScore(appendHeader(nil, byte(statusOK), 17, scoreSize), math.NaN()))
	f.Add(appendRefusal(nil, 18, errBusy, 1500*time.Millisecond))

	ds := datatest.MustGenerate(data.Uniform, 40, 2, 3)
	srv, local, _ := shardOf(f, ds)
	f.Fuzz(func(t *testing.T, stream []byte) {
		// The shard's side.
		var replies bytes.Buffer
		srv.serveFrames(&replies, bufio.NewReader(bytes.NewReader(stream)))
		var hdr [frameHeaderSize]byte
		var reqBuf, repBuf []byte
		reqs, reps := bytes.NewReader(stream), bytes.NewReader(replies.Bytes())
		for {
			rep, err := readHeader(reps, &hdr)
			if err != nil {
				break
			}
			if repBuf, err = readPayload(reps, repBuf, rep.n); err != nil {
				t.Fatalf("shard wrote a reply header for %d bytes and then %v", rep.n, err)
			}
			req, err := readHeader(reqs, &hdr)
			if rep.id != req.id {
				t.Fatalf("reply echoes frame %#x, request was %#x", rep.id, req.id)
			}
			if err != nil { // oversized: refused on the header alone, and the stream ends
				if status(rep.code) != statusBadRequest || reps.Len() != 0 {
					t.Fatalf("oversized request answered %s with %d more reply bytes", status(rep.code), reps.Len())
				}
				break
			}
			if reqBuf, err = readPayload(reqs, reqBuf, req.n); err != nil {
				t.Fatalf("shard answered frame %#x, whose payload never arrived whole: %v", req.id, err)
			}
			if status(rep.code) != statusOK {
				if _, _, err := decodeRefusal(repBuf); err != nil {
					t.Fatalf("refusal of frame %#x does not decode: %v", req.id, err)
				}
				continue
			}
			u := func(i int) int { return int(binary.LittleEndian.Uint32(reqBuf[4*i:])) }
			held := func(obj int) bool { return obj < ds.N() && obj%2 == 0 }
			wellFormed, want := false, 0
			switch {
			case req.code == opPage && req.n == 12:
				wellFormed, want = u(0) < 2 && u(2) >= 1 && u(2) <= maxBatchProbes && u(1)+u(2) <= local.N(), u(2)*entrySize
			case req.code == opRandom && req.n == 8:
				wellFormed, want = u(0) < 2 && held(u(1)), scoreSize
			case req.code == opBatch && req.n >= 8 && req.n%8 == 0:
				wellFormed, want = true, req.n/8*scoreSize
				for i := 0; i < req.n/8; i++ {
					wellFormed = wellFormed && u(2*i) < 2 && held(u(2*i+1))
				}
			}
			if !wellFormed || rep.n != want {
				t.Fatalf("shard served frame %#x (%s, %d payload bytes) with %d bytes: well-formed=%v, want %d",
					req.id, opName(req.code), req.n, rep.n, wellFormed, want)
			}
		}
		if cap(reqBuf) > maxFramePayload || cap(repBuf) > maxFramePayload {
			t.Fatalf("a %d-byte stream grew a payload buffer to %d/%d bytes", len(stream), cap(reqBuf), cap(repBuf))
		}

		// The dialer's side: the stream as one reply, to each operation.
		reps = bytes.NewReader(stream)
		h, err := readHeader(reps, &hdr)
		if err != nil {
			return
		}
		if repBuf, err = readPayload(reps, repBuf, h.n); err != nil {
			return
		}
		if status(h.code) != statusOK {
			_, _, _ = decodeRefusal(repBuf)
			return
		}
		w := &Wire{n: ds.N(), m: 2}
		count := 1 + int(h.id%7)
		inRange := func(e access.Entry) bool { return e.Obj >= 0 && e.Obj < ds.N() && e.Score >= 0 && e.Score <= 1 }
		for _, q := range []*wireCall{
			{w: w, op: opPage, page: make([]access.Entry, 1)}, {w: w, op: opPage, page: make([]access.Entry, count)},
			{w: w, op: opRandom}, {w: w, op: opBatch, preds: make([]int, count)},
		} {
			if q.decode(repBuf) != nil {
				continue
			}
			switch q.op {
			case opPage:
				for _, e := range q.page {
					if !inRange(e) {
						t.Fatalf("page decoded %+v", e)
					}
				}
			case opRandom:
				if !inRange(access.Entry{Score: q.score}) {
					t.Fatalf("random decoded %v", q.score)
				}
			case opBatch:
				if len(q.scores) != count {
					t.Fatalf("batch of %d decoded %d scores", count, len(q.scores))
				}
				for _, s := range q.scores {
					if !inRange(access.Entry{Score: s}) {
						t.Fatalf("batch decoded %v", s)
					}
				}
			}
		}
	})
}
