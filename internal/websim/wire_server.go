package websim

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// WithLogf makes the server print every frame it refuses — one line
// carrying the frame id the requester chose, so the requester's own error
// line can be matched to it. JSON requests are not logged: their client
// holds the whole HTTP exchange already.
func WithLogf(logf func(format string, args ...interface{})) ServerOption {
	return func(s *Server) { s.logf = logf }
}

// handleWire upgrades the connection to the frame protocol and serves
// frames on it until the peer hangs up. The 101 reply carries what /meta
// reports.
func (s *Server) handleWire(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet || !strings.EqualFold(r.Header.Get("Upgrade"), WireProtocol) ||
		!strings.Contains(strings.ToLower(r.Header.Get("Connection")), "upgrade") {
		w.Header().Set("Upgrade", WireProtocol)
		writeJSON(w, http.StatusUpgradeRequired, errorPayload{Error: WirePath + " speaks only " + WireProtocol})
		return
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorPayload{Error: "connection cannot be upgraded"})
		return
	}
	conn, brw, err := hj.Hijack()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorPayload{Error: "connection cannot be upgraded: " + err.Error()})
		return
	}
	defer conn.Close()
	// The frame loop outlives any per-request deadline the http.Server set.
	if err := conn.SetDeadline(time.Time{}); err != nil {
		return
	}
	fmt.Fprintf(brw, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: %s\r\n%s: %d\r\n%s: %d\r\n%s: %d\r\n\r\n",
		WireProtocol, wireHeaderN, s.universeN(), wireHeaderM, len(s.preds), wireHeaderLocalN, s.ds.N())
	if brw.Flush() != nil {
		return
	}
	s.serveFrames(conn, brw.Reader)
}

// serveFrames answers request frames from r on w, one at a time, until
// the stream ends. A frame whose announced length is over the limit ends
// it too: past that header the stream cannot be trusted to be in sync.
func (s *Server) serveFrames(w io.Writer, r *bufio.Reader) {
	var (
		hdr     [frameHeaderSize]byte
		in, out []byte
	)
	for {
		h, err := readHeader(r, &hdr)
		if errors.Is(err, errOversized) {
			_, _ = w.Write(s.refuseFrame(out[:0], h, nil, &opError{st: statusBadRequest, msg: err.Error()}))
		}
		if err != nil {
			return
		}
		if in, err = readPayload(r, in, h.n); err != nil {
			return
		}
		if s.faults != nil && s.refuseByFault(r) {
			out = s.refuseFrame(out[:0], h, in, errBusy)
		} else {
			out = s.serveFrame(out[:0], h, in)
		}
		if _, err := w.Write(out); err != nil {
			return
		}
	}
}

// refuseByFault passes one frame through the fault gate. The client sends
// nothing more on the connection until it has the reply, so a hang lasts
// until a read of r returns: the client hung up. Only that read ends it,
// so the frame loop never reads r beside it.
func (s *Server) refuseByFault(r *bufio.Reader) bool {
	v := s.faults.Decide(0)
	ctx := context.Background()
	if v.Hangs() {
		var hangUp context.CancelFunc
		ctx, hangUp = context.WithCancel(ctx)
		go func() {
			_, _ = r.Peek(1)
			hangUp()
		}()
	}
	return v.Inject(ctx) != nil
}

// serveFrame appends the reply to one request frame that passed the gate:
// the shape of the payload, then the operation itself. Whatever is wrong
// with a frame, the answer is a refusal.
func (s *Server) serveFrame(out []byte, h frameHeader, p []byte) []byte {
	switch {
	case h.code == opPage && len(p) == 3*4:
		rank, count := u32(p[4:]), u32(p[8:])
		dsPred, oe := s.page(u32(p), rank, count)
		if oe != nil {
			return s.refuseFrame(out, h, p, oe)
		}
		out = appendHeader(out, byte(statusOK), h.id, count*entrySize)
		for i := 0; i < count; i++ {
			out = appendEntry(out, s.entryAt(dsPred, rank+i))
		}
		return out
	case h.code == opRandom && len(p) == probeSize:
		score, oe := s.random(u32(p), u32(p[4:]))
		if oe != nil {
			return s.refuseFrame(out, h, p, oe)
		}
		return appendScore(appendHeader(out, byte(statusOK), h.id, scoreSize), score)
	case h.code == opBatch && len(p)%probeSize == 0:
		n := len(p) / probeSize
		if oe := batchSize(n); oe != nil {
			return s.refuseFrame(out, h, p, oe)
		}
		out = appendHeader(out, byte(statusOK), h.id, n*scoreSize)
		for i := 0; i < n; i++ {
			score, oe := s.random(u32(p[i*probeSize:]), u32(p[i*probeSize+4:]))
			if oe != nil {
				return s.refuseFrame(out[:0], h, p, oe.inBatch(i))
			}
			out = appendScore(out, score)
		}
		return out
	}
	return s.refuseFrame(out, h, p, refuse(statusBadRequest, "malformed %s frame of %d payload bytes", opName(h.code), len(p)))
}

// refuseFrame appends (and logs) the refusal of request h.
func (s *Server) refuseFrame(out []byte, h frameHeader, p []byte, oe *opError) []byte {
	if s.logf != nil {
		s.logf("websim: frame %#016x %s: %s: %s", h.id, describeRequest(h.code, p), oe.st, oe.msg)
	}
	var retryAfter time.Duration
	if oe.st == statusBusy {
		retryAfter = s.retryAfter
	}
	return appendRefusal(out, h.id, oe, retryAfter)
}
