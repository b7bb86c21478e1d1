package websim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/access"
)

// The shard wire: the frame protocol a coordinator speaks to a shard node
// once GET /wire has upgraded the connection (DESIGN.md §15, "The shard
// wire"). Every frame, either direction, is a fixed little-endian header
// and a payload:
//
//	code u8 | id u64 | len u32 | payload [len]
//
// code is the operation in a request and the status in a reply; id is
// chosen by the requester and echoed by the shard, so a reply that does
// not carry the id just sent means the stream lost sync; len counts
// payload bytes and is checked against maxFramePayload before a byte of
// payload is read. One frame is in flight per connection. Integers are
// u32, scores are math.Float64bits as u64:
//
//	page    pred rank count  -> count × (obj score)
//	random  pred obj         -> score
//	batch   n × (pred obj)   -> n × score
//
// (Code 1, a single sorted entry, is retired: it is a page of one.)
// and a reply whose status is not ok carries a retry-after hint in
// milliseconds (u32, zero when none) and the refusal's text.
const (
	// WirePath is the route that upgrades a connection to the frame
	// protocol, and WireProtocol the Upgrade token naming it.
	WirePath     = "/wire"
	WireProtocol = "topk-wire/1"

	// Handshake headers of the 101 reply: what /meta reports to a JSON
	// client, so a dial costs no round trip of its own.
	wireHeaderN      = "Topk-N"
	wireHeaderM      = "Topk-M"
	wireHeaderLocalN = "Topk-Local-N"

	frameHeaderSize = 1 + 8 + 4
	entrySize       = 4 + 8 // obj, score
	probeSize       = 4 + 4 // pred, obj
	scoreSize       = 8

	// maxFramePayload is the largest payload either side accepts: a full
	// page of maxBatchProbes entries.
	maxFramePayload = maxBatchProbes * entrySize
	// maxRefusalText bounds the text of a refusal.
	maxRefusalText = 512
)

// The operations, as the request's code byte.
const (
	opPage byte = 2 + iota
	opRandom
	opBatch
)

func opName(op byte) string {
	switch op {
	case opPage:
		return "page"
	case opRandom:
		return "random"
	case opBatch:
		return "batch"
	}
	return fmt.Sprintf("op %d", op)
}

// describeRequest renders a request frame for an error line — "random p1
// obj 17" — as far as its payload can be read.
func describeRequest(op byte, p []byte) string {
	switch {
	case op == opPage && len(p) == 3*4:
		return fmt.Sprintf("page p%d ranks [%d,%d)", u32(p), u32(p[4:]), u32(p[4:])+u32(p[8:]))
	case op == opRandom && len(p) == probeSize:
		return fmt.Sprintf("random p%d obj %d", u32(p), u32(p[4:]))
	case op == opBatch && len(p)%probeSize == 0:
		return fmt.Sprintf("batch of %d probes", len(p)/probeSize)
	}
	return opName(op)
}

// errOversized marks a header whose announced payload length is over
// maxFramePayload: nothing was read past the header, and nothing can be.
var errOversized = errors.New("oversized payload")

// frameHeader is one decoded header.
type frameHeader struct {
	code byte
	id   uint64
	n    int // payload bytes
}

// appendHeader appends a header announcing n payload bytes.
func appendHeader(b []byte, code byte, id uint64, n int) []byte {
	b = append(b, code)
	b = binary.LittleEndian.AppendUint64(b, id)
	return binary.LittleEndian.AppendUint32(b, uint32(n))
}

// readHeader reads one header into hdr and checks the length it
// announces.
func readHeader(r io.Reader, hdr *[frameHeaderSize]byte) (frameHeader, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frameHeader{}, err
	}
	h := frameHeader{code: hdr[0], id: binary.LittleEndian.Uint64(hdr[1:]), n: int(binary.LittleEndian.Uint32(hdr[9:]))}
	if h.n > maxFramePayload {
		return h, fmt.Errorf("%w: frame %#016x announces %d bytes, limit is %d", errOversized, h.id, h.n, maxFramePayload)
	}
	return h, nil
}

// readPayload reads the n payload bytes a checked header announced into
// buf, grown when too small (so never past maxFramePayload) and returned
// for reuse: the payload aliases it.
func readPayload(r io.Reader, buf []byte, n int) ([]byte, error) {
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	_, err := io.ReadFull(r, buf)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return buf, err
}

func u32(b []byte) int { return int(binary.LittleEndian.Uint32(b)) }

// fitsU32 reports whether every value can ride the wire.
func fitsU32(vs ...int) bool {
	for _, v := range vs {
		if v < 0 || v > math.MaxUint32 {
			return false
		}
	}
	return true
}

func appendU32s(b []byte, vs ...int) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return b
}

func appendScore(b []byte, score float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(score))
}

func appendEntry(b []byte, e access.Entry) []byte {
	return appendScore(binary.LittleEndian.AppendUint32(b, uint32(e.Obj)), e.Score)
}

// appendRefusal appends a whole refusal frame.
func appendRefusal(b []byte, id uint64, oe *opError, retryAfter time.Duration) []byte {
	msg := oe.msg
	if len(msg) > maxRefusalText {
		msg = msg[:maxRefusalText]
	}
	ms := (retryAfter + time.Millisecond - 1) / time.Millisecond
	b = appendHeader(b, byte(oe.st), id, 4+len(msg))
	b = binary.LittleEndian.AppendUint32(b, uint32(min(ms, math.MaxUint32)))
	return append(b, msg...)
}

// decodeRefusal reads a non-ok reply's payload.
func decodeRefusal(payload []byte) (retryAfter time.Duration, msg string, err error) {
	if len(payload) < 4 || len(payload) > 4+maxRefusalText {
		return 0, "", fmt.Errorf("refusal payload of %d bytes", len(payload))
	}
	return time.Duration(u32(payload)) * time.Millisecond, string(payload[4:]), nil
}

// The reply decoders trust nothing the peer said: a payload must have
// exactly the length the request implies, every object id must lie in the
// universe [0,n) and every score must be a number in [0,1].

func decodeScore(b []byte) (float64, error) {
	score := math.Float64frombits(binary.LittleEndian.Uint64(b))
	if !(score >= 0 && score <= 1) { // also rejects NaN
		return 0, fmt.Errorf("score %v outside [0,1]", score)
	}
	return score, nil
}

func decodeEntry(b []byte, n int) (access.Entry, error) {
	obj := u32(b)
	if obj >= n {
		return access.Entry{}, fmt.Errorf("out-of-universe object %d", obj)
	}
	score, err := decodeScore(b[4:])
	return access.Entry{Obj: obj, Score: score}, err
}

// decodePageReply decodes a page of len(page) entries into page.
func decodePageReply(payload []byte, page []access.Entry, n int) error {
	if len(page) == 0 || len(page) > maxBatchProbes || len(payload) != len(page)*entrySize {
		return fmt.Errorf("page reply of %d bytes for %d entries", len(payload), len(page))
	}
	for i := range page {
		var err error
		if page[i], err = decodeEntry(payload[i*entrySize:], n); err != nil {
			return fmt.Errorf("entry %d: %w", i, err)
		}
	}
	return nil
}

func decodeScoreReply(payload []byte) (float64, error) {
	if len(payload) != scoreSize {
		return 0, fmt.Errorf("score reply of %d bytes, want %d", len(payload), scoreSize)
	}
	return decodeScore(payload)
}

func decodeScoresReply(payload []byte, count int) ([]float64, error) {
	if count <= 0 || count > maxBatchProbes || len(payload) != count*scoreSize {
		return nil, fmt.Errorf("batch reply of %d bytes for %d probes", len(payload), count)
	}
	scores := make([]float64, count)
	for i := range scores {
		var err error
		if scores[i], err = decodeScore(payload[i*scoreSize:]); err != nil {
			return nil, fmt.Errorf("probe %d: %w", i, err)
		}
	}
	return scores, nil
}
