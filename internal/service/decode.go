// The direct request decoder: a POST /query body that names only sql and
// cursor, or a POST /query/next body that names only cursor, k and close —
// each once, spelled plainly: strings without escapes, integers, booleans —
// is read straight into the request value without reflection. Every other
// body (another field, an escape, a repeated field, a null, anything
// malformed or trailing) is declined and goes to decodeStrict, so the values
// accepted and the error texts stay encoding/json's (FuzzRequestDecoding
// holds the two together). A json.Decoder allocated nine times to read
// {"cursor":…,"k":10}: most of what a cursor page's request cost besides
// net/http's own. The fields read are the ones a statement's first body and
// a cursor's pages send; add one when traffic that sends it shows the gain.
package service

import (
	"bytes"
	"strconv"
	"unicode/utf8"
)

// decodeQuery reads a POST /query body into req, which must be zero.
func decodeQuery(body []byte, req *QueryRequest) error {
	if decodeQueryDirect(body, req) {
		return nil
	}
	return decodeFresh(body, req)
}

// decodeNext reads a POST /query/next body into req, which must be zero.
func decodeNext(body []byte, req *NextRequest) error {
	if decodeNextDirect(body, req) {
		return nil
	}
	return decodeFresh(body, req)
}

// decodeFresh runs decodeStrict on a value of its own and copies it to req:
// a declined body may have set some of req's fields, and req does not
// escape through decodeStrict's interface on the direct path. (One generic
// decode taking the direct decoder as a func value would not be inlined, so
// req would escape through the indirect call on every request.)
func decodeFresh[T any](body []byte, req *T) error {
	var slow T
	err := decodeStrict(body, &slow)
	*req = slow
	return err
}

// decodeQueryDirect reads a plain QueryRequest body into req, reporting
// false — req then partly written — when it declines.
func decodeQueryDirect(body []byte, req *QueryRequest) bool {
	r := reqReader{b: body}
	for {
		key, ok := r.member()
		if !ok {
			return r.end()
		}
		switch string(key) {
		case "sql":
			ok = r.once(0) && r.str(&req.SQL)
		case "cursor":
			ok = r.once(1) && r.boolean(&req.Cursor)
		default:
			ok = false
		}
		if !ok {
			return false
		}
	}
}

// decodeNextDirect reads a plain NextRequest body into req, reporting false
// — req then partly written — when it declines.
func decodeNextDirect(body []byte, req *NextRequest) bool {
	r := reqReader{b: body}
	for {
		key, ok := r.member()
		if !ok {
			return r.end()
		}
		switch string(key) {
		case "cursor":
			ok = r.once(0) && r.str(&req.Cursor)
		case "k":
			ok = r.once(1) && r.integer(&req.K)
		case "close":
			ok = r.once(2) && r.boolean(&req.Close)
		default:
			ok = false
		}
		if !ok {
			return false
		}
	}
}

// reqReader walks one body: a JSON object whose member values it reads by
// the type the caller expects. Each method reports false where it declines.
type reqReader struct {
	b      []byte
	i      int
	opened bool  // the opening brace is read
	closed bool  // the closing brace is read
	seen   uint8 // fields already read, one bit each
}

// space skips JSON whitespace.
func (r *reqReader) space() {
	for r.i < len(r.b) {
		switch r.b[r.i] {
		case ' ', '\t', '\n', '\r':
			r.i++
		default:
			return
		}
	}
}

// take skips whitespace and then consumes c if it comes next.
func (r *reqReader) take(c byte) bool {
	r.space()
	if r.i < len(r.b) && r.b[r.i] == c {
		r.i++
		return true
	}
	return false
}

// member reads up to the next member's value: the opening brace or the
// comma before it, its key and the colon after. It returns the key, or
// false at the closing brace and wherever it declines.
func (r *reqReader) member() ([]byte, bool) {
	if !r.opened {
		if r.opened = r.take('{'); !r.opened {
			return nil, false
		}
		if r.closed = r.take('}'); r.closed {
			return nil, false
		}
	} else if !r.take(',') {
		r.closed = r.take('}')
		return nil, false
	}
	r.space()
	key, ok := r.plain()
	if !ok || !r.take(':') {
		return nil, false
	}
	r.space()
	return key, true
}

// end reports whether the object was read to its closing brace with
// nothing but whitespace after it.
func (r *reqReader) end() bool {
	r.space()
	return r.closed && r.i == len(r.b)
}

// once marks field f read, reporting false if it already was.
func (r *reqReader) once(f uint) bool {
	if r.seen&(1<<f) != 0 {
		return false
	}
	r.seen |= 1 << f
	return true
}

// plain reads a string literal without escapes or control bytes, in valid
// UTF-8 — the form encoding/json copies through unchanged — and returns
// its contents.
func (r *reqReader) plain() ([]byte, bool) {
	if r.i >= len(r.b) || r.b[r.i] != '"' {
		return nil, false
	}
	start := r.i + 1
	for j := start; j < len(r.b); {
		switch c := r.b[j]; {
		case c == '"':
			r.i = j + 1
			return r.b[start:j], true
		case c == '\\' || c < ' ':
			return nil, false
		case c < utf8.RuneSelf:
			j++
		default:
			rn, size := utf8.DecodeRune(r.b[j:])
			if rn == utf8.RuneError && size == 1 {
				return nil, false
			}
			j += size
		}
	}
	return nil, false
}

func (r *reqReader) str(dst *string) bool {
	s, ok := r.plain()
	if ok {
		*dst = string(s)
	}
	return ok
}

func (r *reqReader) boolean(dst *bool) bool {
	switch rest := r.b[r.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		*dst = true
		r.i += len("true")
	case bytes.HasPrefix(rest, []byte("false")):
		*dst = false
		r.i += len("false")
	default:
		return false
	}
	return true
}

// integer reads an integer literal by JSON's grammar — an optional minus,
// then 0 or digits without a leading zero — as encoding/json does into an
// int. A fraction or exponent is left unread, so the comma or brace the
// object expects next is missing and the body is declined; so is a literal
// out of range, which is encoding/json's error.
func (r *reqReader) integer(dst *int) bool {
	b, i := r.b, r.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
	default:
		return false
	}
	n, err := strconv.ParseInt(string(b[r.i:i]), 10, strconv.IntSize)
	if err != nil {
		return false
	}
	*dst, r.i = int(n), i
	return true
}
