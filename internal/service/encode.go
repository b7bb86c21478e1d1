// The direct response encoder: an untraced QueryResponse written straight
// from a topk.Page into a byte buffer, byte for byte what encoding/json
// emits for the struct (FuzzQueryResponseEncoding holds the two together).
// A served answer is a dozen scalars and a list of items; reflecting over
// it — and first boxing every item into a QueryItem with a formatted label
// — was most of what a cheap query allocated.
package service

import (
	"math"
	"strconv"
	"unicode/utf8"

	topk "repro"
	"repro/internal/data"
)

// pagination is what a cursor-backed response carries beyond its page: the
// cursor's id, the page's ordinal (0 on a close acknowledgement) and
// whether the request closed the cursor. The zero value is a one-shot
// answer.
type pagination struct {
	cursor string
	page   int
	closed bool
}

// appendQueryResponse appends the JSON encoding of the untraced
// QueryResponse for page — newline included — to dst: the fields
// QueryResponse declares, in its order, under its omitempty rules. labels
// names the answers (nil where rows live elsewhere: every object then takes
// the default form). Scores and costs are finite by the access contract;
// encoding/json would refuse a NaN, this encoder has no error to return.
func appendQueryResponse(dst []byte, labels *data.Dataset, query string, page *topk.Page, pg pagination) []byte {
	dst = append(dst, `{"query":`...)
	dst = appendJSONString(dst, query)
	dst = append(dst, `,"items":`...)
	if len(page.Items) == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, it := range page.Items {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"object":`...)
			dst = strconv.AppendInt(dst, int64(it.Obj), 10)
			dst = append(dst, `,"label":`...)
			dst = appendLabel(dst, labels, it.Obj)
			dst = append(dst, `,"score":`...)
			dst = appendJSONFloat(dst, it.Score)
			dst = append(dst, `,"exact":`...)
			dst = strconv.AppendBool(dst, it.Exact)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"cost":`...)
	dst = appendJSONFloat(dst, page.Ledger.TotalCost.Units())
	dst = append(dst, `,"truncated":`...)
	dst = strconv.AppendBool(dst, page.Truncated)
	if page.Plan != nil {
		dst = append(dst, `,"plan":{"h":`...)
		dst = appendJSONFloats(dst, page.Plan.H)
		dst = append(dst, `,"omega":`...)
		dst = appendJSONInts(dst, page.Plan.Omega)
		dst = append(dst, '}')
	}
	dst = append(dst, `,"sortedAccesses":`...)
	dst = appendJSONInts(dst, page.Ledger.SortedCounts)
	dst = append(dst, `,"randomAccesses":`...)
	dst = appendJSONInts(dst, page.Ledger.RandomCounts)
	if len(page.Degraded) > 0 {
		dst = append(dst, `,"degraded":[`...)
		for i, reason := range page.Degraded {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, reason)
		}
		dst = append(dst, ']')
	}
	if pg.cursor != "" {
		dst = append(dst, `,"cursor":`...)
		dst = appendJSONString(dst, pg.cursor)
	}
	if pg.page != 0 {
		dst = append(dst, `,"page":`...)
		dst = strconv.AppendInt(dst, int64(pg.page), 10)
	}
	if page.Exhausted {
		dst = append(dst, `,"exhausted":true`...)
	}
	if pg.closed {
		dst = append(dst, `,"closed":true`...)
	}
	return append(dst, '}', '\n')
}

// appendLabel appends object u's label as a JSON string: the dataset's own
// through the escaper, the default form — digits after a 'u', nothing to
// escape — as is.
func appendLabel(dst []byte, labels *data.Dataset, u int) []byte {
	if l := labels.AttachedLabel(u); l != "" {
		return appendJSONString(dst, l)
	}
	dst = append(dst, '"')
	dst = data.AppendDefaultLabel(dst, u)
	return append(dst, '"')
}

// appendJSONFloat appends f under encoding/json's float rule (ES6 number
// to string): plain decimal unless |f| < 1e-6 or >= 1e21, then exponent
// form with a negative exponent's leading zero trimmed (1e-07 -> 1e-7).
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// appendJSONFloats and appendJSONInts append a slice as encoding/json does:
// null for a nil slice, [] for an empty one.
func appendJSONFloats(dst []byte, v []float64) []byte {
	if v == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, f := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONFloat(dst, f)
	}
	return append(dst, ']')
}

func appendJSONInts(dst []byte, v []int) []byte {
	if v == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, n := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(n), 10)
	}
	return append(dst, ']')
}

// appendJSONString appends s quoted and escaped as encoding/json does with
// its default HTML escaping: the two-character forms for quote, backslash
// and \b \f \n \r \t, \u00XX for the other control bytes and for < > &,
// \ufffd for each byte of invalid UTF-8, and \u2028 / \u2029 spelled out.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b >= utf8.RuneSelf {
			c, size := utf8.DecodeRuneInString(s[i:])
			if c == utf8.RuneError && size == 1 {
				dst = append(append(dst, s[start:i]...), `\ufffd`...)
				start = i + size
			} else if c == '\u2028' || c == '\u2029' {
				dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[c&0xF])
				start = i + size
			}
			i += size
			continue
		}
		if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
			i++
			continue
		}
		dst = append(dst, s[start:i]...)
		switch b {
		case '\\', '"':
			dst = append(dst, '\\', b)
		case '\b':
			dst = append(dst, '\\', 'b')
		case '\f':
			dst = append(dst, '\\', 'f')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
		}
		i++
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}
