package service

import (
	"encoding/json"
	"reflect"
	"testing"
)

// plainQueryBodies and plainNextBodies are bodies the direct decoders must
// read themselves rather than leave to encoding/json: a statement's first
// body, a cursor's pages and close, and every field type they read.
var (
	plainQueryBodies = []string{
		`{"sql":"select name from db order by min(p1, p2) stop after 5"}`,
		` { "sql" : "select name from db order by wsum(0.2*p1, 0.3*p2) stop after 10" , "cursor" : true } ` + "\n",
		`{"cursor":false,"sql":"q"}`,
		"{\"sql\":\"h\u00e9llo \u2603 \u2028\"}",
	}
	plainNextBodies = []string{
		`{"cursor":"abc-1","k":10}`,
		`{"cursor":"abc-1","close":true}`,
		`{"k":0,"cursor":"abc-1","close":false}`,
		`{"cursor":"abc-1","k":-3}`,
	}
)

// requestSeeds are bodies near the direct decoders' line: edge integers and
// objects they read, and escapes, repeats, nulls, case-folded keys, fields
// they leave to encoding/json, numbers encoding/json refuses for an int,
// malformed and trailing bytes, which they decline.
var requestSeeds = []string{
	`{"sql":"q","algorithm":"nc","h":[0.4,1],"omega":[1,0],"budget":25.5,"epsilon":0.1,"parallel":8}`,
	`{"cursor":"abc-1","tau":0.8}`,
	`{"cursor":"abc-1","k":1e2}`,
	`{"cursor":"abc-1","k":1.0}`,
	`{"cursor":"abc-1","k":-0}`,
	`{"cursor":"abc-1","k":9223372036854775807}`,
	`{"cursor":"abc-1","k":9223372036854775808}`,
	`{"cursor":"abc-1","k":01}`,
	`{"cursor":"abc-1","k":.5}`,
	`{"cursor":"abc-1","k":-}`,
	`{"cursor":"abc-1","k":"1"}`,
	`{"sql":"q","cursor":truex}`,
	`{"sql":"q","cursor":tru}`,
	`{"sql":"q","cursor":null}`,
	"{\"sql\":\"bad\xffutf8\"}",
	"{\"sql\":\"tab\there\"}",
	`{"sql":"say \"hi\""}`,
	`{"sql":"q"}`,
	`{"SQL":"q"}`,
	`{"sql":"a","sql":"b"}`,
	`{"sql":"q","limit":3}`,
	`{"sql":"q"} and then some`,
	`{"sql":"q"}{}`,
	`{"sql":"q"`,
	`{"sql":"q",}`,
	`{}`,
	`{} `,
	`null`,
	`[]`,
	`"sql"`,
	``,
	`{"cursor":"abc-1","k":10,"close":true}`,
	`{"cursor":"abc-1","k":10,"k":11}`,
	`{"cursor":"abc-1","close":false}`,
	`{"cursor":"abc-1","k":10} x`,
	`{"cursor":"abc-1","k":10}]`,
}

// valueFields are the members an input is also tried as the value of: every
// field the direct decoders read, so mutations land in the value grammar
// instead of mostly breaking the object around it.
var valueFields = []string{"sql", "cursor", "k", "close"}

// FuzzRequestDecoding holds the direct decoders to encoding/json: for any
// body, each either declines or reads exactly the value decodeStrict
// does, which then accepts the body too; and decodeQuery and decodeNext —
// direct where they can be, strict otherwise — agree with decodeStrict on
// the value and on the error text. Trailing bytes included: a body with anything but whitespace
// after its value is refused by both. Each input is tried as a body and as
// the value of every field in valueFields.
func FuzzRequestDecoding(f *testing.F) {
	for _, seeds := range [][]string{plainQueryBodies, plainNextBodies, requestSeeds} {
		for _, s := range seeds {
			f.Add([]byte(s))
		}
	}
	for _, v := range []string{`-0`, `7`, `01`, `1.`, `2E+2`, `true`, `"p"`, `null`} {
		f.Add([]byte(v))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		check := func(body []byte) {
			checkDecoding(t, body, decodeQueryDirect, decodeQuery)
			checkDecoding(t, body, decodeNextDirect, decodeNext)
		}
		check(in)
		for _, field := range valueFields {
			check(append(append([]byte(`{"`+field+`":`), in...), '}'))
		}
	})
}

func checkDecoding[T any](t *testing.T, body []byte, direct func([]byte, *T) bool, decode func([]byte, *T) error) {
	t.Helper()
	var want T
	strictErr := decodeStrict(body, &want)
	if strictErr == nil && !json.Valid(body) {
		t.Fatalf("%T %q: encoding/json accepted a body that is not one JSON value", want, body)
	}
	var got T
	if direct(body, &got) {
		if strictErr != nil {
			t.Fatalf("%T %q: the direct decoder read a body encoding/json refuses: %v", got, body, strictErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%T %q: direct %+v, encoding/json %+v", got, body, got, want)
		}
	}
	var via T
	err := decode(body, &via)
	if (err == nil) != (strictErr == nil) || err != nil && err.Error() != strictErr.Error() {
		t.Fatalf("%T %q: error %v, encoding/json's %v", got, body, err, strictErr)
	}
	if err == nil && !reflect.DeepEqual(via, want) {
		t.Fatalf("%T %q: decoded %+v, encoding/json %+v", got, body, via, want)
	}
}

// TestDirectDecoderReadsPlainBodies: the fast path cannot silently become
// the slow one.
func TestDirectDecoderReadsPlainBodies(t *testing.T) {
	for _, body := range plainQueryBodies {
		if !decodeQueryDirect([]byte(body), new(QueryRequest)) {
			t.Errorf("declined %s", body)
		}
	}
	for _, body := range plainNextBodies {
		if !decodeNextDirect([]byte(body), new(NextRequest)) {
			t.Errorf("declined %s", body)
		}
	}
}
