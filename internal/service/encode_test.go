package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"

	topk "repro"
	"repro/internal/access"
	"repro/internal/data"
)

// floatEdges are the values encoding/json's float rule turns on: both
// zeros, either side of the 1e-6 and 1e21 format switches, exponents with
// and without a leading zero to trim, the smallest subnormal.
var floatEdges = [...]float64{
	0, math.Copysign(0, -1), 1e-7, 1e-6, 9.999999e-7, 1.5e-10, 1e21, 9.99999e20, -1e21, 5e-324,
	0.1, 1, 100, 1.5e300, 123456789.125, math.MaxFloat64,
}

// stringEdges are the strings its escaper turns on: quote and backslash,
// the HTML set, control bytes with and without a short form, DEL (not
// escaped), invalid and truncated UTF-8, the two JSONP separators.
var stringEdges = [...]string{
	"", `say "hi"`, `back\slash`, "<script>&amp;</script>", "bad\xffutf8\xc3", "line\u2028sep", "par\u2029sep",
	"tab\tnl\ncr\r\b\f\x00\x1f\x7f", "héllo wörld ☃", "\xe2\x80", "restaurant-003",
}

// byteFeed deals a fuzz input out as scalars; an exhausted feed deals
// zeros, so every input — the empty one included — is a whole page.
type byteFeed struct{ b []byte }

func (f *byteFeed) byte() byte {
	if len(f.b) == 0 {
		return 0
	}
	c := f.b[0]
	f.b = f.b[1:]
	return c
}

func (f *byteFeed) int() int { return int(int16(uint16(f.byte())<<8 | uint16(f.byte()))) }

// float deals a float64 from eight raw bytes — so subnormals, -0 and both
// ends of the exponent range all occur — or, half the time, one of the
// values the encoder's format rule turns on. NaN and the infinities, which
// no score or cost can be, fold to finite neighbours.
func (f *byteFeed) float() float64 {
	if c := f.byte(); c&1 == 1 {
		return floatEdges[int(c>>1)%len(floatEdges)]
	}
	var raw [8]byte
	for i := range raw {
		raw[i] = f.byte()
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
	if math.IsNaN(v) {
		return 0.25
	}
	if math.IsInf(v, 0) {
		return math.Copysign(math.MaxFloat64, v)
	}
	return v
}

// string deals a short string of raw bytes or, half the time, one of the
// strings the escaper's rules turn on.
func (f *byteFeed) string() string {
	c := f.byte()
	if c&1 == 1 {
		return stringEdges[int(c>>1)%len(stringEdges)]
	}
	n := int(c>>1) % 12
	s := make([]byte, n)
	for i := range s {
		s[i] = f.byte()
	}
	return string(s)
}

// slice deals how long a slice is: nil, empty or up to three elements.
func (f *byteFeed) slice() (n int, isNil bool) {
	c := f.byte() % 5
	return max(int(c)-1, 0), c == 0
}

func (f *byteFeed) ints() []int {
	n, isNil := f.slice()
	if isNil {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = f.int()
	}
	return out
}

func (f *byteFeed) floats() []float64 {
	n, isNil := f.slice()
	if isNil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = f.float()
	}
	return out
}

// FuzzQueryResponseEncoding holds the direct encoder to its contract: for
// any page — every float the format rule distinguishes, labels needing
// every escape, nil and empty slices, every flag — appendQueryResponse
// writes exactly the bytes encoding/json writes for the QueryResponse
// newQueryResponse builds from the same page.
func FuzzQueryResponseEncoding(f *testing.F) {
	f.Add([]byte{})
	// An odd byte picks an edge wherever a float or a string is dealt, so a
	// run of one odd value is a page built from one edge of each table —
	// with the flags, slice lengths and label mode that value also spells.
	// All 128 of them walk both tables several times over, negative ints included.
	for c := 1; c < 256; c += 2 {
		f.Add(bytes.Repeat([]byte{byte(c)}, 128))
	}
	f.Add(bytes.Repeat([]byte{0xfe, 0x7f, 0x03}, 40)) // raw floats and raw strings
	f.Fuzz(func(t *testing.T, in []byte) {
		feed := &byteFeed{b: in}
		const n = 8
		ds, err := data.Generate(data.Uniform, n, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		var labels *data.Dataset // nil on a third of inputs: the cluster/store form
		if mode := feed.byte() % 3; mode > 0 {
			labels = ds
			if mode == 2 {
				names := make([]string, n)
				for i := range names {
					names[i] = feed.string()
				}
				ds.SetLabels(names)
			}
		}
		flags := feed.byte()
		page := &topk.Page{Truncated: flags&1 != 0, Exhausted: flags&2 != 0}
		pg := pagination{closed: flags&4 != 0}
		if flags&8 != 0 {
			page.Plan = &topk.Plan{H: feed.floats(), Omega: feed.ints()}
		}
		if flags&16 != 0 {
			pg.cursor, pg.page = feed.string(), feed.int()
		}
		if items, isNil := feed.slice(); !isNil {
			page.Items = make([]topk.Item, items)
			for i := range page.Items {
				page.Items[i] = topk.Item{Obj: int(feed.byte()) % n, Score: feed.float(), Exact: feed.byte()&1 != 0}
			}
		}
		page.Ledger.TotalCost = access.Cost(int64(feed.int())<<24 | int64(uint16(feed.int())))
		page.Ledger.SortedCounts, page.Ledger.RandomCounts = feed.ints(), feed.ints()
		if reasons, isNil := feed.slice(); !isNil {
			page.Degraded = make([]string, reasons)
			for i := range page.Degraded {
				page.Degraded[i] = feed.string()
			}
		}
		query := feed.string()

		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(newQueryResponse(labels, query, page, pg)); err != nil {
			t.Fatal(err)
		}
		// Appended after what dst already holds, and nothing before it moved.
		got := appendQueryResponse([]byte("prefix"), labels, query, page, pg)
		if !bytes.Equal(got[len("prefix"):], want.Bytes()) || string(got[:len("prefix")]) != "prefix" {
			t.Fatalf("direct encoding differs from encoding/json\n got: %s\nwant: %s", got, want.Bytes())
		}
	})
}
