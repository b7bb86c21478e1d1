package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant name="value" pair attached to a metric at
// registration time.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing metric. Updates are a single
// atomic add; Counters are safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are ignored (counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down. Updates are a single atomic
// operation; Gauges are safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add applies a delta (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution metric. Observations are a few
// atomic operations (bucket increment, count increment, CAS-loop sum add)
// with no locks; Histograms are safe for concurrent use.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; an implicit +Inf bucket follows
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the observation sum
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v (le semantics)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// DefBuckets is the default histogram bucket layout, spanning sub-unit
// access costs through long query latencies.
var DefBuckets = []float64{.001, .005, .01, .05, .1, .5, 1, 2.5, 5, 10, 25, 50, 100}

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// metric is one registered series: a name, a rendered label set, and
// exactly one of the value holders.
type metric struct {
	name   string
	help   string
	labels string // pre-rendered {k="v",...} or ""
	kind   metricKind

	counter   *Counter
	gauge     *Gauge
	histogram *Histogram
	// reads are the series' scrape-time sources (CounterFunc, GaugeFunc),
	// summed onto the stored value when the series is exposed.
	reads []func() int64
}

// value is a counter's or gauge's exposed value: what was stored through
// its handle plus what its scrape-time sources report now.
func (m *metric) value() int64 {
	var v int64
	if m.kind == kindCounter {
		v = m.counter.Value()
	} else {
		v = m.gauge.Value()
	}
	for _, read := range m.reads {
		v += read()
	}
	return v
}

// Registry holds named metrics and renders them in the Prometheus text
// exposition format. Metric updates through the returned handles are
// lock-free; registration and exposition synchronize on an internal
// mutex (both are off the access hot path).
type Registry struct {
	mu     sync.Mutex
	byKey  map[string]*metric
	sorted bool
	all    []*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*metric)}
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(a, b int) bool { return ls[a].Key < ls[b].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		escapeLabelValue(&b, l.Value)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(b *strings.Builder, v string) {
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
}

// lookup returns the series for (name, labels), creating it with the
// given kind (and, for histograms, bucket bounds) when absent. A name
// re-registered with a different kind yields a fresh detached series
// (updatable but never exposed) so callers stay panic-free on the serving
// path; tests catch such collisions via the golden exposition.
func (r *Registry) lookup(name, help string, labels []Label, kind metricKind, buckets []float64) *metric {
	key := name + renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.byKey[key]
	if m != nil && m.kind == kind {
		return m
	}
	fresh := newMetric(name, help, labels, kind, buckets)
	if m == nil { // a kind collision stays detached
		r.byKey[key] = fresh
		r.all = append(r.all, fresh)
		r.sorted = false
	}
	return fresh
}

func newMetric(name, help string, labels []Label, kind metricKind, buckets []float64) *metric {
	m := &metric{name: name, help: help, labels: renderLabels(labels), kind: kind}
	switch kind {
	case kindCounter:
		m.counter = &Counter{}
	case kindGauge:
		m.gauge = &Gauge{}
	case kindHistogram:
		bounds := normalizeBuckets(buckets)
		m.histogram = &Histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
	}
	return m
}

// normalizeBuckets sorts and deduplicates bounds so le labels stay unique;
// nil means DefBuckets.
func normalizeBuckets(buckets []float64) []float64 {
	if buckets == nil {
		buckets = DefBuckets
	}
	bs := append([]float64(nil), buckets...)
	sort.Float64s(bs)
	out := bs[:0]
	for _, b := range bs {
		if len(out) == 0 || b != out[len(out)-1] {
			out = append(out, b)
		}
	}
	return out
}

// Counter returns the counter registered under the name and label set,
// creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, labels, kindCounter, nil).counter
}

// Gauge returns the gauge registered under the name and label set,
// creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.lookup(name, help, labels, kindGauge, nil).gauge
}

// Histogram returns the histogram registered under the name and label
// set, creating it on first use with the given bucket upper bounds
// (DefBuckets when nil). Buckets are fixed at first registration; later
// calls with different buckets return the existing series unchanged.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	return r.lookup(name, help, labels, kindHistogram, buckets).histogram
}

// CounterFunc adds read as a scrape-time source of the counter registered
// under the name and label set (created on first use): the exposition
// reports the stored count plus what every source reads at that moment. A
// layer that already keeps its own atomic counter registers its Load here
// and so counts each fact once, not a second time into the registry on the
// hot path; several layers registering on one series are summed. read must
// be safe for concurrent use and, for a counter, never decrease.
func (r *Registry) CounterFunc(name, help string, read func() uint64, labels ...Label) {
	r.addRead(name, help, labels, kindCounter, func() int64 { return int64(read()) })
}

// GaugeFunc is CounterFunc for a gauge.
func (r *Registry) GaugeFunc(name, help string, read func() int64, labels ...Label) {
	r.addRead(name, help, labels, kindGauge, read)
}

func (r *Registry) addRead(name, help string, labels []Label, kind metricKind, read func() int64) {
	m := r.lookup(name, help, labels, kind, nil)
	r.mu.Lock()
	m.reads = append(m.reads, read)
	r.mu.Unlock()
}

// snapshot returns a copy of the registered series sorted by (name,
// labels) — copies, so a source registered mid-scrape never races the
// scrape's walk over reads. The lock is released before any value is read
// or written out, so a slow scrape never blocks registration or updates.
func (r *Registry) snapshot() []metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.sorted {
		sort.Slice(r.all, func(a, b int) bool {
			if r.all[a].name != r.all[b].name {
				return r.all[a].name < r.all[b].name
			}
			return r.all[a].labels < r.all[b].labels
		})
		r.sorted = true
	}
	out := make([]metric, len(r.all))
	for i, m := range r.all {
		out[i] = *m
	}
	return out
}

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered series in the Prometheus text
// exposition format (version 0.0.4), sorted by name then label set, with
// one HELP/TYPE header per metric name. Values are individually atomic
// snapshots; the exposition does not freeze the registry as a whole.
// Output streams directly into w (no full-exposition intermediate), so
// callers that pass a recycled buffer get a garbage-free scrape.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	lastName := ""
	for _, m := range r.snapshot() {
		if m.name != lastName {
			if m.help != "" {
				fmt.Fprintf(bw, "# HELP %s %s\n", m.name, m.help)
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", m.name, m.kind)
			lastName = m.name
		}
		if m.kind == kindHistogram {
			writeHistogram(bw, m)
		} else {
			fmt.Fprintf(bw, "%s%s %d\n", m.name, m.labels, m.value())
		}
	}
	return bw.Flush()
}

// writeHistogram renders cumulative le buckets, sum, and count. The
// per-bucket atomic loads happen once, so the cumulative counts are
// internally consistent even under concurrent observation.
func writeHistogram(b io.Writer, m metric) {
	h := m.histogram
	inner := strings.TrimSuffix(strings.TrimPrefix(m.labels, "{"), "}")
	withLe := func(le string) string {
		if inner == "" {
			return `{le="` + le + `"}`
		}
		return "{" + inner + `,le="` + le + `"}`
	}
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", m.name, withLe(formatFloat(bound)), cum)
	}
	cum += h.buckets[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", m.name, withLe("+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", m.name, m.labels, formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", m.name, m.labels, h.Count())
}

// ServeHTTP exposes the registry as a Prometheus scrape endpoint.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.WritePrometheus(w)
}
