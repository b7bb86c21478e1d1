package main

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"
)

// setupReps is how many times the e2e pass brings its deployment up; the
// median is reported as setup_s and the last one serves the timed phase.
const setupReps = 3

// tracedOps is the least number of operations in the ?trace=1 pass.
const tracedOps = 200

type config struct {
	bin     string // built topkd
	seed    int64
	seconds float64
}

// metricDef declares one reported metric. bound is the share of the parent
// commit's median by which an end-to-end metric may worsen; per-layer
// metrics have none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd is what a user of topkd pays, measured with ?trace off, and
// every metric here carries a bound. No clock but setup_s is among them: the
// build host's other tenants slow this VM by a quarter to a half for minutes
// at a time, so ten runs of identical code spread a latency further than the
// largest bound the contract allows, and a bound that identical code cannot
// hold rejects changes at random. Latency, throughput and CPU time are
// per-layer metrics (service.*), reported unbounded; the counts below repeat
// to four digits and are what a later change is held to.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"server_allocs_per_query", "count", "lower", 0.03},
	{"server_alloc_kb_per_query", "KiB", "lower", 0.05},
	{"server_peak_rss_mb", "MiB", "lower", 0.25},
	{"billed_cost_per_query", "count", "lower", 0.03},
}

// result is one run in the schema the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult(defs []metricDef, values map[string]float64) (result, error) {
	r := result{Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return r, fmt.Errorf("metric %s was not measured", d.name)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return r, nil
}

// bringUp deploys the workload and runs its warm-up; the returned duration
// is one setup_s sample. The stream continues into the timed phase.
func bringUp(ctx context.Context, cfg config, w workload) (*deployment, *opStream, time.Duration, error) {
	start := time.Now()
	d, err := deploy(ctx, cfg.bin, w)
	if err != nil {
		return nil, nil, 0, err
	}
	stream := newOpStream(w, cfg.seed)
	warmPasses := (w.warmup + w.passLen() - 1) / w.passLen()
	samples, _ := closedLoop(ctx, d.front.url, false, stream, warmPasses, 0)
	took := time.Since(start)
	for _, s := range samples {
		if s.fail != "" {
			d.stop()
			return nil, nil, 0, fmt.Errorf("%s warm-up: %q: %s", w.name, s.op.sql, s.fail)
		}
	}
	return d, stream, took, ctx.Err()
}

// timedPhase is one measured closed-loop phase with the outside-in
// counters read on either side of it.
type timedPhase struct {
	samples       []sample
	elapsed       time.Duration
	before, after snapshot
}

func runPhase(ctx context.Context, d *deployment, traced bool, stream *opStream, minPasses int, minTime time.Duration) (timedPhase, error) {
	var p timedPhase
	var err error
	if p.before, err = scrape(ctx, d); err != nil {
		return p, err
	}
	p.samples, p.elapsed = closedLoop(ctx, d.front.url, traced, stream, minPasses, minTime)
	if p.after, err = scrape(ctx, d); err != nil {
		return p, err
	}
	return p, ctx.Err()
}

// count tallies a verified phase.
func (p timedPhase) count() (attempted, failed int, firstFailure string) {
	for _, s := range p.samples {
		attempted++
		if s.fail != "" {
			if failed == 0 {
				firstFailure = fmt.Sprintf("%q: %s", s.op.sql, s.fail)
			}
			failed++
		}
	}
	return attempted, failed, firstFailure
}

// runE2E is the --trace 0 pass: setupReps bring-ups, one timed phase,
// every answer checked, the end-to-end metrics.
func runE2E(ctx context.Context, cfg config, w workload) (result, error) {
	o, err := buildOracles(w)
	if err != nil {
		return result{}, err
	}
	var (
		d      *deployment
		stream *opStream
		setups []float64
	)
	for rep := 0; rep < setupReps; rep++ {
		if d != nil {
			d.stop()
		}
		var took time.Duration
		if d, stream, took, err = bringUp(ctx, cfg, w); err != nil {
			return result{}, err
		}
		setups = append(setups, took.Seconds())
	}
	defer d.stop()
	phase, err := runPhase(ctx, d, false, stream, 1, seconds(cfg.seconds))
	if err != nil {
		return result{}, err
	}
	if err := verify(o, phase.samples); err != nil {
		return result{}, err
	}
	values := e2eValues(phase)
	values["setup_s"] = median(setups)
	res, err := newResult(endToEnd, values)
	if err != nil {
		return res, err
	}
	var why string
	res.Attempted, res.Failed, why = phase.count()
	res.Correct = res.Failed == 0
	if !res.Correct {
		fmt.Printf("%s: %d of %d operations failed, first: %s\n", w.name, res.Failed, res.Attempted, why)
	}
	return res, nil
}

// e2eValues derives the end-to-end metrics (all but setup_s) of a phase.
func e2eValues(p timedPhase) map[string]float64 {
	var costs []float64
	for _, s := range p.samples {
		if s.fail == "" {
			costs = append(costs, s.cost)
		}
	}
	ops := float64(len(p.samples))
	return map[string]float64{
		"server_allocs_per_query":   float64(p.after.mem.mallocs-p.before.mem.mallocs) / ops,
		"server_alloc_kb_per_query": float64(p.after.mem.totalAlloc-p.before.mem.totalAlloc) / 1024 / ops,
		"server_peak_rss_mb":        float64(p.after.peakRSSKiB) / 1024,
		"billed_cost_per_query":     mean(costs),
	}
}

// floorQuantile is the share of a class's repeats that counts as its
// fastest: the class's latency is the nearest-rank floorQuantile-quantile of
// its repeats in the phase.
const floorQuantile = 0.10

// classFloors returns, sorted, one latency in milliseconds per operation
// class: that of its fastest tenth of repeats. The host's other tenants slow
// a repeat down and never speed it up, so the fast end of a class's repeats
// is the nearest a run gets to what the code under test costs; a percentile
// over all operations reads the neighbours too. What the floor leaves out is
// work that lands on a minority of repeats, a garbage collection every tenth
// query for one: allocations have their own metrics.
func classFloors(samples []sample) []float64 {
	byClass := map[int][]time.Duration{}
	for _, s := range samples {
		if s.fail == "" {
			byClass[s.op.class] = append(byClass[s.op.class], s.dur)
		}
	}
	floors := make([]float64, 0, len(byClass))
	for _, durs := range byClass {
		floors = append(floors, percentile(sortedMS(durs), floorQuantile))
	}
	slices.Sort(floors)
	return floors
}

// perLayer is what single layers do, reported by the --trace 1 pass: first
// the counters scraped from outside around an untraced timed phase and the
// ?trace=1 pass, then the in-process ladder. TestManifestMatchesCode pins
// BENCHMARK.json to this table.
var perLayer = []metricDef{
	{name: "service.query_p50_ms", unit: "ms", better: "lower"},
	{name: "service.query_p95_ms", unit: "ms", better: "lower"},
	{name: "service.op_p50_ms", unit: "ms", better: "lower"},
	{name: "service.op_p95_ms", unit: "ms", better: "lower"},
	{name: "service.throughput_qps", unit: "1/s", better: "higher"},
	{name: "service.cpu_ms_per_query", unit: "ms", better: "lower"},
	{name: "service.http_overhead_ms", unit: "ms", better: "lower"},
	{name: "service.client_self_ms", unit: "ms", better: "lower"},
	{name: "service.trace_overhead_ratio", unit: "ratio", better: "lower"},
	{name: "sqlq.parse_ms", unit: "ms", better: "lower"},
	{name: "service.prepare_ms", unit: "ms", better: "lower"},
	{name: "opt.optimize_ms", unit: "ms", better: "lower"},
	{name: "algo.execute_ms", unit: "ms", better: "lower"},
	{name: "opt.plan_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "opt.estimator_evals_per_query", unit: "count", better: "lower"},
	{name: "algo.nc_iterations_per_query", unit: "count", better: "lower"},
	{name: "access.sorted_per_query", unit: "count", better: "lower"},
	{name: "access.random_per_query", unit: "count", better: "lower"},
	{name: "access.denied_per_query", unit: "count", better: "lower"},
	{name: "access.ns_per_access", unit: "ns", better: "lower"},
	{name: "service.open_p50_ms", unit: "ms", better: "lower"},
	{name: "service.next_p50_ms", unit: "ms", better: "lower"},
	{name: "service.cursor_pages_per_session", unit: "count", better: "lower"},
	{name: "cluster.fetched_entries_per_query", unit: "count", better: "lower"},
	{name: "cluster.shard_fetches_per_query", unit: "count", better: "lower"},
	{name: "cluster.merge_hit_ratio", unit: "ratio", better: "higher"},
	{name: "cluster.random_routed_per_query", unit: "count", better: "lower"},
	{name: "cluster.batch_groups_per_query", unit: "count", better: "lower"},
	{name: "cluster.shard_cpu_ms_per_query", unit: "ms", better: "lower"},
	{name: "cluster.coordinator_cpu_ms_per_query", unit: "ms", better: "lower"},
	{name: "store.read_bytes_per_query", unit: "B", better: "lower"},
	{name: "store.read_syscalls_per_query", unit: "count", better: "lower"},

	{name: "data.sorted_ns", unit: "ns", better: "lower"},
	{name: "data.random_ns", unit: "ns", better: "lower"},
	{name: "data.project_ms", unit: "ms", better: "lower"},
	{name: "access.session_sorted_ns", unit: "ns", better: "lower"},
	{name: "access.session_random_ns", unit: "ns", better: "lower"},
	{name: "access.session_allocs_per_access", unit: "count", better: "lower"},
	{name: "access.resilient_sorted_ns", unit: "ns", better: "lower"},
	{name: "access.resilient_random_ns", unit: "ns", better: "lower"},
	{name: "access.resilient_allocs_per_access", unit: "count", better: "lower"},
	{name: "adapt.guard_sorted_ns", unit: "ns", better: "lower"},
	{name: "adapt.guard_random_ns", unit: "ns", better: "lower"},
	{name: "share.miss_sorted_ns", unit: "ns", better: "lower"},
	{name: "share.miss_random_ns", unit: "ns", better: "lower"},
	{name: "share.hit_sorted_ns", unit: "ns", better: "lower"},
	{name: "share.hit_random_ns", unit: "ns", better: "lower"},
	{name: "cluster.local_sorted_ns", unit: "ns", better: "lower"},
	{name: "cluster.local_random_ns", unit: "ns", better: "lower"},
	{name: "cluster.remote_sorted_cold_ns", unit: "ns", better: "lower"},
	{name: "cluster.remote_sorted_warm_ns", unit: "ns", better: "lower"},
	{name: "cluster.remote_random_ns", unit: "ns", better: "lower"},
	{name: "cluster.remote_batch_random_ns", unit: "ns", better: "lower"},
	{name: "websim.sorted_page_ns_per_entry", unit: "ns", better: "lower"},
	{name: "websim.random_ns", unit: "ns", better: "lower"},
	{name: "websim.batch_random_ns", unit: "ns", better: "lower"},
	{name: "store.sorted_cold_ns", unit: "ns", better: "lower"},
	{name: "store.sorted_cached_ns", unit: "ns", better: "lower"},
	{name: "store.sorted_thrash_ns", unit: "ns", better: "lower"},
	{name: "store.random_ns", unit: "ns", better: "lower"},
	{name: "store.batch_random_ns", unit: "ns", better: "lower"},
	{name: "store.block_hit_ratio", unit: "ratio", better: "higher"},
	{name: "store.calibrated_cs_ns", unit: "ns", better: "lower"},
	{name: "store.calibrated_cr_ns", unit: "ns", better: "lower"},
	{name: "store.open_ms", unit: "ms", better: "lower"},
	{name: "store.build_s", unit: "s", better: "lower"},
	{name: "store.bytes_per_score", unit: "B", better: "lower"},
	{name: "algo.nc_ns_per_access", unit: "ns", better: "lower"},
	{name: "algo.nc_allocs_per_query", unit: "count", better: "lower"},
	{name: "opt.optimize_cold_ms", unit: "ms", better: "lower"},
	{name: "opt.optimize_allocs", unit: "count", better: "lower"},
	{name: "opt.plan_cache_hit_ns", unit: "ns", better: "lower"},
	{name: "sqlq.parse_bind_ns", unit: "ns", better: "lower"},
	{name: "sqlq.parse_bind_allocs", unit: "count", better: "lower"},
	{name: "topk.run_warm_us", unit: "us", better: "lower"},
	{name: "topk.run_warm_allocs", unit: "count", better: "lower"},
	{name: "topk.run_cold_us", unit: "us", better: "lower"},
	{name: "topk.run_cold_allocs", unit: "count", better: "lower"},
	{name: "topk.open_next_close_us", unit: "us", better: "lower"},
	{name: "service.handler_us", unit: "us", better: "lower"},
	{name: "service.handler_allocs", unit: "count", better: "lower"},
	{name: "service.handler_projected_us", unit: "us", better: "lower"},
	{name: "obs.metrics_overhead_ratio", unit: "ratio", better: "lower"},
}

// ratio is a/b, or 0 when the layer did nothing (b == 0): a workload that
// never reaches a layer reports 0 for it, not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerValues derives the scraped per-layer metrics of an untraced phase:
// deltas of /metrics, /proc/<pid>/io and /proc/<pid>/stat per operation,
// and client timers. Nodes are in deployment order, the front node last.
func layerValues(p timedPhase) map[string]float64 {
	ops := float64(len(p.samples))
	delta := func(series string) float64 { return p.after.prom[series] - p.before.prom[series] }
	deltaAll := func(prefix string) float64 {
		sum := 0.0
		for series := range p.after.prom {
			if strings.HasPrefix(series, prefix) {
				sum += delta(series)
			}
		}
		return sum
	}
	phaseMS := func(name string) float64 {
		return 1000 * delta(`topk_phase_seconds_sum{phase="`+name+`"}`) / ops
	}
	// The server times every call but a cursor's close.
	var durs, timedCalls, opens, nexts []time.Duration
	for _, s := range p.samples {
		if s.fail == "" {
			durs = append(durs, s.dur)
		}
		calls := s.calls
		if s.op.weights != nil && len(calls) > sessionPages {
			opens = append(opens, calls[0])
			nexts = append(nexts, calls[1:sessionPages]...)
			calls = calls[:sessionPages]
		}
		timedCalls = append(timedCalls, calls...)
	}
	serverMeanMS := 1000 * ratio(delta("topk_query_seconds_sum"), delta("topk_query_seconds_count"))
	accesses := deltaAll("topk_accesses_total{")
	shardCPU := 0.0
	front := len(p.after.cpuMS) - 1
	for i := 0; i < front; i++ {
		shardCPU += p.after.cpuMS[i] - p.before.cpuMS[i]
	}
	frontCPU := p.after.cpuMS[front] - p.before.cpuMS[front]
	coordCPU := 0.0
	if front > 0 {
		coordCPU = frontCPU
	}
	lat := sortedMS(durs)
	floors := classFloors(p.samples)
	planLookups := deltaAll("topk_plan_cache_requests_total{")
	sorted := delta(`topk_accesses_total{kind="sorted"}`)
	return map[string]float64{
		"service.query_p50_ms":                 percentile(floors, 0.50),
		"service.query_p95_ms":                 percentile(floors, 0.95),
		"service.op_p50_ms":                    percentile(lat, 0.50),
		"service.op_p95_ms":                    percentile(lat, 0.95),
		"service.throughput_qps":               float64(len(durs)) / p.elapsed.Seconds(),
		"service.cpu_ms_per_query":             (shardCPU + frontCPU) / ops,
		"service.http_overhead_ms":             mean(sortedMS(timedCalls)) - serverMeanMS,
		"sqlq.parse_ms":                        phaseMS("parse"),
		"service.prepare_ms":                   phaseMS("plan"),
		"opt.optimize_ms":                      phaseMS("optimize"),
		"algo.execute_ms":                      phaseMS("execute"),
		"opt.plan_cache_hit_ratio":             ratio(delta(`topk_plan_cache_requests_total{result="hit"}`), planLookups),
		"opt.estimator_evals_per_query":        deltaAll("topk_estimator_evals_total{") / ops,
		"algo.nc_iterations_per_query":         delta("topk_nc_iterations_total") / ops,
		"access.sorted_per_query":              sorted / ops,
		"access.random_per_query":              delta(`topk_accesses_total{kind="random"}`) / ops,
		"access.denied_per_query":              deltaAll("topk_access_denied_total{") / ops,
		"access.ns_per_access":                 1e9 * ratio(delta(`topk_phase_seconds_sum{phase="execute"}`), accesses),
		"service.open_p50_ms":                  p50MS(opens),
		"service.next_p50_ms":                  p50MS(nexts),
		"service.cursor_pages_per_session":     ratio(delta("topk_cursor_pages_total"), delta("topk_cursor_opened_total")),
		"cluster.fetched_entries_per_query":    delta("topk_cluster_fetched_entries_total") / ops,
		"cluster.shard_fetches_per_query":      delta("topk_cluster_shard_fetches_total") / ops,
		"cluster.merge_hit_ratio":              ratio(delta("topk_cluster_merge_hits_total"), sorted),
		"cluster.random_routed_per_query":      delta("topk_cluster_random_routed_total") / ops,
		"cluster.batch_groups_per_query":       delta("topk_cluster_batch_groups_total") / ops,
		"cluster.shard_cpu_ms_per_query":       shardCPU / ops,
		"cluster.coordinator_cpu_ms_per_query": coordCPU / ops,
		"store.read_bytes_per_query":           float64(p.after.rchar-p.before.rchar) / ops,
		"store.read_syscalls_per_query":        float64(p.after.syscr-p.before.syscr) / ops,
	}
}

// runTraced is the --trace 1 pass: one bring-up, an untraced timed phase
// for the scraped layer counters, a ?trace=1 pass of at least tracedOps
// operations whose responses become spans, and the ladder's values.
func runTraced(ctx context.Context, cfg config, w workload, tr *tracer, ladderValues map[string]float64) (result, error) {
	o, err := buildOracles(w)
	if err != nil {
		return result{}, err
	}
	d, stream, _, err := bringUp(ctx, cfg, w)
	if err != nil {
		return result{}, err
	}
	defer d.stop()
	plain, err := runPhase(ctx, d, false, stream, 1, seconds(cfg.seconds))
	if err != nil {
		return result{}, err
	}
	passes := (tracedOps + w.passLen() - 1) / w.passLen()
	traced, err := runPhase(ctx, d, true, stream, passes, 0)
	if err != nil {
		return result{}, err
	}
	for _, p := range []timedPhase{plain, traced} {
		if err := verify(o, p.samples); err != nil {
			return result{}, err
		}
	}
	values := layerValues(plain)
	for name, v := range ladderValues {
		values[name] = v
	}
	var roots []int
	var tracedDurs, plainDurs []time.Duration
	for _, s := range traced.samples {
		roots = append(roots, tr.addSample(w.name, s))
		tracedDurs = append(tracedDurs, s.dur)
	}
	for _, s := range plain.samples {
		plainDurs = append(plainDurs, s.dur)
	}
	self := selfTimes(tr.snapshot())
	var selfMS []float64
	for _, id := range roots {
		selfMS = append(selfMS, float64(self[id])/1e6)
	}
	values["service.client_self_ms"] = mean(selfMS)
	values["service.trace_overhead_ratio"] = p50MS(tracedDurs) / p50MS(plainDurs)

	res, err := newResult(perLayer, values)
	if err != nil {
		return res, err
	}
	for _, p := range []timedPhase{plain, traced} {
		attempted, failed, why := p.count()
		res.Attempted += attempted
		res.Failed += failed
		if failed > 0 {
			fmt.Printf("%s: %d of %d operations failed, first: %s\n", w.name, failed, attempted, why)
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}
