package main

import (
	"fmt"
	"math/rand"
	"strings"

	topk "repro"
)

// deployKind names the three ways topkd is deployed under a workload.
type deployKind int

const (
	deployMem deployKind = iota
	deployStore
	deployCluster
)

// datasetSeed seeds every dataset and store the benchmark serves and the
// session users. It is pinned, and -seed drives only the operation order:
// access counts, allocations and billed cost then repeat exactly from seed to
// seed, so their bounds can be tight, while the program under test still
// sees nothing but generated inputs.
const datasetSeed = 1

// clusterShards is the shard-node count behind cluster_mix's coordinator.
const clusterShards = 3

// sessionPages is how many pages one mem_session operation reads (the
// opening page plus two /query/next calls) and sessionK their size, so a
// session's concatenated answer is the oracle's top sessionPages*sessionK.
const (
	sessionPages = 3
	sessionK     = 10
)

// sessionUsers is the number of users behind mem_session. Each has a
// ranking function of its own and opens one session per pass; from one pass
// to the next they raise their first weight by 0.001 (wrapping after
// weightDrift passes), so every open is a plan-cache miss while a user's
// sessions stay alike enough to be timed as repeats of one operation.
const (
	sessionUsers = 32
	weightDrift  = 200
)

// workload is one traffic mix against one deployment. Operation counts are
// not part of it: the timed phase runs whole passes over the pool (shapes,
// or users for the session workload) until -seconds has elapsed, so every
// per-query average is taken over an exactly balanced mix whatever the speed
// of the commit under test.
type workload struct {
	name   string
	why    string
	deploy deployKind
	dist   string
	n, m   int
	// warmup is the number of untimed operations (rounded up to whole
	// passes over the pool) that precede the timed phase; they count
	// towards setup_s.
	warmup int
	// shapes is the one-shot query pool; empty for the session workload,
	// whose pool is sessionUsers users.
	shapes []shape
}

// shape is one query of a pool: fn over the named columns, stop after k.
type shape struct {
	fn   string
	cols []int
	k    int
}

func (s shape) sql() string { return querySQL(s.fn, nil, s.cols, s.k) }

// querySQL renders fn over 1-based column names p<i>; with weights it
// renders wsum(w*p, ...).
func querySQL(fn string, weights []float64, cols []int, k int) string {
	args := make([]string, len(cols))
	for i, c := range cols {
		if weights != nil {
			args[i] = fmt.Sprintf("%.3f*p%d", weights[i], c+1)
		} else {
			args[i] = fmt.Sprintf("p%d", c+1)
		}
	}
	return fmt.Sprintf("select name from db order by %s(%s) stop after %d", fn, strings.Join(args, ", "), k)
}

func cross(fns []string, projections [][]int, ks []int) []shape {
	var out []shape
	for _, fn := range fns {
		for _, cols := range projections {
			for _, k := range ks {
				out = append(out, shape{fn: fn, cols: cols, k: k})
			}
		}
	}
	return out
}

var (
	all3 = []int{0, 1, 2}
	p12  = []int{0, 1}
	p23  = []int{1, 2}
	p13  = []int{0, 2}
)

// workloads is the benchmark's fixed set; BENCHMARK.json lists the same
// names (TestManifestMatchesCode pins the two together).
var workloads = []workload{
	{
		name:   "mem_point",
		why:    "cheap one-shot queries, plan cache hot: HTTP/JSON, sqlq, service.prepare and the facade do most of the work",
		deploy: deployMem, dist: "uniform", n: 1000, m: 3, warmup: 450,
		shapes: cross([]string{"min", "avg", "product"},
			[][]int{all3, p12, p23, {2, 0}, p13, {1, 0, 2}},
			[]int{1, 5, 10, 20, 50}),
	},
	{
		name:   "mem_session",
		why:    "per-user wsum cursors: plan-cache miss path (HClimb runs) and stateful pooled cursors beside mem_point's hit path",
		deploy: deployMem, dist: "uniform", n: 1000, m: 3, warmup: 96,
	},
	{
		name:   "mem_deep",
		why:    "~14k billed accesses per query at n=1e5: access, algo, state and the per-request projection dominate, HTTP is noise",
		deploy: deployMem, dist: "zipf", n: 100000, m: 3, warmup: 48,
		shapes: append(cross([]string{"min", "avg"}, [][]int{all3}, []int{10, 50, 100, 200}),
			cross([]string{"min", "avg"}, [][]int{p12, p23}, []int{10, 50})...),
	},
	{
		name:   "store_deep",
		why:    "disk store at n=1e6 under a pinned uniform scenario: the only workload with block scans, point preads and 1e6-sized state",
		deploy: deployStore, dist: "zipf", n: 1000000, m: 3, warmup: 40,
		shapes: append(cross([]string{"min", "avg"}, [][]int{all3}, []int{1}),
			cross([]string{"min", "avg"}, [][]int{p12, p23, p13}, []int{1, 10, 50})...),
	},
	{
		name:   "cluster_mix",
		why:    "coordinator over 3 shard nodes: probing shapes make every random access a shard round trip, so cluster and websim dominate",
		deploy: deployCluster, dist: "zipf", n: 100000, m: 3, warmup: 52,
		shapes: append(append(cross([]string{"min", "avg"}, [][]int{all3}, []int{1, 10}),
			cross([]string{"min", "avg"}, [][]int{p12, p23}, []int{10, 50})...),
			shape{fn: "min", cols: all3, k: 50}),
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// op is one generated operation. Its class is its place in the pool: the
// shape of a one-shot query, the user of a session. Operations of one class
// repeat the same work, which is what lets a run time each class by its
// fastest repeats.
type op struct {
	class   int       // index into workload.shapes, or the user of a session
	weights []float64 // session ranking function, 3 decimals; nil for a one-shot query
	sql     string
}

// opStream yields the caller's operation sequence. It is a pure function of
// (workload, seed): seeded permutations of the whole pool back to back, so
// every class is issued equally often.
type opStream struct {
	w      workload
	rng    *rand.Rand
	users  [][]int // per session user, the weights in thousandths
	perm   []int
	pos    int
	passes int // completed
}

func newOpStream(w workload, seed int64) *opStream {
	s := &opStream{w: w, rng: rand.New(rand.NewSource(seed*1000003 + 17))}
	if len(w.shapes) == 0 {
		// The users are pinned like the dataset, and for the same reason: a
		// pool of 32 ranking functions drawn from -seed moved billed cost
		// and allocations by 5-7% between seeds.
		pinned := rand.New(rand.NewSource(datasetSeed))
		s.users = make([][]int, sessionUsers)
		for u := range s.users {
			s.users[u] = make([]int, w.m)
			for i := range s.users[u] {
				// 0.050 … 0.800 in steps of 0.001: never zero, so every
				// predicate matters and the function stays strictly
				// monotone, and at most 1 after the drift.
				s.users[u][i] = 50 + pinned.Intn(751)
			}
		}
	}
	return s
}

// passLen is the number of operations in one balanced pass.
func (w workload) passLen() int {
	if len(w.shapes) == 0 {
		return sessionUsers
	}
	return len(w.shapes)
}

func (s *opStream) next() op {
	if s.pos == len(s.perm) {
		if s.perm != nil {
			s.passes++
		}
		s.perm = s.rng.Perm(s.w.passLen())
		s.pos = 0
	}
	i := s.perm[s.pos]
	s.pos++
	if s.users == nil {
		return op{class: i, sql: s.w.shapes[i].sql()}
	}
	weights := make([]float64, s.w.m)
	for j, milli := range s.users[i] {
		weights[j] = float64(milli) / 1000
	}
	weights[0] = float64(s.users[i][0]+s.passes%weightDrift) / 1000
	return op{class: i, weights: weights, sql: querySQL("wsum", weights, all3, sessionK)}
}

// projected evaluates a scoring function over a column subset of a full
// score vector, so TopKOracle can rank the unprojected dataset the way the
// service ranks its per-query projection.
type projected struct {
	topk.ScoreFunc
	cols []int
}

func (p projected) Eval(scores []float64) float64 {
	var buf [8]float64
	sub := buf[:len(p.cols)]
	for i, c := range p.cols {
		sub[i] = scores[c]
	}
	return p.ScoreFunc.Eval(sub)
}

// oracleFor ranks ds under fn (or wsum with weights) over cols.
func oracleFor(ds *topk.Dataset, fn string, weights []float64, cols []int, k int) ([]topk.Item, error) {
	var f topk.ScoreFunc
	if weights != nil {
		f = topk.Weighted(weights...)
	} else {
		var err error
		if f, err = topk.ScoreByName(fn); err != nil {
			return nil, err
		}
	}
	return topk.TopKOracle(ds, projected{ScoreFunc: f, cols: cols}, k), nil
}

// oracles holds the expected answers of a pool: one ranking per distinct
// (fn, projection) at the deepest k any shape asks for, shared by prefix.
type oracles struct {
	ds      *topk.Dataset // kept only for the session workload, ranked per session
	byShape [][]topk.Item
}

func buildOracles(w workload) (*oracles, error) {
	ds, err := topk.GenerateDataset(w.dist, w.n, w.m, datasetSeed)
	if err != nil {
		return nil, err
	}
	o := &oracles{byShape: make([][]topk.Item, len(w.shapes))}
	if len(w.shapes) == 0 {
		o.ds = ds // a pool workload lets its dataset (1e6 rows for store_deep) go before the timed phase
	}
	deepest := map[string]int{}
	key := func(s shape) string { return fmt.Sprint(s.fn, s.cols) }
	for _, s := range w.shapes {
		if s.k > deepest[key(s)] {
			deepest[key(s)] = s.k
		}
	}
	ranked := map[string][]topk.Item{}
	for i, s := range w.shapes {
		r, ok := ranked[key(s)]
		if !ok {
			if r, err = oracleFor(ds, s.fn, nil, s.cols, deepest[key(s)]); err != nil {
				return nil, err
			}
			ranked[key(s)] = r
		}
		o.byShape[i] = r[:min(s.k, len(r))]
	}
	return o, nil
}

// expected returns the exact answer an operation must produce.
func (o *oracles) expected(p op) ([]topk.Item, error) {
	if p.weights == nil {
		return o.byShape[p.class], nil
	}
	return oracleFor(o.ds, "", p.weights, all3, sessionPages*sessionK)
}
