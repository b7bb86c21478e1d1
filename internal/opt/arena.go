package opt

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/access"
	"repro/internal/algo"
	"repro/internal/data"
	"repro/internal/score"
)

// arena is the planning workspace: everything a planning call needs
// besides the plan it returns. A simulation run re-arms the arena's one
// session, selector, problem and scratch in place, so pricing a
// configuration allocates nothing; Optimize and EstimateConfiguration
// recycle arenas through a pool, so a planning call allocates little more
// than its plan.
//
// Reuse is plan-preserving because nothing in an arena survives into the
// next problem except what is a pure function of that problem's own
// inputs: the sample (identified by sampleID and the warp exponents — a
// dummy sample is deterministic in (size, m, seed), a caller's sample is
// immutable) with its means and the session over it. Reset drops the memo
// and the previous problem; every run begins by re-arming session,
// selector and problem; HClimb re-seeds the generator. No failure can
// leave state a later run reads before overwriting.
type arena struct {
	id     sampleID          //topklint:allow resetcomplete identity: the sample is rebuilt only when the problem asks for a different one
	exps   []float64         //topklint:allow resetcomplete identity: the warp exponents of sample, part of its identity
	sample *data.Dataset     //topklint:allow resetcomplete identity: immutable, and a pure function of (id, exps)
	means  []float64         //topklint:allow resetcomplete identity: per-column means of sample, for OptimizeOmega
	sess   *access.Session   //topklint:allow resetcomplete identity: the one session over sample; re-priced by Reset, reset by every run
	lifted []access.PredCost //topklint:allow resetcomplete work space: filled by lift before the session reads it

	// The simulation kit: nc runs srg over prob on scratch.
	srg     algo.SRG      //topklint:allow resetcomplete reconfigured by every simulation run before use
	nc      algo.NC       //topklint:allow resetcomplete constant: always {Sel: &srg}
	prob    algo.Problem  //topklint:allow resetcomplete re-armed by every simulation run before use
	scratch algo.Scratch  //topklint:allow resetcomplete re-prepared by every simulation run before use
	sessOpt access.Option // the session configuration of the bound problem: its columns of sample

	memo memo
	est  Estimator

	// Search work space, overwritten before it is read by each scheme.
	rng      *rand.Rand //topklint:allow resetcomplete re-seeded by HClimb before its first draw
	wantExps []float64  //topklint:allow resetcomplete work space: filled by bindSample before it is read
	vs       []float64  //topklint:allow resetcomplete work space: filled by each scheme before it is read
	h, bestH []float64  //topklint:allow resetcomplete work space: filled by each scheme before it is read
	idx      []int      //topklint:allow resetcomplete work space: filled by each scheme before it is read
	gain     []float64  //topklint:allow resetcomplete work space: filled by omega before it is read
}

// sampleID names the sample an arena simulates over: the caller's (by
// pointer — datasets are immutable) or the dummy uniform sample, which is
// deterministic in its generator arguments.
type sampleID struct {
	supplied *data.Dataset
	size, m  int
	seed     int64
}

var arenas sync.Pool // of *arena

// acquireArena returns a pooled (or new) arena bound to the planning
// problem; the caller releases it.
func acquireArena(cfg Config, scn access.Scenario, f score.Func, k, n int) (*arena, error) {
	a, ok := arenas.Get().(*arena)
	if !ok {
		a = &arena{}
	}
	if err := a.Reset(cfg, scn, f, k, n); err != nil {
		// A failed Reset leaves the arena bound to no problem, and the
		// next Get resets it again: it stays recyclable.
		arenas.Put(a)
		return nil, err
	}
	return a, nil
}

// release returns the arena to the pool, dropping the problem it was
// bound to — its observer and scoring function — so a pooled arena pins
// nothing of a finished request but the sample, the scenario's costs and
// the query's columns.
func (a *arena) release() {
	a.est = Estimator{}
	arenas.Put(a)
}

// Reset binds the arena to one planning problem under cfg (already
// normalized): it drops the previous problem and its memo, finds or
// builds the sample, validates the problem against it the way
// NewEstimator always has, and re-prices the session under scn over the
// sample's columns cfg.Cols selects.
func (a *arena) Reset(cfg Config, scn access.Scenario, f score.Func, k, n int) error {
	a.memo.Reset()
	a.est = Estimator{}
	a.sessOpt = access.Option{AllowWildGuesses: cfg.DisableNWG, Cols: cfg.Cols}
	// Validation runs in NewEstimator's order: scenario, function, sizes.
	lifted, err := a.lift(scn, cfg.Sample)
	if err != nil {
		return err
	}
	if err := a.bindSample(cfg, lifted); err != nil {
		return err
	}
	if err := a.sess.ResetScenario(lifted, a.sessOpt); err != nil {
		return err
	}
	if err := score.Validate(f, a.sess.M()); err != nil {
		return err
	}
	if k <= 0 || n <= 0 {
		return fmt.Errorf("opt: estimator requires positive k and n, got k=%d n=%d", k, n)
	}
	size := a.sample.N()
	kPrime := int(math.Round(float64(k) * float64(size) / float64(n)))
	kPrime = max(1, min(kPrime, size))
	a.est = Estimator{a: a, f: f, kPrime: kPrime, scale: float64(n) / float64(size), obs: cfg.Observer}
	return nil
}

// bindSample points the arena at the problem's sample — cfg.Sample, or
// the dummy uniform sample warped by cfg.Observed — keeping the one it
// holds when the identity matches, else rebuilding sample, means and
// session together. scn covers every column of the sample.
func (a *arena) bindSample(cfg Config, scn access.Scenario) error {
	id := sampleID{supplied: cfg.Sample}
	a.wantExps = a.wantExps[:0]
	if cfg.Sample == nil {
		id = sampleID{size: cfg.SampleSize, m: scn.M(), seed: cfg.Seed}
		if cfg.Observed != nil {
			// A caller's sample is never warped: real samples are ground
			// truth, observations only correct the uniform assumption.
			a.wantExps = cfg.Observed.appendWarp(a.wantExps, id.m)
		}
	}
	if a.sample != nil && id == a.id && slices.Equal(a.wantExps, a.exps) {
		return nil
	}
	sample := cfg.Sample
	if sample == nil {
		var err error
		sample, err = data.DummySample(id.size, id.m, id.seed)
		if err != nil {
			return fmt.Errorf("opt: synthesizing dummy sample: %w", err)
		}
		if len(a.wantExps) > 0 {
			if sample, err = warpSample(sample, a.wantExps); err != nil {
				return fmt.Errorf("opt: warping dummy sample: %w", err)
			}
		}
	}
	sess, err := access.NewSession(access.DatasetBackend{DS: sample}, scn)
	if err != nil {
		return err
	}
	a.id, a.sample, a.sess = id, sample, sess
	a.exps = append(a.exps[:0], a.wantExps...)
	a.means = appendMeans(a.means[:0], sample)
	a.nc = algo.NC{Sel: &a.srg}
	a.prob = algo.Problem{Session: sess}
	return nil
}

// lift returns scn, whose predicates are the query's, as a scenario over
// every column of sample: the query's predicate i prices column
// sessOpt.Cols[i]. The columns the query leaves out get a placeholder the
// session never reads.
func (a *arena) lift(scn access.Scenario, sample *data.Dataset) (access.Scenario, error) {
	cols := a.sessOpt.Cols
	if cols == nil {
		return scn, nil
	}
	if sample == nil {
		return access.Scenario{}, errColsWithoutSample
	}
	if err := scn.Validate(len(cols)); err != nil {
		return access.Scenario{}, err
	}
	m := sample.M()
	a.lifted = slices.Grow(a.lifted[:0], m)[:m]
	for c := range a.lifted {
		a.lifted[c] = access.PredCost{SortedOK: true, RandomOK: true}
	}
	for i, c := range cols {
		if c < 0 || c >= m {
			return access.Scenario{}, fmt.Errorf("opt: Cols[%d] = %d, the sample has %d columns", i, c, m)
		}
		a.lifted[c] = scn.Preds[i]
	}
	return access.Scenario{Name: scn.Name, Preds: a.lifted}, nil
}

// omega is OptimizeOmega over the bound sample's cached means, each
// predicate's read from its column.
func (a *arena) omega(scn access.Scenario) []int {
	a.gain = appendProbeGains(a.gain[:0], a.means, a.sessOpt.Cols, scn)
	return scheduleByGain(a.gain)
}

// memo is the estimator's configuration -> cost table, keyed on the exact
// bits of H and the entries of Omega. Keys live in one flat word array and
// chain through a hash index, so a lookup builds its key in a reused
// buffer and a warm table inserts without allocating.
type memo struct {
	head  map[uint64]int32 // key hash -> most recent entry with it
	next  []int32          // entry -> older entry with the same hash, or -1
	off   []int32          // entry i's key is words[off[i]:off[i+1]]
	words []uint64
	costs []access.Cost
	key   []uint64 // the key being looked up or inserted
}

// memoSizeHint is the entry count a memo is first sized for: the default
// HClimb search prices about a hundred configurations per plan.
const memoSizeHint = 128

// Reset empties the table, keeping its storage.
func (t *memo) Reset() {
	if t.head == nil {
		t.head = make(map[uint64]int32, memoSizeHint)
		t.next = make([]int32, 0, memoSizeHint)
		t.off = make([]int32, 0, memoSizeHint+1)
		t.words = make([]uint64, 0, 8*memoSizeHint)
		t.costs = make([]access.Cost, 0, memoSizeHint)
		t.key = make([]uint64, 0, 16)
	}
	clear(t.head)
	t.next = t.next[:0]
	t.off = append(t.off[:0], 0)
	t.words = t.words[:0]
	t.costs = t.costs[:0]
	t.key = t.key[:0]
}

// lookup returns the memoized cost of (h, omega) and leaves the
// configuration's key in place for an insert to follow a miss.
//
//topklint:hotpath
func (t *memo) lookup(h []float64, omega []int) (access.Cost, bool) {
	// len(h) leads so that (h, omega) pairs of different shapes — which
	// only invalid configurations have — cannot spell the same words.
	t.key = append(t.key[:0], uint64(len(h)))
	for _, x := range h {
		t.key = append(t.key, math.Float64bits(x))
	}
	for _, p := range omega {
		t.key = append(t.key, uint64(p))
	}
	i, ok := t.head[hashWords(t.key)]
	for ok && i >= 0 {
		if slices.Equal(t.words[t.off[i]:t.off[i+1]], t.key) {
			return t.costs[i], true
		}
		i = t.next[i]
	}
	return 0, false
}

// insert records the cost of the configuration the last lookup missed.
func (t *memo) insert(c access.Cost) {
	hash := hashWords(t.key)
	prev, ok := t.head[hash]
	if !ok {
		prev = -1
	}
	t.head[hash] = int32(len(t.costs))
	t.next = append(t.next, prev)
	t.words = append(t.words, t.key...)
	t.off = append(t.off, int32(len(t.words)))
	t.costs = append(t.costs, c)
}

// hashWords is FNV-1a over 64-bit words with an extra fold: grid depths
// differ only in their high mantissa bits, which the multiply alone
// would never carry down into a map's bucket bits.
func hashWords(ws []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range ws {
		h = (h ^ w) * 1099511628211
		h ^= h >> 32
	}
	return h
}
