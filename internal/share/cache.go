package share

import (
	"sync"

	"repro/internal/kit"
)

// numShards splits the score cache to keep concurrent queries off one
// mutex. A power of two so the shard pick is a mask.
const numShards = 16

// probeKey packs (predicate, object) into the cache key.
func probeKey(pred, obj int) uint64 {
	return uint64(pred)<<32 | uint64(uint32(obj))
}

// shardIndex spreads keys over shards (Fibonacci hashing: consecutive
// object ids land on different shards).
func shardIndex(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> 60)
}

// scoreCache is the sharded random-access score cache.
type scoreCache struct {
	shards [numShards]scoreShard
}

// newScoreCache spreads capacity over the shards so their bounds sum to
// exactly the configured value: the first capacity%numShards shards take
// one entry more, and below numShards entries the rest cache nothing.
func newScoreCache(capacity int) *scoreCache {
	c := &scoreCache{}
	for i := range c.shards {
		per := capacity / numShards
		if i < capacity%numShards {
			per++
		}
		c.shards[i].lru = kit.NewLRU[uint64, float64](per)
		c.shards[i].inflight = make(map[uint64]*probeCall)
	}
	return c
}

func (c *scoreCache) shard(key uint64) *scoreShard {
	return &c.shards[shardIndex(key)&(numShards-1)]
}

// invalidate drops every cached score del selects and bumps each shard's
// generation so in-flight probes started before the invalidation cannot
// re-insert stale values.
func (c *scoreCache) invalidate(del func(key uint64, score float64) bool) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.gen++
		sh.lru.DeleteFunc(del)
		sh.mu.Unlock()
	}
}

// probeCall is one in-flight random access shared by concurrent identical
// probes (singleflight).
type probeCall struct {
	done  chan struct{}
	score float64
	err   error
}

// scoreShard is one LRU shard: a kit.LRU of (predicate, object) scores
// under the mutex that also guards the shard's generation and in-flight
// probes. The mutex is never held across a backend access: begin
// registers the in-flight call and releases, commit publishes after the
// access returns.
type scoreShard struct {
	mu       sync.Mutex
	gen      uint64 // bumped on invalidation; guards late commits
	lru      *kit.LRU[uint64, float64]
	inflight map[uint64]*probeCall
}

// get returns the cached score, refreshing its LRU position. The hit path
// allocates nothing.
func (s *scoreShard) get(key uint64) (float64, bool) {
	s.mu.Lock()
	score, ok := s.lru.Get(key)
	s.mu.Unlock()
	return score, ok
}

// begin opens a probe: a concurrent insert since the caller's miss is
// returned as cached; an in-flight identical probe is returned as call to
// wait on; otherwise the caller becomes the driver (nil call) and must
// pair this with commit. gen is the shard generation the driver must pass
// back so a value fetched before an invalidation is not cached after it.
func (s *scoreShard) begin(key uint64) (score float64, cached bool, call *probeCall, gen uint64) {
	s.mu.Lock()
	if score, ok := s.lru.Get(key); ok {
		s.mu.Unlock()
		return score, true, nil, 0
	}
	if c, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		return 0, false, c, 0
	}
	c := &probeCall{done: make(chan struct{})}
	s.inflight[key] = c
	gen = s.gen
	s.mu.Unlock()
	return 0, false, nil, gen
}

// commit closes the probe opened by begin: the result is published to
// waiters, and cached when the access succeeded and no invalidation
// intervened.
func (s *scoreShard) commit(key uint64, gen uint64, score float64, err error) {
	s.mu.Lock()
	call := s.inflight[key]
	delete(s.inflight, key)
	if err == nil && gen == s.gen {
		s.lru.Put(key, score)
	}
	s.mu.Unlock()
	if call != nil {
		call.score, call.err = score, err
		close(call.done)
	}
}

// put caches a score fetched outside the shard's own singleflight (the
// batcher resolves probes through its own pending set). gen guards late
// inserts the same way commit does.
func (s *scoreShard) put(key uint64, gen uint64, score float64) {
	s.mu.Lock()
	if gen == s.gen {
		s.lru.Put(key, score)
	}
	s.mu.Unlock()
}

// generation snapshots the shard generation for a later put.
func (s *scoreShard) generation() uint64 {
	s.mu.Lock()
	g := s.gen
	s.mu.Unlock()
	return g
}
