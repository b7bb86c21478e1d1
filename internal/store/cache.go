package store

import (
	"sync"

	"repro/internal/kit"
)

// blockCache is a mutex-guarded kit.LRU of raw segment blocks keyed by
// (predicate, block). Values are the immutable on-disk bytes; Sorted
// decodes the 12-byte entry it needs in place, so a cache hit allocates
// nothing. One cache serves the whole store — predicates share the
// budget the way they share the disk.
type blockCache struct {
	mu  sync.Mutex
	lru *kit.LRU[blockKey, []byte]
}

type blockKey struct {
	pred, block int
}

// get returns the cached block, or nil on a miss.
//
//topklint:hotpath
func (c *blockCache) get(pred, block int) []byte {
	c.mu.Lock()
	raw, _ := c.lru.Get(blockKey{pred, block})
	c.mu.Unlock()
	return raw
}

// put inserts a block, evicting the least recently used past capacity.
func (c *blockCache) put(pred, block int, raw []byte) {
	c.mu.Lock()
	c.lru.Put(blockKey{pred, block}, raw)
	c.mu.Unlock()
}

// drop empties the cache.
func (c *blockCache) drop() {
	c.mu.Lock()
	c.lru.Purge()
	c.mu.Unlock()
}
