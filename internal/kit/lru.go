package kit

// LRU is a fixed-capacity least-recently-used map. It is not safe for
// concurrent use: every holder already owns a mutex guarding state of its
// own (counters, in-flight calls, a generation), so the cache takes none.
// Entries are nodes of an intrusive list — one allocation per new key,
// none per hit — and a capacity of zero or less stores nothing.
type LRU[K comparable, V any] struct {
	capacity int
	m        map[K]*lruNode[K, V]
	root     lruNode[K, V] // sentinel: root.next is the most recent entry, root.prev the least
}

type lruNode[K comparable, V any] struct {
	key        K
	val        V
	prev, next *lruNode[K, V]
}

// NewLRU returns an empty cache bounded to capacity entries.
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	c := &LRU[K, V]{capacity: capacity, m: make(map[K]*lruNode[K, V])}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Get returns the value cached under key, marking it most recently used.
//
//topklint:hotpath
func (c *LRU[K, V]) Get(key K) (V, bool) {
	return c.touch(c.m[key])
}

// GetBytes is Get for a string-keyed cache whose caller built the key in
// a byte buffer: the lookup indexes the map with string(key) directly,
// which the compiler does not materialize, where c.Get(string(key)) would
// allocate the string to pass it.
//
//topklint:hotpath
func GetBytes[V any](c *LRU[string, V], key []byte) (V, bool) {
	return c.touch(c.m[string(key)])
}

// touch moves a found node to the front and returns its value.
//
//topklint:hotpath
func (c *LRU[K, V]) touch(n *lruNode[K, V]) (V, bool) {
	if n == nil {
		var zero V
		return zero, false
	}
	c.unlink(n)
	c.pushFront(n)
	return n.val, true
}

// Put caches val under key as the most recently used entry and returns
// how many entries it evicted to stay within capacity.
func (c *LRU[K, V]) Put(key K, val V) (evicted int) {
	if n, ok := c.m[key]; ok {
		n.val = val
		c.touch(n)
		return 0
	}
	if c.capacity <= 0 {
		return 0
	}
	n := &lruNode[K, V]{key: key, val: val}
	c.m[key] = n
	c.pushFront(n)
	for len(c.m) > c.capacity {
		c.remove(c.root.prev)
		evicted++
	}
	return evicted
}

// DeleteFunc removes every entry for which del returns true.
func (c *LRU[K, V]) DeleteFunc(del func(K, V) bool) {
	for n := c.root.next; n != &c.root; {
		next := n.next
		if del(n.key, n.val) {
			c.remove(n)
		}
		n = next
	}
}

// Each calls fn on every entry, most recently used first, until fn
// returns false. It leaves the recency order as it was.
func (c *LRU[K, V]) Each(fn func(K, V) bool) {
	for n := c.root.next; n != &c.root; n = n.next {
		if !fn(n.key, n.val) {
			return
		}
	}
}

// Purge removes every entry.
func (c *LRU[K, V]) Purge() {
	clear(c.m)
	c.root.prev, c.root.next = &c.root, &c.root
}

// Len returns the number of cached entries.
func (c *LRU[K, V]) Len() int { return len(c.m) }

func (c *LRU[K, V]) remove(n *lruNode[K, V]) {
	c.unlink(n)
	delete(c.m, n.key)
}

func (c *LRU[K, V]) unlink(n *lruNode[K, V]) {
	n.prev.next, n.next.prev = n.next, n.prev
}

func (c *LRU[K, V]) pushFront(n *lruNode[K, V]) {
	n.prev, n.next = &c.root, c.root.next
	n.prev.next, n.next.prev = n, n
}
