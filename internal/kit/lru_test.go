package kit

import (
	"fmt"
	"math/rand"
	"testing"
)

// refLRU is the naive reference: a slice ordered most recent first.
type refLRU struct {
	capacity int
	keys     []string
	vals     map[string]int
}

func (r *refLRU) index(key string) int {
	for i, k := range r.keys {
		if k == key {
			return i
		}
	}
	return -1
}

func (r *refLRU) removeAt(i int) {
	delete(r.vals, r.keys[i])
	r.keys = append(r.keys[:i], r.keys[i+1:]...)
}

func (r *refLRU) front(key string, val int) {
	r.keys = append([]string{key}, r.keys...)
	r.vals[key] = val
}

func (r *refLRU) get(key string) (int, bool) {
	i := r.index(key)
	if i < 0 {
		return 0, false
	}
	val := r.vals[key]
	r.removeAt(i)
	r.front(key, val)
	return val, true
}

func (r *refLRU) put(key string, val int) (evicted int) {
	if i := r.index(key); i >= 0 {
		r.removeAt(i)
		r.front(key, val)
		return 0
	}
	if r.capacity <= 0 {
		return 0
	}
	r.front(key, val)
	for len(r.keys) > r.capacity {
		r.removeAt(len(r.keys) - 1)
		evicted++
	}
	return evicted
}

// TestLRUAgainstReference drives seeded random Get/GetBytes/Put/
// DeleteFunc/Purge sequences through the LRU and the reference and
// compares every result, then drains both by eviction to compare the
// recency order they ended in.
func TestLRUAgainstReference(t *testing.T) {
	for _, capacity := range []int{0, 1, 3, 8} {
		t.Run(fmt.Sprintf("capacity=%d", capacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(capacity) + 1))
			c := NewLRU[string, int](capacity)
			ref := &refLRU{capacity: capacity, vals: map[string]int{}}
			for step := 0; step < 5000; step++ {
				key := fmt.Sprintf("k%d", rng.Intn(12))
				switch op := rng.Intn(100); {
				case op < 45:
					var got int
					var ok bool
					if op%2 == 0 {
						got, ok = c.Get(key)
					} else {
						got, ok = GetBytes(c, []byte(key))
					}
					want, wantOK := ref.get(key)
					if got != want || ok != wantOK {
						t.Fatalf("step %d: Get(%s) = (%d, %v), reference (%d, %v)", step, key, got, ok, want, wantOK)
					}
				case op < 95:
					if got, want := c.Put(key, step), ref.put(key, step); got != want {
						t.Fatalf("step %d: Put(%s) evicted %d, reference %d", step, key, got, want)
					}
				case op < 99:
					odd := func(_ string, val int) bool { return val%2 == 1 }
					c.DeleteFunc(odd)
					for i := len(ref.keys) - 1; i >= 0; i-- {
						if odd(ref.keys[i], ref.vals[ref.keys[i]]) {
							ref.removeAt(i)
						}
					}
				default:
					c.Purge()
					ref.keys, ref.vals = nil, map[string]int{}
				}
				if c.Len() != len(ref.keys) {
					t.Fatalf("step %d: Len %d, reference %d", step, c.Len(), len(ref.keys))
				}
			}
			// At capacity, fresh keys evict the survivors least recent first.
			for c.Len() < capacity {
				c.Put(fmt.Sprintf("fill%d", c.Len()), 0)
			}
			for i := len(ref.keys) - 1; i >= 0; i-- {
				c.Put(fmt.Sprintf("fresh%d", i), 0)
				for j, key := range ref.keys[:i+1] {
					if _, ok := c.m[key]; ok != (j < i) {
						t.Fatalf("after %d evictions %s cached = %v (reference order %v)", len(ref.keys)-i, key, ok, ref.keys)
					}
				}
			}
		})
	}
}
