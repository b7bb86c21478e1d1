// Package cluster scales the middleware horizontally: a dataset is
// sharded across N nodes by consistent hashing on object id, each shard
// serves its slice through the ordinary per-source access protocol
// (sorted streams, random probes, batches), and a coordinator presents
// the shards back to the engine as one access.Backend. The paper's cost
// model is exactly the abstraction that makes this work: NC/TA/MPro and
// the optimizers consume sorted and random accesses with per-predicate
// costs, so they run unchanged over a cluster — only the backend's
// implementation changes, from one dataset to a scatter-gather merge
// (see DESIGN.md §15).
//
// The package has three layers:
//
//   - Ring: a deterministic consistent-hash ring assigning each object
//     id to its owning shard. Both slicing (Slice, and Partition over
//     it) and probe routing (Coordinator.Random) consult the same ring,
//     so ownership is a pure function of (object id, shard count).
//   - Shard: the coordinator-facing contract of one shard node —
//     access.Backend in *global* object ids plus the size of the local
//     slice. LocalShard serves an in-process partition; RemoteShard
//     (remote.go) speaks the shard wire — websim's frame protocol over
//     pooled upgraded connections — to a topkd -shard node.
//   - Coordinator: the scatter-gather access.Backend. Sorted accesses
//     are served from a per-predicate k-way merge of the shard streams
//     with pooled, prefetching per-shard cursors; random and batched
//     accesses route to the owning shard. Shard failures surface as
//     access errors the session's resilience machinery absorbs, so a
//     lost shard degrades answers honestly instead of silently.
package cluster

import (
	"fmt"
	"sort"
)

// vnodesPerShard is the number of virtual nodes each shard contributes
// to the ring. 64 keeps the assignment within a few percent of balanced
// while the ring stays small enough to build at startup in microseconds.
const vnodesPerShard = 64

// fnv1a64 hashes one 64-bit word with FNV-1a, byte by byte. It is the
// ring's only hash: allocation-free and stable across processes, so a
// coordinator and a remote shard node always agree on ownership.
func fnv1a64(x uint64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= 1099511628211
		x >>= 8
	}
	return h
}

// ringPoint is one virtual node on the ring.
type ringPoint struct {
	hash  uint64
	shard int
}

// Ring is a consistent-hash ring over a fixed shard count. It is
// immutable after construction and safe for concurrent use; membership
// changes (a shard going down) never move data — the coordinator's
// health tracking handles availability, the ring only answers ownership.
type Ring struct {
	shards int
	points []ringPoint
}

// NewRing builds the ring for the given shard count.
func NewRing(shards int) (*Ring, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("cluster: ring requires at least one shard, got %d", shards)
	}
	r := &Ring{shards: shards, points: make([]ringPoint, 0, shards*vnodesPerShard)}
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodesPerShard; v++ {
			// Mix shard and vnode into one word before hashing so vnode
			// sequences of different shards land independently.
			key := uint64(s)*0x9E3779B97F4A7C15 + uint64(v)
			r.points = append(r.points, ringPoint{hash: fnv1a64(key), shard: s})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		pa, pb := r.points[a], r.points[b]
		if pa.hash != pb.hash {
			return pa.hash < pb.hash
		}
		// Hash collisions between vnodes resolve by shard index so the
		// ring order — and therefore ownership — is fully deterministic.
		return pa.shard < pb.shard
	})
	return r, nil
}

// Shards returns the shard count the ring was built for.
func (r *Ring) Shards() int { return r.shards }

// Owner returns the shard owning object id u: the first virtual node at
// or clockwise after the object's hash.
func (r *Ring) Owner(u int) int {
	h := fnv1a64(uint64(u))
	points := r.points
	i := sort.Search(len(points), func(i int) bool { return points[i].hash >= h })
	if i == len(points) {
		i = 0
	}
	return points[i].shard
}
