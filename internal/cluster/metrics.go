package cluster

import (
	"sync/atomic"

	"repro/internal/obs"
)

// Stats is a point-in-time snapshot of a coordinator's scatter-gather
// activity. MergeHits count sorted accesses served from the merged
// prefix without a shard round trip; ShardFetches/FetchedEntries count
// the cursor pages that extended it. Ledgers are unaffected by any of
// this: queries are billed for the accesses they request, not for what
// the coordinator fans out.
type Stats struct {
	// Shards is the cluster size; ShardsUp how many are currently
	// unfenced; Epoch the membership epoch (bumped on every fence and
	// recovery).
	Shards, ShardsUp int
	Epoch            uint64
	// MergedRows counts entries appended to merge prefixes; MergeHits
	// sorted accesses served from an already-merged prefix.
	MergedRows, MergeHits uint64
	// ShardFetches counts shard cursor page fetches; FetchedEntries the
	// entries they carried.
	ShardFetches, FetchedEntries uint64
	// RandomRouted counts probes routed to their owning shard;
	// BatchGroups the per-shard groups batched probes fanned out into.
	RandomRouted, BatchGroups uint64
	// ShardFailures counts failed shard accesses (before fencing turns
	// further attempts away).
	ShardFailures uint64
}

// stats holds the coordinator's internal counters.
type stats struct {
	mergedRows, mergeHits        atomic.Uint64
	shardFetches, fetchedEntries atomic.Uint64
	randomRouted, batchGroups    atomic.Uint64
	shardFailures                atomic.Uint64
}

// Stats snapshots the counters and membership state.
func (c *Coordinator) Stats() Stats {
	return Stats{
		Shards:         len(c.shards),
		ShardsUp:       int(c.up.Load()),
		Epoch:          c.epoch.Load(),
		MergedRows:     c.stats.mergedRows.Load(),
		MergeHits:      c.stats.mergeHits.Load(),
		ShardFetches:   c.stats.shardFetches.Load(),
		FetchedEntries: c.stats.fetchedEntries.Load(),
		RandomRouted:   c.stats.randomRouted.Load(),
		BatchGroups:    c.stats.batchGroups.Load(),
		ShardFailures:  c.stats.shardFailures.Load(),
	}
}

// AttachMetrics exposes the coordinator's counters and its shards-up
// gauge as the topk_cluster_* series of reg. The registry reads them at
// scrape time, so the hot path counts each fact once; coordinators sharing
// a registry are summed per series, so attach each one once.
func (c *Coordinator) AttachMetrics(reg *obs.Registry) {
	s := &c.stats
	reg.CounterFunc("topk_cluster_merged_rows_total", "Rows appended to coordinator merge prefixes.", s.mergedRows.Load)
	reg.CounterFunc("topk_cluster_merge_hits_total", "Sorted accesses served from an already-merged prefix.", s.mergeHits.Load)
	reg.CounterFunc("topk_cluster_shard_fetches_total", "Shard cursor page fetches.", s.shardFetches.Load)
	reg.CounterFunc("topk_cluster_fetched_entries_total", "Entries prefetched from shard sorted streams.", s.fetchedEntries.Load)
	reg.CounterFunc("topk_cluster_random_routed_total", "Random probes routed to their owning shard.", s.randomRouted.Load)
	reg.CounterFunc("topk_cluster_batch_groups_total", "Per-shard groups fanned out by batched probes.", s.batchGroups.Load)
	reg.CounterFunc("topk_cluster_shard_failures_total", "Shard accesses that failed.", s.shardFailures.Load)
	reg.GaugeFunc("topk_cluster_shards_up", "Shards currently unfenced.", c.up.Load)
}
