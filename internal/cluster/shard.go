package cluster

import (
	"context"
	"fmt"

	"repro/internal/access"
	"repro/internal/data"
)

// Shard is the coordinator-facing contract of one shard node. It is a
// paged access.Backend whose object ids are *global* — N() returns the
// full cluster's object count, pages carry global ids, Random and
// BatchRandom accept them — while a page's ranks walk the shard's *local*
// descending list, of LocalN() entries. The coordinator owns the
// translation between local ranks and global ranks (the k-way merge);
// shards only ever serve their own slice.
type Shard interface {
	access.Backend
	access.Pager
	// LocalN returns how many objects this shard owns: the length of each
	// of its per-predicate sorted lists.
	LocalN() int
}

// ShardData is one shard's slice of a partitioned dataset: the local
// dataset re-indexed to local ids 0..LocalN-1 plus the mapping back to
// global ids. Local ids are assigned in increasing global-id order, so
// the local datasets' tie-break (higher local id first) agrees with the
// global convention (higher OID first) — the property that makes the
// coordinator's merge byte-identical to a single-node sorted list.
type ShardData struct {
	// Index is this shard's position in the cluster.
	Index int
	// Local is the shard's slice as a standalone dataset in local ids
	// (nil when the shard owns no objects).
	Local *data.Dataset
	// Global maps local id -> global id, ascending.
	Global []int

	toLocal []int32 // global id -> local id, -1 when not owned
	globalN int
	m       int
}

// Partition splits the dataset across the given number of shards by
// consistent hashing on object id. Every object lands on exactly one
// shard; the union of the returned slices is the dataset.
func Partition(ds *data.Dataset, shards int) ([]*ShardData, error) {
	ring, err := NewRing(shards)
	if err != nil {
		return nil, err
	}
	out := make([]*ShardData, shards)
	for s := range out {
		if out[s], err = Slice(ring, s, ds.Name(), ds.N(), ds.M(), DatasetRows(ds)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Rows draws every row of an n × m dataset once, in ascending object
// order, handing each to emit; the scores slice may be reused between
// calls, and an error from emit ends the draw with that error. A bound
// data.Stream is one; DatasetRows reads a loaded dataset.
type Rows func(emit func(obj int, scores []float64) error) error

// DatasetRows returns the rows of a loaded dataset.
func DatasetRows(ds *data.Dataset) Rows {
	return func(emit func(int, []float64) error) error {
		row := make([]float64, ds.M())
		for u := 0; u < ds.N(); u++ {
			for i := range row {
				row[i] = ds.Score(u, i)
			}
			if err := emit(u, row); err != nil {
				return err
			}
		}
		return nil
	}
}

// Slice builds shard idx's slice of the n × m dataset named name in one
// pass over its rows, keeping only those the ring assigns to idx: it holds
// the shard's rows and an n-sized id map, never the dataset or another
// shard's slice. Partition and a topkd -shard node both build their
// shards here, so the two agree byte for byte. A shard that owns no
// objects gets no Local dataset, and no row is drawn for it.
func Slice(ring *Ring, idx int, name string, n, m int, rows Rows) (*ShardData, error) {
	if idx < 0 || idx >= ring.Shards() {
		return nil, fmt.Errorf("cluster: shard %d outside [0,%d)", idx, ring.Shards())
	}
	if n <= 0 || m <= 0 {
		return nil, fmt.Errorf("cluster: cannot slice a %d × %d dataset", n, m)
	}
	sd := &ShardData{Index: idx, toLocal: make([]int32, n), globalN: n, m: m}
	// Ownership is a pure function of the id, so the slice is sized before
	// a row is drawn. Local ids ascend with global ids: the tie-break order.
	localN := 0
	for u := range sd.toLocal {
		sd.toLocal[u] = -1
		if ring.Owner(u) == idx {
			sd.toLocal[u] = int32(localN)
			localN++
		}
	}
	if localN == 0 {
		return sd, nil
	}
	sd.Global = make([]int, 0, localN)
	for u, local := range sd.toLocal {
		if local >= 0 {
			sd.Global = append(sd.Global, u)
		}
	}
	flat := make([]float64, localN*m)
	kept := make([][]float64, localN)
	prev, drawn := -1, 0
	err := rows(func(u int, scores []float64) error {
		if u <= prev || u >= n || len(scores) != m {
			return fmt.Errorf("cluster: row %d of %d scores after row %d does not fit a %d × %d dataset drawn in order", u, len(scores), prev, n, m)
		}
		prev = u
		local := int(sd.toLocal[u])
		if local < 0 {
			return nil
		}
		kept[local] = flat[local*m : (local+1)*m : (local+1)*m]
		copy(kept[local], scores)
		drawn++
		return nil
	})
	if err != nil {
		return nil, err
	}
	if drawn != localN {
		return nil, fmt.Errorf("cluster: %s drew %d of shard %d's %d rows", name, drawn, idx, localN)
	}
	sd.Local, err = data.New(fmt.Sprintf("%s/shard%d-of-%d", name, idx, ring.Shards()), kept)
	if err != nil {
		return nil, err
	}
	return sd, nil
}

// LocalN returns how many objects the shard owns.
func (d *ShardData) LocalN() int { return len(d.Global) }

// GlobalN returns the full cluster's object count.
func (d *ShardData) GlobalN() int { return d.globalN }

// M returns the predicate count.
func (d *ShardData) M() int { return d.m }

// ToLocal maps a global object id to the shard's local id, or -1 when
// the shard does not own it.
func (d *ShardData) ToLocal(global int) int {
	if global < 0 || global >= len(d.toLocal) {
		return -1
	}
	return int(d.toLocal[global])
}

// LocalShard serves one ShardData in process: the Shard implementation
// behind in-process clusters (tests, benchmarks) and the data source a
// topkd -shard node exposes over HTTP.
type LocalShard struct {
	d *ShardData
}

// NewLocalShard wraps the partition slice as a Shard.
func NewLocalShard(d *ShardData) *LocalShard { return &LocalShard{d: d} }

// N returns the global object count.
func (s *LocalShard) N() int { return s.d.globalN }

// M returns the predicate count.
func (s *LocalShard) M() int { return s.d.m }

// LocalN returns how many objects this shard owns.
func (s *LocalShard) LocalN() int { return len(s.d.Global) }

// Page serves entries of the shard's local descending list for pred from
// rank from, as global object ids: as many as buf holds.
//
//topklint:hotpath
func (s *LocalShard) Page(ctx context.Context, pred, from int, buf []access.Entry) (int, error) {
	if s.d.Local == nil {
		return 0, fmt.Errorf("cluster: shard %d holds no objects", s.d.Index)
	}
	n, err := access.DatasetBackend{DS: s.d.Local}.Page(ctx, pred, from, buf)
	for i := range buf[:n] {
		buf[i].Obj = s.d.Global[buf[i].Obj]
	}
	return n, err
}

// Sorted implements access.Backend as a page of one.
func (s *LocalShard) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	return access.Fields(access.SortedAt(ctx, s, pred, rank))
}

// Random returns the exact score of one owned object, addressed by its
// global id.
func (s *LocalShard) Random(ctx context.Context, pred, obj int) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	local := s.d.ToLocal(obj)
	if local < 0 {
		return 0, fmt.Errorf("cluster: shard %d does not own object %d", s.d.Index, obj)
	}
	return s.d.Local.Score(local, pred), nil
}

// BatchRandom resolves a batch of probes against the shard in one call.
func (s *LocalShard) BatchRandom(ctx context.Context, preds, objs []int) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(preds) != len(objs) {
		return nil, fmt.Errorf("cluster: batch has %d predicates but %d objects", len(preds), len(objs))
	}
	scores := make([]float64, len(preds))
	for i := range preds {
		local := s.d.ToLocal(objs[i])
		if local < 0 {
			return nil, fmt.Errorf("cluster: shard %d does not own object %d", s.d.Index, objs[i])
		}
		scores[i] = s.d.Local.Score(local, preds[i])
	}
	return scores, nil
}

// shardFacade adapts a plain access.Backend (e.g. a fault-injector
// wrapping a LocalShard) back into a Shard by restoring the LocalN the
// wrapper hid. The wrapped backend must keep the Shard contract: global
// ids, local ranks.
type shardFacade struct {
	access.Backend
	access.Pager // the wrapped backend's paged read
	localN       int
}

// WrapShard restores the Shard contract over a wrapped shard backend:
// chaos tests use it to splice fault.Wrap between a LocalShard and the
// coordinator. Pages are the wrapped backend's own, so a wrapper that
// serves one entry per call (the fault injector) sees every entry; the
// batch capability stays hidden, so every probe passes it one at a time.
func WrapShard(b access.Backend, localN int) Shard {
	return &shardFacade{Backend: b, Pager: access.Pages(b), localN: localN}
}

// Unwrap returns the wrapped backend (the access.As convention).
func (f *shardFacade) Unwrap() access.Backend { return f.Backend }

// LocalN returns the wrapped shard's local object count.
func (f *shardFacade) LocalN() int { return f.localN }
