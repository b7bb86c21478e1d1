// Package store is the disk-backed access.Backend: per-predicate sorted
// segments (append-only block files with a sparse in-memory fence index)
// serve sa_i as sequential block scans, and a row-major score matrix
// serves ra_i/BatchRandom as single-pread point lookups. The point is
// physical honesty: the cost asymmetry the paper assumes (cr > cs,
// Section 2) here emerges from seek-vs-scan physics — one 48 KiB block
// read amortizes over thousands of sorted accesses while every random
// probe pays its own positioned read — and Measure prices it from timed IO
// instead of taking it as config.
package store

import (
	"cmp"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"slices"
	"sync/atomic"

	"repro/internal/access"
	"repro/internal/kit"
	"repro/internal/obs"
)

// ErrCorrupt reports a store directory that fails validation: missing or
// torn files, a size or checksum mismatch, a broken fence order. Open
// refuses such a store loudly rather than serving bytes it cannot vouch
// for; rebuilding from the generator is always safe because stores are
// append-once artifacts.
var ErrCorrupt = errors.New("store: corrupt store")

// Options tunes Open.
type Options struct {
	// CacheBlocks bounds the decoded-block LRU cache, in blocks across
	// all predicates (DefaultCacheBlocks when 0; negative disables
	// caching, which makes every sorted access a positioned read — useful
	// only for measurement).
	CacheBlocks int
}

// DefaultCacheBlocks holds 64 blocks (~3 MiB at the default block size):
// enough for the hot top-of-list blocks of every predicate of any
// realistic query, small enough to be irrelevant next to the dataset.
const DefaultCacheBlocks = 64

// Store is a read-only disk-backed Backend over a directory written by
// Writer. It is safe for concurrent use.
type Store struct {
	dir          string
	man          Manifest
	scores       *os.File
	segs         []*os.File
	fences       [][]float64 // per pred: block -> first (max) score
	blockEntries int
	cache        *blockCache

	sortedReads atomic.Uint64
	randomReads atomic.Uint64
	blockReads  atomic.Uint64
	blockHits   atomic.Uint64
}

// Stats is a snapshot of a store's physical counters. BlockReads vs
// SortedReads is the amortization ratio the cost asymmetry comes from.
type Stats struct {
	SortedReads int64 // sa_i served
	RandomReads int64 // ra_i preads issued (incl. batched)
	BlockReads  int64 // segment blocks fetched from disk
	BlockHits   int64 // sorted accesses served from the block cache
}

// Open validates and opens a store directory. Every claim the manifest
// makes — format version, file sizes (against n, m and the block size
// first, then on disk), whole-file checksums, header contents, fence
// order — is checked up front; any mismatch returns ErrCorrupt and no
// half-open store. Nothing sized by n is allocated before the manifest's
// sizes agree with n, and the checksums stream through one bounded buffer.
func Open(dir string, opts Options) (*Store, error) {
	raw, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s has no %s (incomplete write or not a store)", ErrCorrupt, dir, ManifestName)
		}
		return nil, fmt.Errorf("store: %w", err)
	}
	var man Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("%w: unreadable manifest: %v", ErrCorrupt, err)
	}
	if man.FormatVersion != FormatVersion {
		return nil, fmt.Errorf("%w: format v%d, this build reads v%d", ErrCorrupt, man.FormatVersion, FormatVersion)
	}
	if man.N <= 0 || man.M <= 0 || man.BlockEntries <= 0 || len(man.Segments) != man.M {
		return nil, fmt.Errorf("%w: implausible manifest (n=%d m=%d block=%d segments=%d)",
			ErrCorrupt, man.N, man.M, man.BlockEntries, len(man.Segments))
	}
	if man.N > math.MaxUint32 || man.ScoresSize != scoresSize(man.N, man.M) {
		return nil, fmt.Errorf("%w: manifest scores size %d disagrees with n=%d m=%d", ErrCorrupt, man.ScoresSize, man.N, man.M)
	}
	for i, seg := range man.Segments {
		if want := segmentSize(man.N, man.BlockEntries); seg.Size != want {
			return nil, fmt.Errorf("%w: manifest segment %d size %d disagrees with n=%d block=%d (%d)",
				ErrCorrupt, i, seg.Size, man.N, man.BlockEntries, want)
		}
	}

	s := &Store{
		dir:          dir,
		man:          man,
		blockEntries: man.BlockEntries,
		segs:         make([]*os.File, man.M),
		fences:       make([][]float64, man.M),
	}
	ok := false
	defer func() {
		if !ok {
			s.Close()
		}
	}()

	buf := make([]byte, crcBufSize)
	if s.scores, err = openChecked(scoresPath(dir), man.ScoresSize, man.ScoresCRC, buf); err != nil {
		return nil, err
	}
	hdr := make([]byte, scoresHeaderSize)
	if _, err := s.scores.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("%w: scores header: %v", ErrCorrupt, err)
	}
	if string(hdr[:magicSize]) != scoresMagic {
		return nil, fmt.Errorf("%w: scores.dat bad magic", ErrCorrupt)
	}
	if n := binary.LittleEndian.Uint32(hdr[magicSize:]); int(n) != man.N {
		return nil, fmt.Errorf("%w: scores.dat header n=%d, manifest n=%d", ErrCorrupt, n, man.N)
	}
	if m := binary.LittleEndian.Uint32(hdr[magicSize+4:]); int(m) != man.M {
		return nil, fmt.Errorf("%w: scores.dat header m=%d, manifest m=%d", ErrCorrupt, m, man.M)
	}

	for i := 0; i < man.M; i++ {
		if s.segs[i], err = openChecked(segmentPath(dir, i), man.Segments[i].Size, man.Segments[i].CRC, buf); err != nil {
			return nil, err
		}
		if s.fences[i], err = readFences(s.segs[i], i, man.N, man.BlockEntries); err != nil {
			return nil, err
		}
	}

	cap := opts.CacheBlocks
	if cap == 0 {
		cap = DefaultCacheBlocks
	}
	if cap > 0 {
		s.cache = &blockCache{lru: kit.NewLRU[blockKey, []byte](cap)}
	}
	ok = true
	return s, nil
}

// crcBufSize bounds the buffer Open streams every data file through to
// checksum it.
const crcBufSize = 256 << 10

// openChecked opens a data file and verifies its exact size, then its
// CRC-32 (IEEE, over the whole file, as the writer folds it), against the
// manifest, converting truncation and flipped bytes into ErrCorrupt before
// any other read. The file streams through buf.
func openChecked(path string, wantSize int64, wantCRC uint32, buf []byte) (*os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: missing %s", ErrCorrupt, path)
		}
		return nil, fmt.Errorf("store: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	if st.Size() != wantSize {
		f.Close()
		return nil, fmt.Errorf("%w: %s is %d bytes, manifest says %d (torn or truncated write)",
			ErrCorrupt, path, st.Size(), wantSize)
	}
	var crc uint32
	for off := int64(0); off < wantSize; {
		n, err := f.ReadAt(buf[:min(int64(len(buf)), wantSize-off)], off)
		crc = crc32.Update(crc, crc32.IEEETable, buf[:n])
		if off += int64(n); err != nil && off < wantSize {
			f.Close()
			return nil, fmt.Errorf("store: %s: %w", path, err)
		}
	}
	if crc != wantCRC {
		f.Close()
		return nil, fmt.Errorf("%w: %s checksum %08x, manifest says %08x", ErrCorrupt, path, crc, wantCRC)
	}
	return f, nil
}

// readFences validates a segment's header and loads its fence section —
// the first (maximum) score of every block — checking it descends. The
// fences are the sparse in-memory index: ~2 KB per predicate at n=10^6,
// they bound every block's score range without touching the entries.
func readFences(f *os.File, pred, n, blockEntries int) ([]float64, error) {
	hdr := make([]byte, segmentHeaderSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("%w: segment %d header: %v", ErrCorrupt, pred, err)
	}
	if string(hdr[:magicSize]) != segmentMagic {
		return nil, fmt.Errorf("%w: segment %d bad magic", ErrCorrupt, pred)
	}
	if p := binary.LittleEndian.Uint32(hdr[magicSize:]); int(p) != pred {
		return nil, fmt.Errorf("%w: segment %d header claims predicate %d", ErrCorrupt, pred, p)
	}
	if be := binary.LittleEndian.Uint32(hdr[magicSize+4:]); int(be) != blockEntries {
		return nil, fmt.Errorf("%w: segment %d block size %d, manifest %d", ErrCorrupt, pred, be, blockEntries)
	}
	if c := binary.LittleEndian.Uint64(hdr[magicSize+8:]); int(c) != n {
		return nil, fmt.Errorf("%w: segment %d entry count %d, manifest n=%d", ErrCorrupt, pred, c, n)
	}
	blocks := (n + blockEntries - 1) / blockEntries
	raw := make([]byte, blocks*8)
	if _, err := f.ReadAt(raw, segmentHeaderSize+int64(n)*entrySize); err != nil {
		return nil, fmt.Errorf("%w: segment %d fence section: %v", ErrCorrupt, pred, err)
	}
	fences := make([]float64, blocks)
	prev := math.Inf(1)
	for b := range fences {
		fences[b] = math.Float64frombits(binary.LittleEndian.Uint64(raw[b*8:]))
		if fences[b] > prev || math.IsNaN(fences[b]) {
			return nil, fmt.Errorf("%w: segment %d fences not descending at block %d", ErrCorrupt, pred, b)
		}
		prev = fences[b]
	}
	return fences, nil
}

// Close releases the store's file handles.
func (s *Store) Close() error {
	var first error
	if s.scores != nil {
		if err := s.scores.Close(); err != nil && first == nil {
			first = err
		}
		s.scores = nil
	}
	for i, f := range s.segs {
		if f == nil {
			continue
		}
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
		s.segs[i] = nil
	}
	return first
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Manifest returns a copy of the store's manifest.
func (s *Store) Manifest() Manifest {
	man := s.man
	man.Segments = append([]SegmentInfo(nil), s.man.Segments...)
	return man
}

// Name returns the dataset name recorded at build time.
func (s *Store) Name() string { return s.man.Name }

// N returns the object count.
func (s *Store) N() int { return s.man.N }

// M returns the predicate count.
func (s *Store) M() int { return s.man.M }

// Stats returns a snapshot of the physical counters.
func (s *Store) Stats() Stats {
	return Stats{
		SortedReads: int64(s.sortedReads.Load()),
		RandomReads: int64(s.randomReads.Load()),
		BlockReads:  int64(s.blockReads.Load()),
		BlockHits:   int64(s.blockHits.Load()),
	}
}

// AttachMetrics exposes the physical counters as the topk_store_* series
// of reg. The registry reads them at scrape time, so the access path
// counts each fact once; stores sharing a registry are summed per series,
// so attach each one once.
func (s *Store) AttachMetrics(reg *obs.Registry) {
	reg.CounterFunc("topk_store_sorted_reads_total", "Sorted accesses served by the disk store.", s.sortedReads.Load)
	reg.CounterFunc("topk_store_random_reads_total", "Random-access point reads issued by the disk store (batched probes included).", s.randomReads.Load)
	reg.CounterFunc("topk_store_block_reads_total", "Segment blocks fetched from disk.", s.blockReads.Load)
	reg.CounterFunc("topk_store_block_hits_total", "Sorted accesses served from the decoded-block cache.", s.blockHits.Load)
}

// DropCaches empties the decoded-block cache, so the next sorted access
// on every block pays its disk read again. Calibration's cold mode uses
// it between batches; it cannot evict the OS page cache, which is why
// cold numbers are labeled as such rather than claimed as device-raw.
func (s *Store) DropCaches() {
	if s.cache != nil {
		s.cache.drop()
	}
}

// Page serves sa_pred from rank from out of the segment block holding it,
// through the cache: as much of the rest of that block as buf holds. A hit
// costs a map lookup and a 12-byte decode per entry, a miss one positioned
// block read. The counters count entries, as their help texts say: every
// one consumed is a sorted read, and every one but the entry a block read
// was for is a block hit. Page counts the entry at rank from; a reader
// reports the rest it consumed (Consumed).
//
//topklint:hotpath
func (s *Store) Page(ctx context.Context, pred, from int, buf []access.Entry) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if pred < 0 || pred >= s.man.M || from < 0 || from >= s.man.N {
		return 0, fmt.Errorf("store: Page(pred=%d, from=%d) out of range (n=%d, m=%d)", pred, from, s.man.N, s.man.M)
	}
	blk, off := from/s.blockEntries, from%s.blockEntries
	var raw []byte
	if s.cache != nil {
		raw = s.cache.get(pred, blk)
	}
	hit := uint64(1) // the entry at from, unless a block read was for it
	if raw == nil {
		hit = 0
		var err error
		if raw, err = s.readBlock(pred, blk); err != nil {
			return 0, err
		}
		if s.cache != nil {
			s.cache.put(pred, blk, raw)
		}
	}
	n := min(len(buf), len(raw)/entrySize-off)
	for i := range buf[:n] {
		obj, score := getEntry(raw[(off+i)*entrySize:])
		buf[i] = access.Entry{Obj: int(obj), Score: score}
	}
	s.sortedReads.Add(1)
	s.blockHits.Add(hit)
	return n, nil
}

// Sorted implements access.Backend as a page of one.
func (s *Store) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	return access.Fields(access.SortedAt(ctx, s, pred, rank))
}

// Consumed implements access.ReadAheadCounter: read-ahead was served from a
// block already in memory, so each entry is a sorted read and a block hit.
func (s *Store) Consumed(_, n int) { s.sortedReads.Add(uint64(n)); s.blockHits.Add(uint64(n)) }

// readBlock fetches one segment block from disk.
//
//topklint:allow hotpathalloc miss path: the block buffer is the cache entry being created; hits are allocation-free
func (s *Store) readBlock(pred, blk int) ([]byte, error) {
	first := blk * s.blockEntries
	count := s.man.N - first
	if count > s.blockEntries {
		count = s.blockEntries
	}
	raw := make([]byte, count*entrySize)
	if _, err := s.segs[pred].ReadAt(raw, segmentHeaderSize+int64(first)*entrySize); err != nil {
		return nil, fmt.Errorf("store: segment %d block %d: %w", pred, blk, err)
	}
	s.blockReads.Add(1)
	return raw, nil
}

// Random serves ra_pred(obj) as exactly one 8-byte positioned read into
// the row-major score matrix. No score cache sits in front of it: the
// session forbids repeated probes anyway, so caching here would only
// flatter the measured random cost.
//
//topklint:hotpath
func (s *Store) Random(ctx context.Context, pred, obj int) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if pred < 0 || pred >= s.man.M || obj < 0 || obj >= s.man.N {
		return 0, fmt.Errorf("store: Random(pred=%d, obj=%d) out of range (n=%d, m=%d)", pred, obj, s.man.N, s.man.M)
	}
	s.randomReads.Add(1)
	var buf [8]byte
	off := scoresHeaderSize + (int64(obj)*int64(s.man.M)+int64(pred))*8
	if _, err := s.scores.ReadAt(buf[:], off); err != nil {
		return 0, fmt.Errorf("store: scores read (pred=%d, obj=%d): %w", pred, obj, err)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[:])), nil
}

// BatchRandom resolves a batch of probes in one call, issuing the preads
// in ascending file-offset order so a spinning disk sweeps once instead
// of seeking per probe. It succeeds or fails as a unit, as the
// access.BatchBackend contract asks.
func (s *Store) BatchRandom(ctx context.Context, preds, objs []int) ([]float64, error) {
	if len(preds) != len(objs) {
		return nil, fmt.Errorf("store: BatchRandom got %d preds, %d objs", len(preds), len(objs))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	order := make([]int, len(preds))
	for i := range order {
		order[i] = i
	}
	offset := func(i int) int64 {
		return int64(objs[i])*int64(s.man.M) + int64(preds[i])
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(offset(a), offset(b)) })
	out := make([]float64, len(preds))
	for _, i := range order {
		v, err := s.Random(ctx, preds[i], objs[i])
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// SeekScore returns the rank of the first block whose fence (maximum
// score) is below v — a lower bound on where scores < v can start —
// using only the in-memory fence index. Callers can skip straight past
// blocks that are entirely above v without reading them.
func (s *Store) SeekScore(pred int, v float64) int {
	fences := s.fences[pred]
	lo, hi := 0, len(fences)
	for lo < hi { // first block with fence < v
		mid := (lo + hi) / 2
		if fences[mid] < v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	rank := lo * s.blockEntries
	if rank > s.man.N {
		rank = s.man.N
	}
	return rank
}

// Row reads one object's full score row (one sequential pread).
func (s *Store) Row(obj int, dst []float64) ([]float64, error) {
	if obj < 0 || obj >= s.man.N {
		return nil, fmt.Errorf("store: Row(%d) out of range (n=%d)", obj, s.man.N)
	}
	m := s.man.M
	if cap(dst) < m {
		dst = make([]float64, m)
	}
	dst = dst[:m]
	raw := make([]byte, m*8)
	if _, err := s.scores.ReadAt(raw, scoresHeaderSize+int64(obj)*int64(m)*8); err != nil {
		return nil, fmt.Errorf("store: row %d: %w", obj, err)
	}
	for i := 0; i < m; i++ {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return dst, nil
}
