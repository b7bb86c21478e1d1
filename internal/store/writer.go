package store

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/data"
)

// Writer builds a store directory by streaming object rows in id order:
// Append(scores) writes object u's row straight to scores.dat, so the
// full score matrix never lives in memory. Finish then builds each
// predicate's sorted segment by re-reading that one column from
// scores.dat — peak memory is a single predicate's (score, id) pairs
// (16 bytes per object), not the n x m matrix plus m sorted views an
// in-memory data.Dataset costs — and commits the manifest last, so a
// crash at any earlier point leaves a directory Open refuses loudly.
type Writer struct {
	dir          string
	name         string
	n, m         int
	genVersion   int
	blockEntries int

	next   int // objects appended so far (= next expected id)
	file   *os.File
	buf    *bufio.Writer
	crc    hash.Hash32
	rowBuf []byte
	done   bool
}

// WriterOptions tunes Create.
type WriterOptions struct {
	// BlockEntries is the sorted-segment block granularity
	// (DefaultBlockEntries when 0).
	BlockEntries int
	// GeneratorVersion records the score-generation procedure that feeds
	// Append (data.GeneratorVersion for synthetic datasets; 0 for
	// externally sourced scores). It is part of the manifest identity the
	// dataset cache keys on.
	GeneratorVersion int
}

// Create opens a writer for a store of n objects and m predicates in dir
// (created if missing; any previous store files there are overwritten on
// Finish). Rows must then be appended in object-id order.
func Create(dir, name string, n, m int, opts WriterOptions) (*Writer, error) {
	if n <= 0 || m <= 0 {
		return nil, fmt.Errorf("store: Create(n=%d, m=%d) requires positive sizes", n, m)
	}
	if n > math.MaxUint32 {
		return nil, fmt.Errorf("store: %d objects exceed the uint32 id space of format v%d", n, FormatVersion)
	}
	be := opts.BlockEntries
	if be <= 0 {
		be = DefaultBlockEntries
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	f, err := os.Create(scoresPath(dir) + ".tmp")
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	w := &Writer{
		dir: dir, name: name, n: n, m: m,
		genVersion:   opts.GeneratorVersion,
		blockEntries: be,
		file:         f,
		buf:          bufio.NewWriterSize(f, 1<<20),
		crc:          crc32.NewIEEE(),
		rowBuf:       make([]byte, m*8),
	}
	hdr := make([]byte, scoresHeaderSize)
	copy(hdr, scoresMagic)
	binary.LittleEndian.PutUint32(hdr[magicSize:], uint32(n))
	binary.LittleEndian.PutUint32(hdr[magicSize+4:], uint32(m))
	if err := w.write(hdr); err != nil {
		w.Abort()
		return nil, err
	}
	return w, nil
}

// write appends to the scores file, folding the bytes into the CRC.
func (w *Writer) write(b []byte) error {
	if _, err := w.buf.Write(b); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	w.crc.Write(b)
	return nil
}

// Append writes the next object's score row. Scores must be in [0,1]
// (NaN rejected), matching the contract every in-memory dataset enforces.
func (w *Writer) Append(scores []float64) error {
	if w.done {
		return fmt.Errorf("store: writer already finished")
	}
	if len(scores) != w.m {
		return fmt.Errorf("store: object %d has %d scores, store has %d predicates", w.next, len(scores), w.m)
	}
	if w.next >= w.n {
		return fmt.Errorf("store: object %d appended beyond declared n=%d", w.next, w.n)
	}
	for i, s := range scores {
		if math.IsNaN(s) || s < 0 || s > 1 {
			return fmt.Errorf("store: object %d score [%d] = %v outside [0,1]", w.next, i, s)
		}
		binary.LittleEndian.PutUint64(w.rowBuf[i*8:], math.Float64bits(s))
	}
	if err := w.write(w.rowBuf); err != nil {
		return err
	}
	w.next++
	return nil
}

// Abort discards the partial build, removing the temporary file.
func (w *Writer) Abort() {
	if w.file != nil {
		w.file.Close()
		os.Remove(w.file.Name())
		w.file = nil
	}
	w.done = true
}

// Finish completes the build: it syncs and publishes scores.dat, sorts
// and writes every predicate segment, and commits the manifest last.
func (w *Writer) Finish() error {
	if w.done {
		return fmt.Errorf("store: writer already finished")
	}
	if w.next != w.n {
		w.Abort()
		return fmt.Errorf("store: %d of %d declared objects appended", w.next, w.n)
	}
	w.done = true
	if err := w.buf.Flush(); err != nil {
		w.Abort()
		return fmt.Errorf("store: %w", err)
	}
	if err := w.file.Sync(); err != nil {
		w.Abort()
		return fmt.Errorf("store: %w", err)
	}
	tmp := w.file.Name()
	if err := w.file.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	w.file = nil
	if err := os.Rename(tmp, scoresPath(w.dir)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	man := Manifest{
		FormatVersion:    FormatVersion,
		GeneratorVersion: w.genVersion,
		Name:             w.name,
		N:                w.n,
		M:                w.m,
		BlockEntries:     w.blockEntries,
		ScoresSize:       scoresSize(w.n, w.m),
		ScoresCRC:        w.crc.Sum32(),
		Segments:         make([]SegmentInfo, w.m),
	}
	for i := 0; i < w.m; i++ {
		crc, err := writeSegment(w.dir, i, w.n, w.m, w.blockEntries)
		if err != nil {
			return err
		}
		man.Segments[i] = SegmentInfo{Size: segmentSize(w.n, w.blockEntries), CRC: crc}
	}
	return writeManifest(w.dir, man)
}

// segEntry is one in-memory (object, score) pair being sorted into a
// segment. 16 bytes; one predicate's worth is the writer's peak memory.
type segEntry struct {
	obj   uint32
	score float64
}

// writeSegment builds predicate pred's descending segment by reading its
// column back from the published scores.dat (one sequential pass), sorting
// by (score desc, id desc) — the tie-break every in-memory sorted view
// uses, so disk and memory serve byte-identical streams — and writing
// header, entries, and the block fence section.
func writeSegment(dir string, pred, n, m, blockEntries int) (uint32, error) {
	col, err := readColumn(dir, pred, n, m)
	if err != nil {
		return 0, err
	}
	sort.Slice(col, func(a, b int) bool {
		if col[a].score != col[b].score {
			return col[a].score > col[b].score
		}
		return col[a].obj > col[b].obj
	})

	path := segmentPath(dir, pred)
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	defer func() {
		if f != nil {
			f.Close()
			os.Remove(path + ".tmp")
		}
	}()
	crc := crc32.NewIEEE()
	buf := bufio.NewWriterSize(io.MultiWriter(f, crc), 1<<20)

	hdr := make([]byte, segmentHeaderSize)
	copy(hdr, segmentMagic)
	binary.LittleEndian.PutUint32(hdr[magicSize:], uint32(pred))
	binary.LittleEndian.PutUint32(hdr[magicSize+4:], uint32(blockEntries))
	binary.LittleEndian.PutUint64(hdr[magicSize+8:], uint64(n))
	if _, err := buf.Write(hdr); err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}

	blocks := (n + blockEntries - 1) / blockEntries
	fences := make([]byte, 0, blocks*8)
	ebuf := make([]byte, entrySize)
	for rank, e := range col {
		if rank%blockEntries == 0 {
			fences = binary.LittleEndian.AppendUint64(fences, math.Float64bits(e.score))
		}
		putEntry(ebuf, e.obj, e.score)
		if _, err := buf.Write(ebuf); err != nil {
			return 0, fmt.Errorf("store: %w", err)
		}
	}
	if _, err := buf.Write(fences); err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	if err := buf.Flush(); err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	if err := f.Sync(); err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		f = nil
		return 0, fmt.Errorf("store: %w", err)
	}
	f = nil
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("store: %w", err)
	}
	return crc.Sum32(), nil
}

// readColumn streams scores.dat once, extracting predicate pred's column.
func readColumn(dir string, pred, n, m int) ([]segEntry, error) {
	f, err := os.Open(scoresPath(dir))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	if _, err := f.Seek(scoresHeaderSize, io.SeekStart); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	r := bufio.NewReaderSize(f, 1<<20)
	row := make([]byte, m*8)
	col := make([]segEntry, n)
	for u := 0; u < n; u++ {
		if _, err := io.ReadFull(r, row); err != nil {
			return nil, fmt.Errorf("store: reading scores row %d: %w", u, err)
		}
		col[u] = segEntry{
			obj:   uint32(u),
			score: math.Float64frombits(binary.LittleEndian.Uint64(row[pred*8:])),
		}
	}
	return col, nil
}

// writeManifest commits the manifest atomically (tmp + sync + rename).
func writeManifest(dir string, man Manifest) error {
	raw, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	path := manifestPath(dir)
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		os.Remove(path + ".tmp")
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path + ".tmp")
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(path + ".tmp")
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(path+".tmp", path); err != nil {
		os.Remove(path + ".tmp")
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// WriteStream builds a complete store in dir from a streaming generator:
// it creates a writer sized (n, m), streams data.Stream's rows straight
// into it, and finishes. The resulting store serves bit-identical scores
// to data.Generate(dist, n, m, seed) — the property the disk-vs-memory
// oracle tests pin — without ever materializing the dataset.
func WriteStream(dir string, dist data.Distribution, n, m int, seed int64, opts WriterOptions) error {
	name := data.GeneratedName(dist, n, m, seed)
	if opts.GeneratorVersion == 0 {
		opts.GeneratorVersion = data.GeneratorVersion
	}
	w, err := Create(dir, name, n, m, opts)
	if err != nil {
		return err
	}
	if err := data.Stream(dist, n, m, seed, func(_ int, scores []float64) error {
		return w.Append(scores)
	}); err != nil {
		w.Abort()
		return err
	}
	return w.Finish()
}

// WriteDataset builds a store in dir from an in-memory dataset (test and
// migration convenience; large datasets should use WriteStream).
func WriteDataset(dir string, ds *data.Dataset, opts WriterOptions) error {
	w, err := Create(dir, ds.Name(), ds.N(), ds.M(), opts)
	if err != nil {
		return err
	}
	row := make([]float64, ds.M())
	for u := 0; u < ds.N(); u++ {
		for i := range row {
			row[i] = ds.Score(u, i)
		}
		if err := w.Append(row); err != nil {
			w.Abort()
			return err
		}
	}
	return w.Finish()
}
