package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"path/filepath"
	"strconv"
)

// FormatVersion identifies the on-disk layout. Any change to the file
// formats below — header widths, entry encoding, fence layout — must bump
// it; Open refuses a store whose manifest names a different version, and
// the CI storage job keys its dataset cache on it so a layout change can
// never serve stale bytes to new code.
const FormatVersion = 1

// DefaultBlockEntries is the number of sorted entries per segment block
// (the unit of sequential IO): 4096 entries x 12 bytes = 48 KiB reads,
// large enough that one block read amortizes the seek over thousands of
// sorted accesses, small enough that a handful of hot blocks per
// predicate fit any cache budget.
const DefaultBlockEntries = 4096

// entrySize is the fixed on-disk size of one sorted-segment entry:
// uint32 object id + float64 score, little-endian.
const entrySize = 12

// Magic strings open every file so a foreign or truncated-at-zero file
// fails loudly instead of decoding garbage.
const (
	scoresMagic  = "TOPKSCR1"
	segmentMagic = "TOPKSEG1"
	magicSize    = 8
)

// scoresHeaderSize is the scores.dat header: magic + uint32 n + uint32 m.
const scoresHeaderSize = magicSize + 4 + 4

// segmentHeaderSize is a segment header: magic + uint32 pred +
// uint32 blockEntries + uint64 entryCount.
const segmentHeaderSize = magicSize + 4 + 4 + 8

// ManifestName is the store directory's manifest file. It is written
// last, after every data file is synced, so its presence certifies a
// complete write: a crash mid-build leaves a directory without a
// manifest, which Open refuses.
const ManifestName = "MANIFEST.json"

// Manifest records the store's identity and the exact byte size and
// CRC-32 of every data file. Open validates both against it, so any torn,
// truncated or flipped file — a crash after the manifest was written, a
// bad copy, a lying disk — surfaces as ErrCorrupt instead of an
// out-of-range read or a wrong score deep inside a query.
type Manifest struct {
	FormatVersion    int           `json:"format_version"`
	GeneratorVersion int           `json:"generator_version,omitempty"`
	Name             string        `json:"name"`
	N                int           `json:"n"`
	M                int           `json:"m"`
	BlockEntries     int           `json:"block_entries"`
	ScoresSize       int64         `json:"scores_size"`
	ScoresCRC        uint32        `json:"scores_crc32"`
	Segments         []SegmentInfo `json:"segments"`
}

// SegmentInfo is one predicate segment's manifest entry.
type SegmentInfo struct {
	Size int64  `json:"size"`
	CRC  uint32 `json:"crc32"`
}

// scoresPath and segmentPath name the data files inside a store dir.
func scoresPath(dir string) string { return filepath.Join(dir, "scores.dat") }

func segmentPath(dir string, pred int) string {
	return filepath.Join(dir, fmt.Sprintf("pred_%03d.seg", pred))
}

func manifestPath(dir string) string { return filepath.Join(dir, ManifestName) }

// segmentSize computes the exact byte size of a segment holding n entries
// at the given block granularity: header + entries + one fence score per
// block. The fence section is written after the entries, so a truncated
// write is always shorter than this and fails the manifest size check.
func segmentSize(n, blockEntries int) int64 {
	blocks := (n + blockEntries - 1) / blockEntries
	return segmentHeaderSize + int64(n)*entrySize + int64(blocks)*8
}

// scoresSize computes the exact byte size of scores.dat.
func scoresSize(n, m int) int64 { return scoresHeaderSize + int64(n)*int64(m)*8 }

// putEntry encodes one sorted entry at buf (12 bytes).
func putEntry(buf []byte, obj uint32, score float64) {
	binary.LittleEndian.PutUint32(buf, obj)
	binary.LittleEndian.PutUint64(buf[4:], math.Float64bits(score))
}

// getEntry decodes one sorted entry from buf.
func getEntry(buf []byte) (obj uint32, score float64) {
	return binary.LittleEndian.Uint32(buf),
		math.Float64frombits(binary.LittleEndian.Uint64(buf[4:]))
}

// QuantizeUnits rounds a measured unit cost (milliseconds per access) to
// two significant figures. Calibrated costs feed the optimizer's scenario
// and, through it, the plan-cache fingerprint; raw medians jitter run to
// run, so quantization is what keeps repeat calibrations keying to the
// same cached plans. Non-positive and non-finite inputs quantize to the
// smallest representable cost so a sub-resolution measurement still
// prices accesses above zero.
func QuantizeUnits(ms float64) float64 {
	const floor = 1e-6 // 1 nanosecond in milliseconds
	if math.IsNaN(ms) || math.IsInf(ms, 0) || ms <= floor {
		return floor
	}
	// Round-trip through a two-significant-figure decimal string rather
	// than multiplying by a power of ten: 41 * 1e-5 is 4.1000000000000005e-4
	// in float64, and that noise would leak into every fingerprint the
	// quantized value is printed into.
	q, err := strconv.ParseFloat(strconv.FormatFloat(ms, 'e', 1, 64), 64)
	if err != nil || q <= floor {
		return floor
	}
	return q
}
