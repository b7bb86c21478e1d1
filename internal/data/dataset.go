// Package data provides the database substrate for top-k middleware
// experiments: in-memory datasets of per-predicate scores, synthetic score
// distributions (uniform, gaussian, zipf-skewed, correlated,
// anti-correlated), a brute-force top-k oracle for correctness checks, and
// the paper's travel-agent benchmark generator (restaurants for Query Q1,
// hotels for Query Q2).
//
// A Dataset is immutable after construction. Sorted views (the descending
// per-predicate orders that sorted access walks) are built once and shared.
package data

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
)

// Dataset holds n objects with m predicate scores each, all in [0,1].
// Objects are identified by their index 0..n-1 ("OID"). Following the
// paper (Section 3.1) ties in overall score are broken deterministically;
// we adopt the paper's Example 9 convention that the higher OID wins.
type Dataset struct {
	name   string
	stride int       // scores per stored row
	scores []float64 // row-major: object u's row is scores[u*stride : (u+1)*stride]
	sorted [][]int32 // sorted[column] = object ids in descending score order
	labels []string  // optional human-readable object labels
	// cols maps predicate i to its column of scores and sorted; nil is the
	// identity. A projection (Project) is a Dataset sharing its parent's
	// scores and sorted under a different cols.
	cols []int
}

// New constructs a dataset from a score matrix, copied once into the
// dataset's own rows. It returns an error if the matrix is empty, ragged,
// or contains scores outside [0,1].
func New(name string, scores [][]float64) (*Dataset, error) {
	if len(scores) == 0 {
		return nil, fmt.Errorf("data: dataset %q has no objects", name)
	}
	m := len(scores[0])
	flat := make([]float64, 0, len(scores)*m)
	for u, row := range scores {
		if len(row) != m {
			return nil, fmt.Errorf("data: dataset %q is ragged: object %d has %d scores, want %d", name, u, len(row), m)
		}
		flat = append(flat, row...)
	}
	return FromSlab(name, m, flat)
}

// FromSlab constructs a dataset that owns scores, a row-major slab of m
// scores per object (object u's are scores[u*m : (u+1)*m]), without
// copying it: the caller hands the slab over and must not change it. It
// returns an error if the slab holds no whole row, a partial one, more
// than math.MaxInt32 rows (sorted views hold 32-bit ids), or a score
// outside [0,1].
func FromSlab(name string, m int, scores []float64) (*Dataset, error) {
	if m <= 0 {
		return nil, fmt.Errorf("data: dataset %q has no predicates", name)
	}
	n := len(scores) / m
	switch {
	case n == 0:
		return nil, fmt.Errorf("data: dataset %q has no objects", name)
	case n*m != len(scores):
		return nil, fmt.Errorf("data: dataset %q has %d scores, not whole rows of %d", name, len(scores), m)
	case n > math.MaxInt32:
		return nil, fmt.Errorf("data: dataset %q has %d objects, over the %d a sorted view addresses", name, n, math.MaxInt32)
	}
	for j, s := range scores {
		if math.IsNaN(s) || s < 0 || s > 1 {
			return nil, fmt.Errorf("data: dataset %q score [%d][%d] = %v outside [0,1]", name, j/m, j%m, s)
		}
	}
	d := &Dataset{name: name, stride: m, scores: scores, sorted: make([][]int32, m)}
	ids := make([]int32, n*m)
	for i := range d.sorted {
		view := ids[i*n : (i+1)*n : (i+1)*n]
		for u := range view {
			view[u] = int32(u)
		}
		// A total order, so an unstable sort is exact.
		slices.SortFunc(view, func(a, b int32) int {
			return Descending(scores[int(a)*m+i], a, scores[int(b)*m+i], b)
		})
		d.sorted[i] = view
	}
	return d, nil
}

// Name returns the dataset's name.
func (d *Dataset) Name() string { return d.name }

// N returns the number of objects.
func (d *Dataset) N() int { return len(d.scores) / d.stride }

// M returns the number of predicates.
func (d *Dataset) M() int {
	if d.cols != nil {
		return len(d.cols)
	}
	return d.stride
}

// Score returns p_i[u], the exact score of object u on predicate i.
func (d *Dataset) Score(u, i int) float64 {
	if d.cols != nil {
		i = d.cols[i]
	}
	return d.scores[u*d.stride+i]
}

// Scores returns a copy of object u's score vector.
func (d *Dataset) Scores(u int) []float64 {
	out := make([]float64, d.M())
	copy(out, d.row(u, out))
	return out
}

// row returns object u's score vector: the stored row itself for an
// unprojected dataset, else the projected columns gathered into buf.
func (d *Dataset) row(u int, buf []float64) []float64 {
	row := d.scores[u*d.stride : (u+1)*d.stride]
	if d.cols == nil {
		return row
	}
	for i, c := range d.cols {
		buf[i] = row[c]
	}
	return buf
}

// SortedAt returns the object at the given zero-based rank of predicate
// i's descending sorted list, together with its score.
func (d *Dataset) SortedAt(i, rank int) (obj int, s float64) {
	if d.cols != nil {
		i = d.cols[i]
	}
	obj = int(d.sorted[i][rank])
	return obj, d.scores[obj*d.stride+i]
}

// Label returns the human-readable label of object u, or "u<id>" if none
// was set. Like AttachedLabel it takes a nil dataset.
func (d *Dataset) Label(u int) string {
	if l := d.AttachedLabel(u); l != "" {
		return l
	}
	var b [24]byte
	return string(AppendDefaultLabel(b[:0], u))
}

// AttachedLabel returns the label SetLabels gave object u, or "" when u
// carries the default form — as every object of a nil dataset does, so a
// deployment whose rows live elsewhere names its answers through the same
// two methods.
func (d *Dataset) AttachedLabel(u int) string {
	if d == nil || d.labels == nil {
		return ""
	}
	return d.labels[u]
}

// AppendDefaultLabel appends the label of an object nobody named — "u<id>"
// — to dst. It is the one spelling of the form: datasets without labels
// and deployments whose rows live elsewhere (shards, store files) name
// their answers through it, so they look alike across modes.
func AppendDefaultLabel(dst []byte, u int) []byte {
	return strconv.AppendInt(append(dst, 'u'), int64(u), 10)
}

// SetLabels attaches human-readable labels (copied; may be shorter than N,
// missing entries default). Intended for benchmark generators.
func (d *Dataset) SetLabels(labels []string) {
	d.labels = make([]string, d.N())
	copy(d.labels, labels)
}

// Less reports whether object a ranks strictly below object b under the
// deterministic total order (score desc, then OID desc) for the given
// overall scores. It and Descending, the same order as a comparator, are
// the single source of truth for tie-breaking.
func Less(scoreA float64, a int, scoreB float64, b int) bool {
	if scoreA != scoreB {
		return scoreA < scoreB
	}
	return a < b
}

// Descending compares two entries of a sorted list under that order:
// negative when (scoreA, a) comes first — it scores higher, or ties and
// has the higher id. Every sorted list, in memory or on disk, sorts by it.
func Descending[ID cmp.Ordered](scoreA float64, a ID, scoreB float64, b ID) int {
	if scoreA != scoreB {
		return cmp.Compare(scoreB, scoreA)
	}
	return cmp.Compare(b, a)
}

// LocalID returns the local id of the object with global id g in a slice
// of a dataset whose global ids, indexed by local id, ascend (as
// cluster.Slice makes them), or -1 when the slice does not hold g. It
// binary-searches global: the lookup is the slice's own ids, whatever the
// size of the universe they come from.
func LocalID(global []int, g int) int {
	if local, ok := slices.BinarySearch(global, g); ok {
		return local
	}
	return -1
}

// Project returns a view of d whose predicates are the given columns of d,
// in order (reordering and subsetting; duplicates are rejected since
// duplicate predicates make access bookkeeping ambiguous). The view shares
// d's score matrix and per-column sorted lists — the descending order of a
// column never depended on which other columns sit beside it — so a
// projection costs O(len(cols)) whatever N is. Labels carry over; an
// identity projection returns d itself.
func Project(d *Dataset, cols []int) (*Dataset, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("data: projection needs at least one column")
	}
	m := d.M()
	identity := len(cols) == m
	mapped := make([]int, len(cols))
	for i, c := range cols {
		if c < 0 || c >= m {
			return nil, fmt.Errorf("data: projection column %d out of range [0,%d)", c, m)
		}
		for _, prev := range cols[:i] {
			if prev == c {
				return nil, fmt.Errorf("data: projection repeats column %d", c)
			}
		}
		if c != i {
			identity = false
		}
		mapped[i] = c
		if d.cols != nil {
			mapped[i] = d.cols[c]
		}
	}
	if identity {
		return d, nil
	}
	return &Dataset{name: d.name + "/projected", stride: d.stride, scores: d.scores, sorted: d.sorted, labels: d.labels, cols: mapped}, nil
}

// Ranked is one entry of an oracle ranking.
type Ranked struct {
	Obj   int
	Score float64
}

// TopK computes the exact top-k answer by brute force using the scoring
// function eval (called with each object's full score vector). It is the
// correctness oracle for every middleware algorithm. k is clamped to N.
func (d *Dataset) TopK(eval func([]float64) float64, k int) []Ranked {
	n := d.N()
	if k > n {
		k = n
	}
	all := make([]Ranked, n)
	buf := make([]float64, d.M())
	for u := 0; u < n; u++ {
		all[u] = Ranked{Obj: u, Score: eval(d.row(u, buf))}
	}
	sort.Slice(all, func(a, b int) bool {
		// Descending: b below a.
		return Less(all[b].Score, all[b].Obj, all[a].Score, all[a].Obj)
	})
	return all[:k]
}
