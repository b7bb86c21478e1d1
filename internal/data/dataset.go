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
	"fmt"
	"math"
	"sort"
	"strconv"
)

// Dataset holds n objects with m predicate scores each, all in [0,1].
// Objects are identified by their index 0..n-1 ("OID"). Following the
// paper (Section 3.1) ties in overall score are broken deterministically;
// we adopt the paper's Example 9 convention that the higher OID wins.
type Dataset struct {
	name   string
	scores [][]float64 // scores[obj][column]
	sorted [][]int     // sorted[column] = object ids in descending score order
	labels []string    // optional human-readable object labels
	// cols maps predicate i to its column of scores and sorted; nil is the
	// identity. A projection (Project) is a Dataset sharing its parent's
	// scores and sorted under a different cols.
	cols []int
}

// New constructs a dataset from a score matrix. The matrix is copied.
// It returns an error if the matrix is empty, ragged, or contains scores
// outside [0,1].
func New(name string, scores [][]float64) (*Dataset, error) {
	n := len(scores)
	if n == 0 {
		return nil, fmt.Errorf("data: dataset %q has no objects", name)
	}
	m := len(scores[0])
	if m == 0 {
		return nil, fmt.Errorf("data: dataset %q has no predicates", name)
	}
	cp := make([][]float64, n)
	flat := make([]float64, n*m)
	for u, row := range scores {
		if len(row) != m {
			return nil, fmt.Errorf("data: dataset %q is ragged: object %d has %d scores, want %d", name, u, len(row), m)
		}
		cp[u] = flat[u*m : (u+1)*m : (u+1)*m]
		for i, s := range row {
			if math.IsNaN(s) || s < 0 || s > 1 {
				return nil, fmt.Errorf("data: dataset %q score [%d][%d] = %v outside [0,1]", name, u, i, s)
			}
			cp[u][i] = s
		}
	}
	d := &Dataset{name: name, scores: cp}
	d.buildSorted()
	return d, nil
}

func (d *Dataset) buildSorted() {
	m := len(d.scores[0])
	d.sorted = make([][]int, m)
	for i := 0; i < m; i++ {
		ids := make([]int, d.N())
		for u := range ids {
			ids[u] = u
		}
		pred := i
		sort.SliceStable(ids, func(a, b int) bool {
			sa, sb := d.scores[ids[a]][pred], d.scores[ids[b]][pred]
			if sa != sb {
				return sa > sb
			}
			// Deterministic tie-break within a sorted list: higher OID
			// first, consistent with the overall-score tie-breaker.
			return ids[a] > ids[b]
		})
		d.sorted[i] = ids
	}
}

// Name returns the dataset's name.
func (d *Dataset) Name() string { return d.name }

// N returns the number of objects.
func (d *Dataset) N() int { return len(d.scores) }

// M returns the number of predicates.
func (d *Dataset) M() int {
	if d.cols != nil {
		return len(d.cols)
	}
	return len(d.scores[0])
}

// Score returns p_i[u], the exact score of object u on predicate i.
func (d *Dataset) Score(u, i int) float64 {
	if d.cols != nil {
		i = d.cols[i]
	}
	return d.scores[u][i]
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
	if d.cols == nil {
		return d.scores[u]
	}
	for i, c := range d.cols {
		buf[i] = d.scores[u][c]
	}
	return buf
}

// SortedAt returns the object at the given zero-based rank of predicate
// i's descending sorted list, together with its score.
func (d *Dataset) SortedAt(i, rank int) (obj int, s float64) {
	if d.cols != nil {
		i = d.cols[i]
	}
	obj = d.sorted[i][rank]
	return obj, d.scores[obj][i]
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
// overall scores. It is the single source of truth for tie-breaking.
func Less(scoreA float64, a int, scoreB float64, b int) bool {
	if scoreA != scoreB {
		return scoreA < scoreB
	}
	return a < b
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
	return &Dataset{name: d.name + "/projected", scores: d.scores, sorted: d.sorted, labels: d.labels, cols: mapped}, nil
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
