package main

import (
	"cmp"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer was made; Parent is the index of the causing span, or -1
// for a root; Op groups the spans of one operation.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     string `json:"op"`
}

// tracer keeps spans in memory until flush writes them out. The benchmark
// records them from outside the program under test, around its own calls
// into each layer; spans inside the program are a later change.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its index for children to name.
func (t *tracer) add(name, op string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Parent: parent, Op: op})
	return len(t.spans) - 1
}

// begin opens a span now; finish closes it.
func (t *tracer) begin(name, op string, parent int) int {
	now := time.Now()
	return t.add(name, op, parent, now, now)
}

func (t *tracer) finish(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = int64(time.Since(t.epoch))
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// flush writes every span to path as one JSON array.
func (t *tracer) flush(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover. Overlapping children are counted once and
// a child is clipped to its parent.
func selfTimes(spans []span) []int64 {
	children := make([][][2]int64, len(spans))
	for _, s := range spans {
		if s.Parent < 0 || s.Parent >= len(spans) {
			continue
		}
		p := spans[s.Parent]
		if lo, hi := max(s.Start, p.Start), min(s.End, p.End); lo < hi {
			children[s.Parent] = append(children[s.Parent], [2]int64{lo, hi})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		slices.SortFunc(children[i], func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
		coveredTo := s.Start
		for _, c := range children[i] {
			if c[1] > coveredTo {
				self[i] -= c[1] - max(c[0], coveredTo)
				coveredTo = c[1]
			}
		}
	}
	return self
}

// addSample records one traced operation: a client span with the server's
// reported phases laid end to end inside it as children. The server reports
// durations, not offsets, so the phases are centred in the client span; its
// self time — the HTTP and JSON overhead — does not depend on that choice.
func (t *tracer) addSample(workload string, s sample) (root int) {
	op := workload + ": " + s.op.sql
	root = t.add("client.operation", op, -1, s.start, s.start.Add(s.dur))
	var total time.Duration
	for _, p := range s.phases {
		total += seconds(p.Seconds)
	}
	at := s.start.Add(max(0, s.dur-total) / 2)
	for _, p := range s.phases {
		t.add("server."+p.Phase, op, root, at, at.Add(seconds(p.Seconds)))
		at = at.Add(seconds(p.Seconds))
	}
	return root
}

func seconds(s float64) time.Duration { return time.Duration(math.Round(s * float64(time.Second))) }
