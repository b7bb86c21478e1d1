package websim

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/algo"
	"repro/internal/data"
	"repro/internal/data/datatest"
	"repro/internal/fault"
	"repro/internal/score"
)

func startSource(t *testing.T, ds *data.Dataset, opts ...ServerOption) *httptest.Server {
	t.Helper()
	srv, err := NewServer(ds, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

func TestServerEndpoints(t *testing.T) {
	ds := datatest.MustNew("d", [][]float64{
		{0.6, 0.8},
		{0.65, 0.8},
		{0.7, 0.9},
	})
	ts := startSource(t, ds)
	c, err := NewClient(context.Background(), ts.Client(), []Route{{ts.URL, 0}, {ts.URL, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 3 || c.M() != 2 {
		t.Fatalf("meta = %d, %d", c.N(), c.M())
	}
	obj, sc, err := c.Sorted(context.Background(), 0, 0)
	if err != nil || obj != 2 || sc != 0.7 {
		t.Fatalf("sorted(0,0) = %d, %g, %v", obj, sc, err)
	}
	sc, err = c.Random(context.Background(), 1, 2)
	if err != nil || sc != 0.9 {
		t.Fatalf("random(1,2) = %g, %v", sc, err)
	}
	// Error paths surface the server message.
	if _, _, err := c.Sorted(context.Background(), 0, 99); err == nil || !strings.Contains(err.Error(), "beyond list end") {
		t.Errorf("deep rank error = %v", err)
	}
	if _, err := c.Random(context.Background(), 0, 99); err == nil {
		t.Error("unknown object should fail")
	}
	if _, _, err := c.Sorted(context.Background(), 5, 0); err == nil {
		t.Error("unrouted predicate should fail")
	}
}

func TestServerValidation(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 5, 2, 1)
	if _, err := NewServer(ds, WithPredicates(0, 7)); err == nil {
		t.Error("out-of-range predicate should fail")
	}
}

func TestClientValidation(t *testing.T) {
	a := startSource(t, datatest.MustGenerate(data.Uniform, 5, 2, 1))
	b := startSource(t, datatest.MustGenerate(data.Uniform, 9, 2, 2))
	if _, err := NewClient(context.Background(), nil, nil); err == nil {
		t.Error("empty routes should fail")
	}
	if _, err := NewClient(context.Background(), a.Client(), []Route{{a.URL, 0}, {b.URL, 0}}); err == nil {
		t.Error("mismatched object universes should fail")
	}
	if _, err := NewClient(context.Background(), a.Client(), []Route{{a.URL, 9}}); err == nil {
		t.Error("predicate beyond source arity should fail")
	}
	if _, err := NewClient(context.Background(), a.Client(), []Route{{"http://127.0.0.1:1", 0}}); err == nil {
		t.Error("unreachable source should fail")
	}
	// Two shards of one 5-object universe holding slices of 2 and 3: the
	// same universe, but sorted ranks walk lists of different lengths.
	s1 := startSource(t, datatest.MustNew("s1", [][]float64{{0.1}, {0.2}}), WithShardObjects([]int{0, 1}, 5))
	s2 := startSource(t, datatest.MustNew("s2", [][]float64{{0.3}, {0.4}, {0.5}}), WithShardObjects([]int{2, 3, 4}, 5))
	if _, err := NewClient(context.Background(), s1.Client(), []Route{{s1.URL, 0}, {s2.URL, 0}}); err == nil {
		t.Error("shards of different slice sizes should fail")
	}
}

// TestShardObjectsAscendWithinTheUniverse: a shard server looks its
// objects up by binary search, so it refuses global ids that leave the
// universe, repeat or descend, and serves the ones it holds and no others.
func TestShardObjectsAscendWithinTheUniverse(t *testing.T) {
	ds := datatest.MustNew("three", [][]float64{{0.1}, {0.2}, {0.3}})
	for _, tc := range []struct {
		global []int
		want   string
	}{
		{[]int{1, 4, 9}, "outside universe [0,9)"},
		{[]int{-1, 4, 7}, "outside universe [0,9)"},
		{[]int{1, 4, 4}, "global ids must ascend"},
		{[]int{1, 7, 4}, "global ids must ascend"},
	} {
		if _, err := NewServer(ds, WithShardObjects(tc.global, 9)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("global ids %v: got %v, want %q", tc.global, err, tc.want)
		}
	}
	srv, err := NewServer(ds, WithShardObjects([]int{1, 4, 7}, 9))
	if err != nil {
		t.Fatal(err)
	}
	local := map[int]int{1: 0, 4: 1, 7: 2}
	for g := -1; g <= 9; g++ {
		want, held := local[g]
		if !held {
			want = -1
		}
		if got := srv.localID(g); got != want {
			t.Errorf("localID(%d) = %d, want %d", g, got, want)
		}
	}
}

// TestMultiSourceMiddleware runs the full stack of the paper's Example 1:
// two separate HTTP sources each scoring one predicate (the dineme.com /
// superpages.com split), a session enforcing costs and legality on top of
// the HTTP backend, and Framework NC answering the query — verified
// against the brute-force oracle.
func TestMultiSourceMiddleware(t *testing.T) {
	q, _, err := data.Restaurants(80, 4)
	if err != nil {
		t.Fatal(err)
	}
	ds := q.Dataset
	// Source 1 (dineme analogue) scores rating only; source 2 (superpages
	// analogue) scores closeness only.
	dineme := startSource(t, ds, WithPredicates(0))
	superpages := startSource(t, ds, WithPredicates(1))
	client, err := NewClient(context.Background(), dineme.Client(), []Route{{dineme.URL, 0}, {superpages.URL, 0}})
	if err != nil {
		t.Fatal(err)
	}
	scn := access.Scenario{Name: "example1", Preds: []access.PredCost{
		{Sorted: access.CostOf(0.2), SortedOK: true, Random: access.CostOf(1.0), RandomOK: true},
		{Sorted: access.CostOf(0.1), SortedOK: true, Random: access.CostOf(0.5), RandomOK: true},
	}}
	sess, err := access.NewSession(client, scn)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := algo.NewProblem(score.Min(), 5, sess)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := algo.NewNC([]float64{0.5, 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := alg.Run(prob)
	if err != nil {
		t.Fatal(err)
	}
	oracle := ds.TopK(score.Min().Eval, 5)
	for i, want := range oracle {
		got := score.Min().Eval(ds.Scores(res.Items[i].Obj))
		if math.Abs(got-want.Score) > 1e-9 {
			t.Fatalf("rank %d: got %g want %g", i, got, want.Score)
		}
	}
	// Accesses actually crossed the network and cost real money.
	if res.Cost() <= 0 {
		t.Error("HTTP run accrued no cost")
	}
}

func TestLatencyOption(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 5, 1, 1)
	ts := startSource(t, ds, WithFaults(fault.PredFault{SlowRate: 1, SlowDelay: 30 * time.Millisecond}, 0))
	c, err := NewClient(context.Background(), ts.Client(), []Route{{ts.URL, 0}})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, _, err := c.Sorted(context.Background(), 0, 0); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 25*time.Millisecond {
		t.Errorf("latency option not applied: %v", el)
	}
}

func TestServerRejectsBadParams(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 5, 2, 1)
	ts := startSource(t, ds)
	for _, path := range []string{
		"/sortedpage",                       // missing params
		"/sortedpage?pred=a&rank=0&count=1", // non-numeric
		"/sortedpage?pred=0&count=1",        // missing rank
		"/sortedpage?pred=0&rank=0&count=0", // empty page
		"/sortedpage?pred=0&rank=5&count=1", // rank past the list
		"/random?pred=0",                    // missing obj
		"/random?pred=9&obj=0",              // pred out of range
	} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Errorf("%s should have been rejected", path)
		}
	}
}

// TestServerConcurrentClients hammers one source from many goroutines to
// certify the handler (including failure injection's shared counter) is
// race-free under -race.
func TestServerConcurrentClients(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 50, 2, 31)
	ts := startSource(t, ds, WithFaults(fault.PredFault{ErrorRate: 1.0 / 7}, 7))
	c, err := NewClient(context.Background(), ts.Client(), []Route{{ts.URL, 0}, {ts.URL, 1}},
		WithRetries(5, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, _, err := c.Sorted(context.Background(), g%2, (g*8+i)%50); err != nil {
					errs <- err
				}
				if _, err := c.Random(context.Background(), g%2, (g+i)%50); err != nil {
					errs <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent access failed: %v", err)
	}
}

func TestBatchRandom(t *testing.T) {
	ds := datatest.MustNew("d", [][]float64{
		{0.6, 0.8},
		{0.65, 0.8},
		{0.7, 0.9},
	})
	// Two sources, one predicate each, so the batch splits per server.
	tsA := startSource(t, ds, WithPredicates(0))
	tsB := startSource(t, ds, WithPredicates(1))
	c, err := NewClient(context.Background(), tsA.Client(), []Route{{tsA.URL, 0}, {tsB.URL, 0}})
	if err != nil {
		t.Fatal(err)
	}
	preds := []int{0, 1, 0, 1}
	objs := []int{0, 0, 2, 2}
	scores, err := c.BatchRandom(context.Background(), preds, objs)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.6, 0.8, 0.7, 0.9}
	for i := range want {
		if scores[i] != want[i] {
			t.Errorf("scores[%d] = %g, want %g", i, scores[i], want[i])
		}
	}
	// Length mismatch and out-of-range predicates are rejected client-side.
	if _, err := c.BatchRandom(context.Background(), []int{0}, []int{0, 1}); err == nil {
		t.Error("mismatched lengths should fail")
	}
	if _, err := c.BatchRandom(context.Background(), []int{7}, []int{0}); err == nil {
		t.Error("out-of-range predicate should fail")
	}
	// Unknown objects surface the server's error.
	if _, err := c.BatchRandom(context.Background(), []int{0}, []int{99}); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Errorf("unknown object error = %v", err)
	}
}

func TestBatchEndpointValidation(t *testing.T) {
	ds := datatest.MustNew("d", [][]float64{{0.5}, {0.6}})
	ts := startSource(t, ds)
	post := func(body string) int {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"probes":[]}`); code != http.StatusBadRequest {
		t.Errorf("empty batch status = %d", code)
	}
	if code := post(`not json`); code != http.StatusBadRequest {
		t.Errorf("malformed body status = %d", code)
	}
	if code := post(`{"probes":[{"pred":9,"obj":0}]}`); code != http.StatusBadRequest {
		t.Errorf("bad predicate status = %d", code)
	}
	resp, err := ts.Client().Get(ts.URL + "/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /batch status = %d", resp.StatusCode)
	}
}
