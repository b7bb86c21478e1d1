package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/cluster/clustertest"
	"repro/internal/data"
	"repro/internal/service"
)

// TestRoleChecksComeFirst: topkd refuses contradictory role flags before it
// builds anything — no store is opened or calibrated, no shard dialed, no
// dataset generated or read — so each row returns its role error, never an
// open, dial or database error. A shard that owns no objects is refused
// once its slice is known, before it listens.
func TestRoleChecksComeFirst(t *testing.T) {
	var dialed atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		dialed.Add(1)
		http.Error(w, "not a shard", http.StatusNotFound)
	}))
	defer peer.Close()

	// Object 0 is the only object of a one-object dataset; every other
	// shard of three owns nothing.
	ring, err := cluster.NewRing(3)
	if err != nil {
		t.Fatal(err)
	}
	empty := strconv.Itoa((ring.Owner(0) + 1) % 3)

	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-store", "/nonexistent", "-shard", "0", "-shards", "3"},
			"-shard mode serves an in-memory dataset; it cannot front -store"},
		{[]string{"-store", "/nonexistent", "-shards", "3"},
			"-shard mode serves an in-memory dataset; it cannot front -store"},
		{[]string{"-coordinator", peer.URL, "-shard", "0"},
			"-shard/-shards and -coordinator are different roles; pick one"},
		{[]string{"-coordinator", peer.URL, "-shards", "3", "-shard", "1", "-m", "3"},
			"-shard/-shards and -coordinator are different roles; pick one"},
		{[]string{"-dist", "nosuch", "-shard", "3", "-shards", "3"},
			"-shard index 3 outside [0,3)"},
		{[]string{"-data", "/nonexistent.json", "-shards", "3"},
			"-shard index -1 outside [0,3)"},
		{[]string{"-bench", "q1", "-shard", "0"},
			"-shard requires -shards >= 1"},
		{[]string{"-dist", "uniform", "-n", "1", "-shards", "3", "-shard", empty},
			"shard " + empty + " of 3 owns no objects of uniform(n=1,m=2,seed=1); use fewer shards"},
		{[]string{"-bench", "q1", "-n", "1", "-shards", "3", "-shard", empty},
			"shard " + empty + " of 3 owns no objects of restaurants(n=1,seed=1); use fewer shards"},
	} {
		err := run(append(tc.args, "-addr", "127.0.0.1:0"))
		if err == nil || err.Error() != tc.want {
			t.Errorf("topkd %s: %v, want %q", strings.Join(tc.args, " "), err, tc.want)
		}
	}
	if n := dialed.Load(); n != 0 {
		t.Errorf("a refused role dialed the coordinator's shard %d times", n)
	}
}

// startShards builds the shard nodes topkd -shard i -shards count builds
// from the database flags db, serves each in process and returns their
// URLs as one -coordinator list.
func startShards(t *testing.T, db []string, count int) string {
	t.Helper()
	urls := make([]string, count)
	for i := range urls {
		c, err := parseFlags(append(db, "-shards", strconv.Itoa(count), "-shard", strconv.Itoa(i)))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := buildShard(c)
		if err != nil {
			t.Fatal(err)
		}
		urls[i] = clustertest.Start(t, srv).URL
	}
	return strings.Join(urls, ",")
}

// handlerFromFlags builds the service topkd serves for these flags.
func handlerFromFlags(t *testing.T, args ...string) *service.Handler {
	t.Helper()
	c, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	h, closeDB, err := newHandler(c)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close(); closeDB() })
	return h
}

// post serves one request and returns its body, failing the test on any
// status but 200.
func post(t *testing.T, h http.Handler, path, body string) []byte {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", path, strings.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("POST %s %s: status %d: %s", path, body, w.Code, w.Body)
	}
	return w.Body.Bytes()
}

var cursorField = regexp.MustCompile(`"cursor":"[^"]*"`)

// script runs one-shot queries and a cursor's pages against h, each SQL
// statement written over the given column names, and returns every
// response body with the cursor id masked.
func script(t *testing.T, h http.Handler, cols []string) [][]byte {
	t.Helper()
	sql := func(format string) string {
		args := make([]interface{}, len(cols))
		for i, c := range cols {
			args[i] = c
		}
		return fmt.Sprintf(format, args...)
	}
	all := "%s, %s"
	if len(cols) == 3 {
		all = "%s, %s, %s"
	}
	var bodies [][]byte
	for _, q := range []string{
		sql("select name from db order by min(" + all + ") stop after 10"),
		sql("select name from db order by avg(" + all + ") stop after 10"),
		// A column subset, in reverse order.
		sql("select name from db order by min(%[2]s, %[1]s) stop after 7"),
		sql("select name from db order by avg(%[2]s) stop after 5"),
	} {
		body, _ := json.Marshal(map[string]string{"sql": q})
		bodies = append(bodies, post(t, h, "/query", string(body)))
	}
	body, _ := json.Marshal(map[string]interface{}{"sql": sql("select name from db order by avg(" + all + ") stop after 4"), "cursor": true})
	first := post(t, h, "/query", string(body))
	var open struct{ Cursor string }
	if err := json.Unmarshal(first, &open); err != nil || open.Cursor == "" {
		t.Fatalf("cursor open: %v: %s", err, first)
	}
	bodies = append(bodies, first)
	for _, next := range []string{`"k":4`, `"k":9`, `"close":true`} {
		bodies = append(bodies, post(t, h, "/query/next", `{"cursor":"`+open.Cursor+`",`+next+`}`))
	}
	for i := range bodies {
		bodies[i] = cursorField.ReplaceAll(bodies[i], []byte(`"cursor":"#"`))
	}
	return bodies
}

// relabeled rewrites a response body of a node whose columns are named
// cols into what the coordinator answers with: the generic column names
// p1..pm in the query text and the default label u<id> on every answer.
func relabeled(t *testing.T, body []byte, cols []string) []byte {
	t.Helper()
	var r service.QueryResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("%v: %s", err, body)
	}
	var pairs []string
	for i, c := range genericColumns(len(cols)) {
		pairs = append(pairs, cols[i], c)
	}
	r.Query = strings.NewReplacer(pairs...).Replace(r.Query)
	for i := range r.Items {
		r.Items[i].Label = string(data.AppendDefaultLabel(nil, r.Items[i].Object))
	}
	out, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestShardNodesServeSingleNodeAnswers: three shard nodes built from topkd
// flags, fronted by the coordinator topkd -coordinator builds, answer
// exactly what one topkd node over the same database flags answers —
// one-shot min and avg, a column subset, and a cursor's pages — for a
// synthetic database (drawn row by row) and a travel benchmark (loaded).
// The benchmark's single node names its columns and answers ("rating",
// "restaurant-007") where the coordinator, which holds no labels, says p1
// and u7; its bodies are compared under that renaming.
func TestShardNodesServeSingleNodeAnswers(t *testing.T) {
	for _, tc := range []struct {
		db   []string
		m    int
		cols []string // the single node's column names
	}{
		{[]string{"-dist", "zipf", "-n", "3000", "-m", "3", "-seed", "4"}, 3, []string{"p1", "p2", "p3"}},
		{[]string{"-bench", "q1", "-n", "400", "-seed", "2"}, 2, []string{"rating", "closeness"}},
	} {
		t.Run(tc.db[1], func(t *testing.T) {
			generic := genericColumns(tc.m)
			got := script(t, handlerFromFlags(t, "-coordinator", startShards(t, tc.db, 3), "-m", strconv.Itoa(tc.m)), generic)
			want := script(t, handlerFromFlags(t, tc.db...), tc.cols)
			for i := range want {
				if tc.cols[0] != generic[0] {
					got[i], want[i] = relabeled(t, got[i], generic), relabeled(t, want[i], tc.cols)
				}
				if !bytes.Equal(got[i], want[i]) {
					t.Errorf("exchange %d:\ncoordinator  %s\nsingle node  %s", i, got[i], want[i])
				}
			}
		})
	}
}
