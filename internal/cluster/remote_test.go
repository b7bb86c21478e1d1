package cluster

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/cluster/clustertest"
	"repro/internal/data"
	"repro/internal/websim"
)

// remoteNodes serves every partition of ds from a woundable shard node
// and dials each back as a RemoteShard, closed when the test ends.
func remoteNodes(t testing.TB, ds *data.Dataset, shards int, serverOpts []websim.ServerOption, clientOpts ...websim.ClientOption) ([]*clustertest.Node, []*RemoteShard) {
	t.Helper()
	parts, err := Partition(ds, shards)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*clustertest.Node, len(parts))
	remotes := make([]*RemoteShard, len(parts))
	for i, sd := range parts {
		opts := append([]websim.ServerOption{websim.WithShardObjects(sd.Global, ds.N())}, serverOpts...)
		srv, err := websim.NewServer(sd.Local, opts...)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = clustertest.Start(t, srv)
		if remotes[i], err = DialShard(context.Background(), nodes[i].URL, ds.M(), nil, clientOpts...); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { remotes[i].Close() })
	}
	return nodes, remotes
}

func asShards(remotes []*RemoteShard) []Shard {
	out := make([]Shard, len(remotes))
	for i, r := range remotes {
		out[i] = r
	}
	return out
}

// TestRemoteProbeAllocGate holds the shard wire to what it was built for:
// a probe that crosses to a shard node and back — coordinator, frame
// client, and the shard's frame loop, all in this process — allocates
// next to nothing, and a batch allocates its result, not per probe.
func TestRemoteProbeAllocGate(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("alloc gate needs steady-state measurement on a pool that keeps what it is given")
	}
	ds := uniformDataset(t, 400, 3, 11)
	_, remotes := remoteNodes(t, ds, 3, nil)
	c, err := New(asShards(remotes), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background()) // a context that can be cancelled, as a served query's is
	defer cancel()
	obj := 0
	probe := func() {
		obj = (obj + 7) % ds.N()
		if _, err := c.Random(ctx, obj%ds.M(), obj); err != nil {
			t.Fatal(err)
		}
	}
	probe()
	if got := testing.AllocsPerRun(200, probe); got > 6 {
		t.Errorf("a remote probe allocates %.1f/op, gate is 6", got)
	}

	// One shard's batch: the scores slice, whatever the batch size.
	sh := remotes[0]
	var owned []int
	for u := 0; u < ds.N() && len(owned) < 128; u++ {
		if c.ring.Owner(u) == 0 {
			owned = append(owned, u)
		}
	}
	for _, size := range []int{1, 16, len(owned)} {
		preds, objs := make([]int, size), owned[:size]
		batch := func() {
			if _, err := sh.BatchRandom(ctx, preds, objs); err != nil {
				t.Fatal(err)
			}
		}
		batch()
		if got := testing.AllocsPerRun(100, batch); got > 2 {
			t.Errorf("a remote batch of %d probes allocates %.1f/op, gate is 2", size, got)
		}
	}
}

// TestRemoteCancelMidRoundTrip: a caller that gives up while its frame is
// at the shard gets context.Canceled at once, not after the shard's
// latency, and the connection the reply will still arrive on is closed
// rather than handed to the next access.
func TestRemoteCancelMidRoundTrip(t *testing.T) {
	ds := uniformDataset(t, 40, 2, 5)
	const latency = 200 * time.Millisecond
	nodes, remotes := remoteNodes(t, ds, 1, []websim.ServerOption{websim.WithLatency(latency)})
	node, sh := nodes[0], remotes[0]

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	start := time.Now()
	_, err := sh.Random(ctx, 0, 3)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled probe returned %v, want context.Canceled", err)
	}
	if took := time.Since(start); took >= latency {
		t.Fatalf("cancelled probe returned after %v: it waited out the shard's %v", took, latency)
	}
	waitFor(t, "the abandoned connection to close", func() bool { return node.Open() == 0 })

	// The next access dials afresh and reads its own reply, not the
	// abandoned one's.
	before := node.Accepted()
	got, err := sh.Random(context.Background(), 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if want := ds.Score(7, 1); got != want {
		t.Errorf("probe after a cancelled one: %g, want %g", got, want)
	}
	if node.Accepted() != before+1 {
		t.Errorf("accepted %d connections after the cancel, want a fresh one (%d)", node.Accepted(), before+1)
	}
}

// TestRemoteShardConcurrent: many goroutines share one RemoteShard across
// all four operations; every answer is right and the shard never sees
// more connections than the pool's bound.
func TestRemoteShardConcurrent(t *testing.T) {
	ds := uniformDataset(t, 300, 3, 23)
	nodes, remotes := remoteNodes(t, ds, 1, nil)
	node, sh := nodes[0], remotes[0]
	ctx := context.Background()

	const workers, rounds = 32, 40
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				pred, x := (g+r)%ds.M(), (g*rounds+r*13)%ds.N()
				switch (g + r) % 4 {
				case 0:
					obj, score, err := sh.Sorted(ctx, pred, x)
					wantObj, wantScore := ds.SortedAt(pred, x)
					if err != nil || obj != wantObj || score != wantScore {
						t.Errorf("sorted p%d rank %d = (%d, %g, %v), want (%d, %g)", pred, x, obj, score, err, wantObj, wantScore)
					}
				case 1:
					count := min(9, ds.N()-x)
					page := make([]access.Entry, count)
					n, err := sh.Page(ctx, pred, x, page)
					if err != nil || n != count {
						t.Errorf("page p%d [%d,%d): %d entries, %v", pred, x, x+count, n, err)
						continue
					}
					for i, e := range page {
						if wantObj, wantScore := ds.SortedAt(pred, x+i); e.Obj != wantObj || e.Score != wantScore {
							t.Errorf("page p%d rank %d = %+v, want (%d, %g)", pred, x+i, e, wantObj, wantScore)
						}
					}
				case 2:
					score, err := sh.Random(ctx, pred, x)
					if err != nil || score != ds.Score(x, pred) {
						t.Errorf("random p%d obj %d = (%g, %v), want %g", pred, x, score, err, ds.Score(x, pred))
					}
				case 3:
					preds, objs := []int{pred, (pred + 1) % ds.M(), pred}, []int{x, (x + 1) % ds.N(), (x + 2) % ds.N()}
					scores, err := sh.BatchRandom(ctx, preds, objs)
					if err != nil || len(scores) != len(preds) {
						t.Errorf("batch at obj %d: %d scores, %v", x, len(scores), err)
						continue
					}
					for i := range scores {
						if want := ds.Score(objs[i], preds[i]); scores[i] != want {
							t.Errorf("batch slot %d (p%d obj %d) = %g, want %g", i, preds[i], objs[i], scores[i], want)
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if peak := node.Peak(); peak > 4 {
		t.Errorf("the shard saw %d connections at once, the pool's bound is 4", peak)
	}
	if node.Accepted() > 4 {
		t.Errorf("the shard accepted %d connections in all: a healthy pool dials each of its 4 once", node.Accepted())
	}
}

// TestRemoteShardCloseReleases: Close leaves nothing behind — no
// connection at the shard, no read loop here, no frame loop there — and
// refuses later accesses instead of dialing again.
func TestRemoteShardCloseReleases(t *testing.T) {
	ds := uniformDataset(t, 60, 2, 9)
	baseline := runtime.NumGoroutine()
	nodes, remotes := remoteNodes(t, ds, 1, nil)
	node, sh := nodes[0], remotes[0]

	// Fill the pool: four accesses held open at the shard at once.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				if _, err := sh.Random(context.Background(), 0, (g+r)%ds.N()); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	if node.Open() == 0 {
		t.Fatal("no connection open before Close: nothing to release")
	}

	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "every connection to close at the shard", func() bool { return node.Open() == 0 })
	if _, err := sh.Random(context.Background(), 0, 1); err == nil {
		t.Error("a closed RemoteShard answered a probe")
	}
	if node.Open() != 0 {
		t.Error("a closed RemoteShard dialed again")
	}
	node.Down()
	// The listener's own goroutines are gone with Down; what is left above
	// the baseline would be read loops or frame loops that never ended.
	waitFor(t, "read and frame loops to end", func() bool { return runtime.NumGoroutine() <= baseline })
}

// waitFor polls cond until it holds, failing the test after two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// understate serves a shard's handler with the universe size in its wire
// handshake rewritten to n: a node that announces fewer objects than the
// ids it goes on to serve.
type understate struct {
	http.Handler
	n int
}

func (u understate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	u.Handler.ServeHTTP(understatedWriter{w, u.n}, r)
}

type understatedWriter struct {
	http.ResponseWriter
	n int
}

// Hijack hands the server a buffered writer that edits the handshake; the
// frames that follow are written to the connection itself.
func (w understatedWriter) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	conn, brw, err := w.ResponseWriter.(http.Hijacker).Hijack()
	if err == nil {
		brw.Writer = bufio.NewWriter(understatedConn{conn, w.n})
	}
	return conn, brw, err
}

type understatedConn struct {
	net.Conn
	n int
}

func (c understatedConn) Write(p []byte) (int, error) {
	lie := bytes.Replace(p, []byte(fmt.Sprintf("Topk-N: %d\r\n", c.n+1)), []byte(fmt.Sprintf("Topk-N: %d\r\n", c.n)), 1)
	if _, err := c.Conn.Write(lie); err != nil {
		return 0, err
	}
	return len(p), nil
}

// TestLyingShardObjectOutsideUniverse: a shard that serves an object id
// outside the universe it announced costs the query that access — refused,
// and billed nothing — and nothing else: the id never reaches the session
// state it would have indexed, and the entries before it are billed as
// ever. An in-process shard's stray id gets as far as the session, which
// refuses it as a range violation; a shard node's is stopped at the wire.
func TestLyingShardObjectOutsideUniverse(t *testing.T) {
	ds := uniformDataset(t, 400, 2, 9)
	parts := partitioned(t, ds, 3)
	// Shard 0 serves its fourth-best object on p1 under an id one past the
	// universe.
	stray, _ := parts[0].Local.SortedAt(0, 3)
	parts[0].Global[stray] = ds.N()

	local := make([]Shard, len(parts))
	remote := make([]Shard, len(parts))
	for i, sd := range parts {
		local[i] = NewLocalShard(sd)
		srv, err := websim.NewServer(sd.Local, websim.WithShardObjects(sd.Global, ds.N()+1))
		if err != nil {
			t.Fatal(err)
		}
		node := clustertest.Start(t, understate{srv, ds.N()})
		sh, err := DialShard(context.Background(), node.URL, ds.M(), nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sh.Close() })
		remote[i] = sh
	}
	for _, tc := range []struct {
		name    string
		shards  []Shard
		refused func(error) bool
	}{
		{"in process", local, func(err error) bool {
			var cve *access.ContractViolationError
			return errors.As(err, &cve) && cve.Reason == "range"
		}},
		{"shard nodes", remote, func(err error) bool {
			return strings.Contains(err.Error(), fmt.Sprintf("out-of-universe object %d", ds.N()))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(tc.shards, Options{Prefetch: 2})
			if err != nil {
				t.Fatal(err)
			}
			if c.N() != ds.N() {
				t.Fatalf("coordinator sees a universe of %d, the shards were to announce %d", c.N(), ds.N())
			}
			sess, err := access.NewSession(c, access.Uniform(ds.M(), 1, 1))
			if err != nil {
				t.Fatal(err)
			}
			billed := 0
			for {
				obj, _, err := sess.SortedNext(0)
				if err != nil {
					if !tc.refused(err) {
						t.Fatalf("sa1 at depth %d: got %v, want the stray object refused", billed, err)
					}
					break
				}
				if obj < 0 || obj >= ds.N() {
					t.Fatalf("sa1 returned object %d of a universe of %d", obj, ds.N())
				}
				billed++
			}
			if l := sess.Ledger(); l.TotalAccesses() != billed || l.TotalCost != access.Cost(billed)*access.UnitCost || sess.SortedDepth(0) != billed {
				t.Errorf("ledger after the refusal: %+v at depth %d, want the %d accesses served before it", l, sess.SortedDepth(0), billed)
			}
			if billed == 0 || billed >= ds.N()-1 {
				t.Errorf("%d accesses billed before the refusal, want a few", billed)
			}
		})
	}
}
