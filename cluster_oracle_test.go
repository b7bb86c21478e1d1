package topk

// The scatter-gather oracle: sharding the sources must be invisible to the
// query layer. A 3-shard in-process cluster — the same consistent-hash
// partition topkd's -shard nodes compute — fronted by the coordinator must
// produce byte-identical answers AND a byte-identical access ledger to a
// single-node run over the unsharded dataset, across the Figure-2
// capability matrix, for every algorithm family (fixed-plan NC, TA, MPro),
// with the sharing layer off and on, and with the shards in process or
// behind the shard wire (real shard nodes, dialed back as RemoteShards;
// both match the single node, hence each other). The ledger equality is
// the strong half: the coordinator may prefetch ahead inside shards, but
// what it surfaces to the session — and therefore what the client is
// billed — must match the unsharded source exactly.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/cluster/clustertest"
	"repro/internal/websim"
)

// newTestCluster partitions ds into the given number of in-process shards
// and fronts them with a fresh coordinator.
func newTestCluster(t *testing.T, ds *Dataset, shards int) *cluster.Coordinator {
	t.Helper()
	parts, err := cluster.Partition(ds, shards)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]cluster.Shard, len(parts))
	for i, sd := range parts {
		members[i] = cluster.NewLocalShard(sd)
	}
	coord, err := cluster.New(members, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return coord
}

// newRemoteTestCluster is newTestCluster with the wire in between: every
// partition behind a shard node of its own — exactly what topkd -shard
// serves — dialed back as a RemoteShard. serverOpts (nil = none) gives
// each shard's node its chaos options. The nodes are the test's to wound;
// shards and nodes are released when it ends.
func newRemoteTestCluster(t *testing.T, ds *Dataset, shards int, opts cluster.Options, serverOpts func(shard int) []websim.ServerOption, clientOpts ...websim.ClientOption) (*cluster.Coordinator, []*clustertest.Node) {
	t.Helper()
	parts, err := cluster.Partition(ds, shards)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]cluster.Shard, len(parts))
	nodes := make([]*clustertest.Node, len(parts))
	for i, sd := range parts {
		nodeOpts := []websim.ServerOption{websim.WithShardObjects(sd.Global, ds.N())}
		if serverOpts != nil {
			nodeOpts = append(nodeOpts, serverOpts(i)...)
		}
		srv, err := websim.NewServer(sd.Local, nodeOpts...)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = clustertest.Start(t, srv)
		rs, err := cluster.DialShard(context.Background(), nodes[i].URL, ds.M(), nil, clientOpts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rs.Close() })
		members[i] = rs
	}
	coord, err := cluster.New(members, opts)
	if err != nil {
		t.Fatal(err)
	}
	return coord, nodes
}

func TestClusterScatterGatherOracle(t *testing.T) {
	const (
		n      = 120
		m      = 2
		k      = 6
		shards = 3
	)
	ds := mustGenerateDataset(t, "uniform", n, m, 31)
	// Each variant is one way to put the cluster under the query: the
	// scoring function, the sharing layer above the coordinator, and
	// whether the shards are in this process or behind the shard wire.
	variants := []struct {
		suffix          string
		f               ScoreFunc
		sharing, remote bool
	}{
		{"", Min(), false, false},
		{"/shared", Min(), true, false},
		{"/avg", Avg(), false, false},
		{"/remote", Min(), false, true},
		{"/avg/remote", Avg(), false, true},
	}

	completed, remoteCompleted := 0, 0
	for _, cell := range figure2Cells(m, 10) {
		for _, alg := range cursorOracleAlgos() {
			for _, v := range variants {
				t.Run(fmt.Sprintf("%s/%s%s", cell.name, alg.name, v.suffix), func(t *testing.T) {
					opts := alg.opts(m)
					q := Query{F: v.f, K: k}

					// Single-node oracle over the unsharded dataset.
					singleEng, err := NewEngine(matrixBackend(ds, v.sharing, nil), cell.scn)
					if err != nil {
						t.Skip("cell has no legal access")
					}
					single, err := singleEng.Run(q, opts...)
					if err != nil {
						t.Skipf("cell denies an access %s requires: %v", alg.name, err)
					}

					// The same query through a 3-shard scatter-gather
					// cluster. When sharing is on the layer sits above the
					// coordinator, exactly as the service composes it.
					newBackend := func() Backend {
						var backend Backend = newTestCluster(t, ds, shards)
						if v.remote {
							backend, _ = newRemoteTestCluster(t, ds, shards, cluster.Options{}, nil)
						}
						if v.sharing {
							backend = NewSharedAccess(backend, SharingOptions{})
						}
						return backend
					}
					clusterEng, err := NewEngine(newBackend(), cell.scn)
					if err != nil {
						t.Fatal(err)
					}
					got, err := clusterEng.Run(q, opts...)
					if err != nil {
						t.Fatalf("single-node run succeeded, cluster failed: %v", err)
					}

					if !reflect.DeepEqual(got.Items, single.Items) {
						t.Errorf("cluster answers diverge from single-node:\n cluster %v\n single  %v", got.Items, single.Items)
					}
					if !reflect.DeepEqual(got.Ledger, single.Ledger) {
						t.Errorf("cluster ledger diverges from single-node:\n cluster %+v\n single  %+v", got.Ledger, single.Ledger)
					}
					if got.Truncated != single.Truncated || !reflect.DeepEqual(got.Degraded, single.Degraded) {
						t.Errorf("cluster flags (trunc=%v degr=%v) diverge from single-node (trunc=%v degr=%v)",
							got.Truncated, got.Degraded, single.Truncated, single.Degraded)
					}
					assertExactTopK(t, ds, q.F, k, got)
					completed++
					if !v.remote {
						return
					}

					// Over the wire the paged execution must match too:
					// Open, two pages, Close against a fresh remote cluster
					// is the one-shot run, item for item and access for
					// access — scores cross as float64 bits, not as text.
					pagedEng, err := NewEngine(newBackend(), cell.scn)
					if err != nil {
						t.Fatal(err)
					}
					cur, err := pagedEng.Open(Query{F: v.f, K: k / 2}, opts...)
					if err != nil {
						t.Fatal(err)
					}
					defer cur.Close()
					first, err := cur.Next(k / 2)
					if err != nil {
						t.Fatal(err)
					}
					second, err := cur.Next(k - k/2)
					if err != nil {
						t.Fatal(err)
					}
					if paged := append(append([]Item(nil), first.Items...), second.Items...); !reflect.DeepEqual(paged, single.Items) {
						t.Errorf("remote pages diverge from single-node:\n pages  %v\n single %v", paged, single.Items)
					}
					if !reflect.DeepEqual(second.Ledger, single.Ledger) {
						t.Errorf("remote paged ledger diverges from single-node:\n pages  %+v\n single %+v", second.Ledger, single.Ledger)
					}
					remoteCompleted++
				})
			}
		}
	}
	// The sweep must exercise the property across the matrix, not skip its
	// way to vacuous success.
	if completed < 15 || remoteCompleted < 10 {
		t.Fatalf("only %d cell/algorithm combinations completed, %d of them over the wire", completed, remoteCompleted)
	}
}

// TestClusterShardCountInvariance pins the partition-independence half of
// the contract: for any shard count the coordinator must surface the same
// global access order, so the answers and the bill cannot depend on how
// many nodes the data happens to live on.
func TestClusterShardCountInvariance(t *testing.T) {
	const (
		n = 90
		m = 3
		k = 5
	)
	ds := mustGenerateDataset(t, "zipf", n, m, 17)
	q := Query{F: Avg(), K: k}
	scn := UniformScenario(m, 1, 4)

	var ref *Answer
	for _, shards := range []int{1, 2, 3, 5} {
		eng, err := NewEngine(newTestCluster(t, ds, shards), scn)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := eng.Run(q, WithNC([]float64{0.6, 0.6, 0.6}, nil))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if ref == nil {
			ref = ans
			assertExactTopK(t, ds, q.F, k, ans)
			continue
		}
		if !reflect.DeepEqual(ans.Items, ref.Items) {
			t.Errorf("shards=%d answers diverge: %v vs %v", shards, ans.Items, ref.Items)
		}
		if !reflect.DeepEqual(ans.Ledger, ref.Ledger) {
			t.Errorf("shards=%d ledger diverges: %+v vs %+v", shards, ans.Ledger, ref.Ledger)
		}
	}
}
