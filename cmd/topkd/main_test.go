package main

import (
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/cluster"
	"repro/internal/cluster/clustertest"
	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/websim"
)

// TestCoordinatorWireRetriesReachMetrics: the coordinator topkd builds
// reports its shard wires' retries on the registry it serves. Every node
// cuts its next reply mid-frame; the retry loop absorbs the cut, so the
// query answers exactly and the only trace of the fault is
// topk_source_retries_total on /metrics.
func TestCoordinatorWireRetriesReachMetrics(t *testing.T) {
	const m = 2
	ds, err := data.Generate(data.Uniform, 90, m, 7)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := cluster.Partition(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	var (
		urls  []string
		nodes []*clustertest.Node
	)
	for _, sd := range parts {
		srv, err := websim.NewServer(sd.Local, websim.WithShardObjects(sd.Global, ds.N()))
		if err != nil {
			t.Fatal(err)
		}
		node := clustertest.Start(t, srv)
		nodes, urls = append(nodes, node), append(urls, node.URL)
	}

	reg := obs.NewRegistry()
	coord, err := dialCluster(strings.Join(urls, ","), m, reg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := service.NewHandler(service.Config{
		Cluster:  coord,
		Columns:  genericColumns(m),
		Scenario: access.Uniform(m, 1, 1),
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)

	for _, node := range nodes {
		node.CutNextWrite()
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/query",
		strings.NewReader(`{"sql":"select name from db order by min(p1, p2) stop after 3"}`)))
	if w.Code != 200 || !strings.Contains(w.Body.String(), `"truncated":false`) {
		t.Fatalf("query over cut wires: status %d: %s", w.Code, w.Body)
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	exposition := w.Body.String()
	if !regexp.MustCompile(`(?m)^topk_source_retries_total [1-9]`).MatchString(exposition) {
		t.Errorf("a reply cut mid-frame was retried, but topk_source_retries_total did not move:\n%s", exposition)
	}
	if !strings.Contains(exposition, "topk_source_failures_total 0\n") {
		t.Errorf("an absorbed cut counted as a failed request:\n%s", exposition)
	}
}
