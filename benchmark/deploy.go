package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	topk "repro"
)

// outDir holds everything the benchmark writes: the built topkd, store
// directories, trace.json and results.json. It is relative to the working
// directory, which `go run ./benchmark` fixes at the module root.
const outDir = "benchmark/out"

// buildTopkd compiles cmd/topkd into outDir and returns the binary's path.
func buildTopkd(ctx context.Context) (string, error) {
	bin, err := filepath.Abs(filepath.Join(outDir, "bin", "topkd"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/topkd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/topkd: %w\n%s", err, out)
	}
	return bin, nil
}

// freeAddr reserves a loopback port by binding :0 and releasing it for the
// child to take.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// node is one spawned topkd process.
type node struct {
	cmd    *exec.Cmd
	url    string
	logs   *bytes.Buffer // stdout+stderr; read only after exited closes
	exited chan struct{}
}

func (n *node) pid() int { return n.cmd.Process.Pid }

// stop kills the process and returns once it has been reaped.
func (n *node) stop() {
	_ = n.cmd.Process.Kill() // already-exited is the only failure, and is fine
	<-n.exited
}

// startNode launches topkd on a free port and waits until readyPath
// answers 200. Cancelling ctx kills the process.
func startNode(ctx context.Context, bin, readyPath string, args ...string) (*node, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	n := &node{url: "http://" + addr, logs: new(bytes.Buffer), exited: make(chan struct{})}
	n.cmd = exec.CommandContext(ctx, bin, append(args, "-addr", addr)...)
	n.cmd.Stdout, n.cmd.Stderr = n.logs, n.logs
	if err := n.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		_ = n.cmd.Wait() // the exit status of a killed child carries no news
		close(n.exited)
	}()
	what := "topkd " + strings.Join(args, " ")
	deadline := time.Now().Add(2 * time.Minute)
	for {
		select {
		case <-n.exited:
			return nil, fmt.Errorf("%s exited during start-up:\n%s", what, n.logs)
		default:
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.url+readyPath, nil)
		if err != nil {
			n.stop()
			return nil, err
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return n, nil
			}
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			n.stop()
			return nil, fmt.Errorf("%s not ready (ctx: %v):\n%s", what, ctx.Err(), n.logs)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// deployment is the set of server processes behind one workload.
type deployment struct {
	front *node   // answers /query, /metrics and /debug/pprof
	nodes []*node // every process, front included
	dir   string  // temp dir holding the store and scenario; "" if none
}

// stop kills every process and removes the deployment's files.
func (d *deployment) stop() {
	for _, n := range d.nodes {
		n.stop()
	}
	if d.dir != "" {
		_ = os.RemoveAll(d.dir) // best effort: a leftover only wastes disk under out/
	}
}

// deploy builds what the workload serves (for store_deep, a fresh store and
// the pinned uniform scenario) and launches its topkd processes. On error
// nothing is left running.
func deploy(ctx context.Context, bin string, w workload) (d *deployment, err error) {
	d = &deployment{}
	defer func() {
		if err != nil {
			d.stop()
			d = nil
		}
	}()
	data := []string{"-dist", w.dist, "-n", strconv.Itoa(w.n), "-m", strconv.Itoa(w.m), "-seed", strconv.Itoa(datasetSeed)}
	switch w.deploy {
	case deployMem:
		d.front, err = startNode(ctx, bin, "/healthz", data...)
	case deployStore:
		if d.dir, err = os.MkdirTemp(outDir, "store-"); err != nil {
			return d, err
		}
		store := filepath.Join(d.dir, "store")
		if err = topk.BuildStore(store, w.dist, w.n, w.m, datasetSeed, topk.StoreWriterOptions{}); err != nil {
			return d, err
		}
		// cs=cr=1 on every predicate: plans depend on the seed alone, never
		// on the jitter of topkd's start-up IO calibration.
		scn := filepath.Join(d.dir, "uniform.json")
		var buf bytes.Buffer
		if err = topk.UniformScenario(w.m, 1, 1).WriteJSON(&buf); err != nil {
			return d, err
		}
		if err = os.WriteFile(scn, buf.Bytes(), 0o644); err != nil {
			return d, err
		}
		d.front, err = startNode(ctx, bin, "/healthz", "-store", store, "-scenario", scn)
	case deployCluster:
		urls := make([]string, clusterShards)
		for i := range urls {
			var sh *node
			sh, err = startNode(ctx, bin, "/meta", append(data, "-shards", strconv.Itoa(clusterShards), "-shard", strconv.Itoa(i))...)
			if err != nil {
				return d, err
			}
			d.nodes = append(d.nodes, sh)
			urls[i] = sh.url
		}
		d.front, err = startNode(ctx, bin, "/healthz", "-coordinator", strings.Join(urls, ","), "-m", strconv.Itoa(w.m))
	}
	if err != nil {
		return d, err
	}
	d.nodes = append(d.nodes, d.front)
	return d, nil
}
