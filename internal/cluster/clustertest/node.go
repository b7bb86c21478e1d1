// Package clustertest runs shard nodes a test can wound: a real HTTP
// server on a loopback port whose connections the test can count, cut
// mid-write, or lose all at once to a restart on the same address — what
// a coordinator's shard wire has to survive, without a second process.
package clustertest

import (
	"net"
	"net/http"
	"sync"
	"testing"
)

// Node is one shard node: handler served on a loopback address that stays
// the node's own across restarts.
type Node struct {
	// URL is the node's base URL.
	URL string

	tb      testing.TB
	handler http.Handler
	addr    string

	mu       sync.Mutex
	srv      *http.Server
	conns    map[*conn]struct{}
	accepted int
	peak     int
	cut      bool
}

// Start serves handler on a fresh loopback port until the test ends.
func Start(tb testing.TB, handler http.Handler) *Node {
	tb.Helper()
	n := &Node{tb: tb, handler: handler, addr: "127.0.0.1:0", conns: map[*conn]struct{}{}}
	n.Up()
	n.URL = "http://" + n.addr
	tb.Cleanup(n.Down)
	return n
}

// Up opens the node's listener: on a port of the system's choosing the
// first time, on that same address ever after. It may be called from any
// goroutine.
func (n *Node) Up() {
	ln, err := net.Listen("tcp", n.addr)
	if err != nil {
		n.tb.Errorf("clustertest: listening on %s: %v", n.addr, err)
		return
	}
	n.addr = ln.Addr().String()
	srv := &http.Server{Handler: n.handler}
	n.mu.Lock()
	n.srv = srv
	n.mu.Unlock()
	go srv.Serve(&listener{Listener: ln, n: n}) //nolint:errcheck // ends with ErrServerClosed at Down
}

// Down closes the listener and every connection accepted through it,
// upgraded ones included: the node's process died. Down on a downed node
// does nothing.
func (n *Node) Down() {
	n.mu.Lock()
	srv := n.srv
	n.srv = nil
	conns := make([]*conn, 0, len(n.conns))
	for c := range n.conns {
		conns = append(conns, c)
	}
	n.mu.Unlock()
	if srv == nil {
		return
	}
	srv.Close()
	for _, c := range conns {
		c.Close()
	}
}

// CutNextWrite makes the node's next write, on whichever connection,
// stop half-way and drop that connection: a reply that ends mid-frame.
func (n *Node) CutNextWrite() {
	n.mu.Lock()
	n.cut = true
	n.mu.Unlock()
}

// Open, Peak and Accepted count the node's connections: open now, the
// most ever open at once, and all ever accepted.
func (n *Node) Open() int     { n.mu.Lock(); defer n.mu.Unlock(); return len(n.conns) }
func (n *Node) Peak() int     { n.mu.Lock(); defer n.mu.Unlock(); return n.peak }
func (n *Node) Accepted() int { n.mu.Lock(); defer n.mu.Unlock(); return n.accepted }

type listener struct {
	net.Listener
	n *Node
}

func (l *listener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	c := &conn{Conn: nc, n: l.n}
	l.n.mu.Lock()
	l.n.conns[c] = struct{}{}
	l.n.accepted++
	l.n.peak = max(l.n.peak, len(l.n.conns))
	l.n.mu.Unlock()
	return c, nil
}

type conn struct {
	net.Conn
	n *Node
}

func (c *conn) Write(p []byte) (int, error) {
	c.n.mu.Lock()
	cut := c.n.cut
	c.n.cut = false
	c.n.mu.Unlock()
	if !cut {
		return c.Conn.Write(p)
	}
	written, _ := c.Conn.Write(p[:len(p)/2])
	c.Close()
	return written, net.ErrClosed
}

func (c *conn) Close() error {
	c.n.mu.Lock()
	delete(c.n.conns, c)
	c.n.mu.Unlock()
	return c.Conn.Close()
}
