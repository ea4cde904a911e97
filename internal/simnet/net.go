// Package simnet is the deterministic whole-stack simulation harness: an
// in-memory network with a programmable fault schedule, driven under
// virtual time (a clock.Virtual behind every clock.Clock), so the entire
// heartbeat pipeline — producers, hbfile tails, hbnet servers, clients,
// relay trees, observer hubs, schedulers — runs end to end with no real
// socket, no real sleep, and thousands of simulated seconds per real
// second. The scenario matrix (scenario.go) generates seeded fault
// scenarios over it and checks the delivery contract with
// internal/simcheck: the same invariants the live TCP/file/process tests
// assert, machine-checked across hundreds of simulated ugly cases per CI
// run.
package simnet

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/clock"
)

// Network is an in-memory substitute for the real network. Addresses are
// plain strings; listeners bind them (Listen), hosts dial them (Host /
// DialContext — inject into hbnet via hbnet.WithDialer). Faults are
// programmed per link, where a link is the unordered {host, address} pair:
// latency, partitions, one-shot cuts, and byte-count-triggered drops; a
// listener can also be taken down without releasing its address.
//
// All methods are safe for concurrent use.
type Network struct {
	clk clock.Clock // paces latency delivery; nil = wall clock

	mu        sync.Mutex
	listeners map[string]*listener
	links     map[linkKey]*link
}

// New creates an empty network. clk paces per-link latency delivery (use
// the simulation's clock); nil is the wall clock, which with zero
// latencies never waits at all.
func New(clk clock.Clock) *Network {
	return &Network{
		clk:       clk,
		listeners: make(map[string]*listener),
		links:     make(map[linkKey]*link),
	}
}

// linkKey identifies the unordered pair of endpoint names.
type linkKey struct{ lo, hi string }

func keyFor(a, b string) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

// link carries the programmable fault state of one endpoint pair and the
// live connections crossing it.
type link struct {
	partitioned bool
	latency     time.Duration
	wlimit      int   // > 0: per-direction pending-byte bound; writers past it block
	cutAfter    int64 // >= 0: sever the conn that writes past this many more bytes, then disarm
	armed       bool
	conns       map[*conn]struct{}
}

func (n *Network) linkFor(a, b string) *link {
	k := keyFor(a, b)
	l, ok := n.links[k]
	if !ok {
		l = &link{cutAfter: -1, conns: make(map[*conn]struct{})}
		n.links[k] = l
	}
	return l
}

// SetLatency sets the one-way delivery latency of the link between a and b
// (both directions). Latency elapses on the network's clock: under a
// virtual clock a delayed byte arrives when the simulation reaches its
// delivery time.
func (n *Network) SetLatency(a, b string, d time.Duration) {
	n.mu.Lock()
	n.linkFor(a, b).latency = d
	n.mu.Unlock()
}

// Partition severs every live connection between a and b and refuses new
// dials in both directions until Heal. Dial attempts fail with an ordinary
// (retriable) error, the way an unreachable host does.
func (n *Network) Partition(a, b string) {
	n.mu.Lock()
	l := n.linkFor(a, b)
	l.partitioned = true
	conns := snapshotConns(l)
	n.mu.Unlock()
	severAll(conns)
}

// Heal reopens the link between a and b.
func (n *Network) Heal(a, b string) {
	n.mu.Lock()
	n.linkFor(a, b).partitioned = false
	n.mu.Unlock()
}

// CutLink severs every live connection between a and b once — a link blip.
// New dials succeed immediately, so a reconnecting client resumes as fast
// as its backoff allows.
func (n *Network) CutLink(a, b string) {
	n.mu.Lock()
	conns := snapshotConns(n.linkFor(a, b))
	n.mu.Unlock()
	severAll(conns)
}

// DropAfterBytes arms a one-shot byte trigger on the link between a and b:
// the connection that carries the link's total traffic past nbytes more
// bytes (in either direction) is severed mid-stream, and the trigger
// disarms. This is how a scenario injects "the connection died at byte N"
// — e.g. inside a frame — deterministically.
func (n *Network) DropAfterBytes(a, b string, nbytes int64) {
	n.mu.Lock()
	l := n.linkFor(a, b)
	l.cutAfter = nbytes
	l.armed = true
	n.mu.Unlock()
}

// SetWriteLimit bounds the pending (undelivered) bytes of each direction
// of the link between a and b; 0, the default, is unbounded. A writer past
// the bound blocks until the reader drains — the way a full kernel socket
// buffer backpressures a sender — honoring its write deadline on the
// network's clock. This is how a scenario makes a stalled subscriber
// deterministically trip a server's write timeout.
func (n *Network) SetWriteLimit(a, b string, bytes int) {
	n.mu.Lock()
	n.linkFor(a, b).wlimit = bytes
	n.mu.Unlock()
}

// SetListenerDown marks the listener at addr down (dials are refused with
// a retriable error) or back up. Existing connections survive — this is a
// listener outage, not a process crash; for the latter, close the server,
// which closes its listener and connections itself.
func (n *Network) SetListenerDown(addr string, down bool) {
	n.mu.Lock()
	if ln := n.listeners[addr]; ln != nil {
		ln.down.Store(down)
	}
	n.mu.Unlock()
}

func snapshotConns(l *link) []*conn {
	out := make([]*conn, 0, len(l.conns))
	for c := range l.conns {
		out = append(out, c)
	}
	return out
}

func severAll(conns []*conn) {
	for _, c := range conns {
		c.sever(errSevered)
	}
}

var errSevered = fmt.Errorf("simnet: connection severed by fault injection")

// addr is the trivial net.Addr of a simnet endpoint.
type addr string

func (a addr) Network() string { return "simnet" }
func (a addr) String() string  { return string(a) }

// listener implements net.Listener over an in-memory accept queue.
type listener struct {
	nw      *Network
	name    string
	backlog chan *conn
	done    chan struct{}
	once    sync.Once
	down    atomic.Bool
}

// Listen binds addr. Binding an address with a live listener fails;
// re-binding after Close succeeds, which is how a crashed-and-restarted
// server reclaims its address.
func (n *Network) Listen(address string) (net.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, live := n.listeners[address]; live {
		return nil, fmt.Errorf("simnet: address %q already bound", address)
	}
	ln := &listener{
		nw:      n,
		name:    address,
		backlog: make(chan *conn, 64),
		done:    make(chan struct{}),
	}
	n.listeners[address] = ln
	return ln, nil
}

func (ln *listener) Accept() (net.Conn, error) {
	select {
	case c := <-ln.backlog:
		return c, nil
	case <-ln.done:
		return nil, net.ErrClosed
	}
}

func (ln *listener) Close() error {
	ln.once.Do(func() {
		close(ln.done)
		ln.nw.mu.Lock()
		if ln.nw.listeners[ln.name] == ln {
			delete(ln.nw.listeners, ln.name)
		}
		ln.nw.mu.Unlock()
	})
	return nil
}

func (ln *listener) Addr() net.Addr { return addr(ln.name) }

// Host returns a named dialing endpoint. The name identifies the host's
// side of every link it dials over, which is what the fault schedule keys
// on; it satisfies hbnet.Dialer.
func (n *Network) Host(name string) *Host { return &Host{nw: n, name: name} }

// Host is a dialing endpoint of the network.
type Host struct {
	nw   *Network
	name string
}

// DialContext connects to address over the in-memory network, honoring the
// link's fault state. The network argument is ignored (everything is
// "simnet"). Failures are ordinary retriable errors — exactly what a
// reconnecting hbnet client expects from an unreachable host.
func (h *Host) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	h.nw.mu.Lock()
	ln := h.nw.listeners[address]
	l := h.nw.linkFor(h.name, address)
	if l.partitioned {
		h.nw.mu.Unlock()
		return nil, fmt.Errorf("simnet: dial %s->%s: network partitioned", h.name, address)
	}
	if ln == nil || ln.down.Load() {
		h.nw.mu.Unlock()
		return nil, fmt.Errorf("simnet: dial %s->%s: connection refused", h.name, address)
	}
	client, server := h.nw.newConnPair(l, h.name, address)
	h.nw.mu.Unlock()

	select {
	case ln.backlog <- server:
		return client, nil
	case <-ln.done:
		client.sever(net.ErrClosed)
		return nil, fmt.Errorf("simnet: dial %s->%s: connection refused", h.name, address)
	case <-ctx.Done():
		client.sever(ctx.Err())
		return nil, ctx.Err()
	}
}

// newConnPair builds the two endpoints of one connection over l. Callers
// hold n.mu.
func (n *Network) newConnPair(l *link, clientName, serverName string) (client, server *conn) {
	ab := newPipeBuf() // client → server
	ba := newPipeBuf() // server → client
	client = &conn{nw: n, link: l, local: addr(clientName), remote: addr(serverName), rd: ba, wr: ab}
	server = &conn{nw: n, link: l, local: addr(serverName), remote: addr(clientName), rd: ab, wr: ba}
	client.peer, server.peer = server, client
	l.conns[client] = struct{}{}
	l.conns[server] = struct{}{}
	return client, server
}
