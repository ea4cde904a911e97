package hbnet

import (
	"context"
	"net"

	"repro/clock"
)

// Dialer is the client-side transport seam: how a Client (and therefore a
// Relay upstream) reaches a server. The default is the real network
// (net.Dialer, which satisfies this interface); the deterministic
// simulation harness (package simnet) injects an in-memory implementation
// with a programmable fault schedule — partitions, link cuts, listener
// outages — so the reconnect/resume machinery is exercised without a
// socket in sight. The server side needs no counterpart seam: Serve
// already accepts any net.Listener.
type Dialer interface {
	DialContext(ctx context.Context, network, addr string) (net.Conn, error)
}

// WithDialer routes the client's dials (initial and every reconnect)
// through d instead of the real network.
func WithDialer(d Dialer) ClientOption {
	return func(c *Client) { c.dialer = d }
}

// WithClientClock runs the client's time on clk: reconnect backoff waits,
// the connection-survival measurement that paces immediately-dying
// connections, and the dial/handshake deadline all follow clk, so a
// virtual clock makes an outage window — and a hung handshake — a
// simulation event instead of a host sleep. A nil clk is the wall clock.
// Deadlines computed on a virtual clock only bound connections whose
// transport evaluates them on the same clock (simnet does; a kernel
// socket checks them against real time).
func WithClientClock(clk clock.Clock) ClientOption {
	return func(c *Client) { c.clk = clk }
}
