package hbnet

import (
	"context"
	"net"

	"repro/clock"
)

// Dialer is the client-side transport seam: how a Client (and so a Relay
// upstream) reaches a server. The default is the real network (net.Dialer
// satisfies it); the simulation harness (package simnet) injects an
// in-memory network with a programmable fault schedule. The server needs
// no counterpart: Serve accepts any net.Listener.
type Dialer interface {
	DialContext(ctx context.Context, network, addr string) (net.Conn, error)
}

// WithDialer routes the client's dials (initial and every reconnect)
// through d instead of the real network.
func WithDialer(d Dialer) ClientOption {
	return func(c *Client) { c.dialer = d }
}

// WithClientClock runs the client's time on clk (nil: the wall clock):
// backoff waits, how long a connection lived, and the handshake deadline,
// so under a virtual clock an outage or a hung handshake is a simulation
// event. A deadline on a virtual clock only bounds a transport that reads
// the same clock (simnet's does; a kernel socket reads real time).
func WithClientClock(clk clock.Clock) ClientOption {
	return func(c *Client) { c.clk = clk }
}
