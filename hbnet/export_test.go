package hbnet

import "math/rand"

// newTestClient is a raw subscription to feed after since, built but not
// connected, whose backoff jitter draws from a fixed seed: a test drives
// its core, handshake and deliver on one goroutine and gets the same wait
// sequence every run. Production clients seed per client (newClient).
func newTestClient(feed string, since uint64, seed int64, opts ...ClientOption) *Client {
	c := newClient("test", feed, since, frameBatch, opts)
	c.core.rng = rand.New(rand.NewSource(seed))
	return c
}
