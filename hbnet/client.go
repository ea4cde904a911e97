package hbnet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/clock"
	"repro/heartbeat"
	"repro/observer"
)

// ErrRejected marks a handshake the server answered and permanently
// refused — an unknown feed, a protocol mismatch — so the client stops
// redialing and Next surfaces it (check with errors.Is). A transient
// server failure (a feed file mid-recreation) is no rejection: the client
// keeps retrying with backoff.
//
//hbvet:api -- user need: tell a permanent refusal from a transient failure with errors.Is (ARCHITECTURE failure rules)
var ErrRejected = errors.New("hbnet: subscription rejected")

// dialTimeout bounds each dial attempt, including the handshake.
const dialTimeout = 5 * time.Second

// ClientOption configures Dial.
type ClientOption func(*Client)

// WithoutReconnect makes a broken connection terminal: Next returns its
// error instead of the client redialing with backoff.
//
//hbvet:api -- user need: a one-shot probe that wants a broken connection to end the stream
func WithoutReconnect() ClientOption {
	return func(c *Client) { c.core.reconnect = false }
}

// WithReconnectBackoff sets the redial pacing: the first retry waits min,
// doubling up to max (defaults 50ms and 2s). Each wait is drawn from
// (0, backoff] on a seed unique to the client, so a fleet that lost one
// server at once spreads its redials instead of stampeding back.
func WithReconnectBackoff(min, max time.Duration) ClientOption {
	return func(c *Client) {
		b := &c.core.pace
		if min > 0 {
			b.min = min
		}
		if max >= b.min {
			b.max = max
		}
	}
}

// jitterSeq varies the seeds of clients made in the same nanosecond.
var jitterSeq atomic.Int64

// Client is a remote heartbeat subscription: the consuming half of an
// hbnet connection. It satisfies observer.Stream (and io.Closer), so it
// plugs into everything the local streams plug into — observer.Hub, Relay,
// and through a Hub's Status every scheduler — none of which can tell that
// the signal crossed a machine boundary.
//
// A background reader decodes at most one frame ahead of the consumer;
// beyond that the stream waits in the socket buffers, so a slow consumer
// backpressures the server and what the producer's ring laps meanwhile
// surfaces as Missed. When the connection breaks, the reader redials from
// the newest cursor it has read (unless WithoutReconnect): the server
// replays what its history retains and counts the rest in Missed, never
// dropped silently, never re-delivered.
//
// Like every Stream, a Client is a single-consumer cursor: calls to Next
// must not overlap. Close may be called from any goroutine.
type Client struct {
	addr   string
	dialer Dialer      // nil = real network
	clk    clock.Clock // nil = wall clock; paces backoff waits
	core   clientCore  // the protocol: dial uses it, then only the reader goroutine

	// recFree recycles decoded record slices (Recycle), which makes the read
	// path allocation-free for consumers like the Relay pump. A bounded free
	// list, not a sync.Pool: the GC empties pools every cycle, and under
	// load every multi-megabyte catch-up batch would be allocated and zeroed
	// afresh.
	recMu   sync.Mutex
	recFree [][]heartbeat.Record

	ctx    context.Context
	cancel context.CancelFunc

	batches chan netMsg
	// readerDone is closed when the reader goroutine exits; termErr then
	// holds what Next reports once the buffer drains (io.EOF when clean).
	readerDone chan struct{}
	termErr    error

	mu   sync.Mutex // guards conn swaps vs Close
	conn net.Conn

	closeOnce sync.Once
	// delivered and missed advance only as Next hands a batch out.
	delivered  atomic.Uint64
	missed     atomic.Uint64
	reconnects atomic.Int64
}

// Dial connects to an hbnet server and subscribes to the named feed from
// the beginning of its retained history. The initial connection and
// handshake are synchronous, so an unreachable server or unknown feed
// fails here rather than on the first Next.
func Dial(addr, feed string, opts ...ClientOption) (*Client, error) {
	return DialFrom(addr, feed, 0, opts...)
}

// DialFrom is Dial resuming after sequence number since (a cursor kept
// across the consumer's restart): the server replays only retained records
// newer than since and counts anything already lapped as Missed.
func DialFrom(addr, feed string, since uint64, opts ...ClientOption) (*Client, error) {
	return dial(addr, feed, since, frameBatch, opts)
}

// DialRollup connects to a rollup feed (Server.PublishRollup, typically a
// Relay's) from its oldest retained emission; consume it with NextRollups.
func DialRollup(addr, feed string, opts ...ClientOption) (*Client, error) {
	return dial(addr, feed, 0, frameRollup, opts)
}

func dial(addr, feed string, since uint64, kind byte, opts []ClientOption) (*Client, error) {
	c := newClient(addr, feed, since, kind, opts)
	conn, err := c.dialOnce()
	if err != nil {
		c.cancel()
		return nil, err
	}
	c.conn = conn
	go c.readLoop(conn)
	return c, nil
}

// newClient builds a client subscribed to feed after since, unconnected.
func newClient(addr, feed string, since uint64, kind byte, opts []ClientOption) *Client {
	ctx, cancel := context.WithCancel(context.Background())
	c := &Client{
		addr: addr,
		core: clientCore{
			feed:      feed,
			kind:      kind,
			wire:      since,
			reconnect: true,
			rng:       rand.New(rand.NewSource(time.Now().UnixNano() ^ jitterSeq.Add(1)<<32)), //hbvet:allow wallclock,clockthread -- jitter seed entropy, not a time read: determinism comes from injecting rng, not clk
			pace:      backoff{min: 50 * time.Millisecond, max: 2 * time.Second},
		},
		ctx:        ctx,
		cancel:     cancel,
		batches:    make(chan netMsg, 1), // one frame of read-ahead (see Client)
		readerDone: make(chan struct{}),
	}
	for _, o := range opts {
		o(c)
	}
	c.core.dials = c.core.pace
	c.delivered.Store(since)
	return c
}

// dialOnce establishes one connection and completes its handshake.
func (c *Client) dialOnce() (net.Conn, error) {
	d := c.dialer
	if d == nil {
		d = &net.Dialer{Timeout: dialTimeout}
	}
	// Bound the dial through the context too, so an injected dialer that
	// blackholes is cut off after dialTimeout just like the real network.
	dctx, cancel := context.WithTimeout(c.ctx, dialTimeout) //hbvet:allow wallclock,clockthread -- deliberate wall bound: cuts off blackholed dialers even when c.clk is virtual and nobody advances it
	defer cancel()
	conn, err := d.DialContext(dctx, "tcp", c.addr)
	if err != nil {
		return nil, fmt.Errorf("hbnet: dial %s: %w", c.addr, err)
	}
	if err := c.handshake(conn); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// handshake sends the core's hello and has the core judge the answer,
// under a deadline on the client's clock (under a virtual clock it is part
// of the simulation).
func (c *Client) handshake(conn net.Conn) error {
	conn.SetDeadline(clock.Now(c.clk).Add(dialTimeout))
	if err := writeFrame(conn, c.core.hello()); err != nil {
		return fmt.Errorf("hbnet: hello: %w", err)
	}
	ftype, body, err := readFrame(conn)
	if err != nil {
		return fmt.Errorf("hbnet: welcome: %w", err)
	}
	if err := c.core.welcome(ftype, body); err != nil {
		return err
	}
	conn.SetDeadline(time.Time{})
	return nil
}

// readLoop drains connections into the batch buffer until the stream ends,
// a terminal error occurs, or the client is closed, redialing as the core
// decides.
func (c *Client) readLoop(conn net.Conn) {
	defer close(c.readerDone)
	for {
		start := clock.Now(c.clk)
		err := c.readConn(conn)
		conn.Close()
		wait, term := c.core.ended(err, clock.Now(c.clk).Sub(start), c.ctx.Err() != nil)
		for term == nil {
			if !clock.SleepCtx(c.ctx, c.clk, wait) {
				term = io.EOF
			} else if conn, err = c.dialOnce(); err == nil {
				break
			} else {
				wait, term = c.core.dialFailed(err)
			}
		}
		if term == nil {
			c.mu.Lock()
			if c.ctx.Err() == nil {
				c.conn = conn // Close cuts the new connection from here on
			} else {
				conn.Close()
			}
			c.mu.Unlock()
		}
		if c.ctx.Err() != nil {
			term = io.EOF // Close raced the end
		}
		if term != nil {
			c.termErr = term
			return
		}
		c.reconnects.Add(1)
	}
}

// readConn forwards batches from one connection until it ends, returning
// why (errFeedEnded for a clean end).
func (c *Client) readConn(conn net.Conn) error {
	var rbuf []byte // reused frame buffer; every decode path copies out of it
	for {
		ftype, body, next, err := readFrameReuse(conn, rbuf, maxFramePayload)
		if err != nil {
			return fmt.Errorf("hbnet: read: %w", err)
		}
		rbuf = next
		var recs []heartbeat.Record
		c.recMu.Lock()
		if n := len(c.recFree); n > 0 {
			recs, c.recFree = c.recFree[n-1], c.recFree[:n-1]
		}
		c.recMu.Unlock()
		nb, err := c.core.frame(ftype, body, recs)
		if err != nil {
			return err
		}
		select {
		case c.batches <- nb:
		case <-c.ctx.Done():
			return fmt.Errorf("hbnet: closed")
		}
	}
}

// Next implements observer.Stream: it blocks until the server pushes
// records, and returns received batches even under an expired ctx. After
// the feed ends or the client is closed, Next drains the buffer and then
// returns io.EOF — or, with WithoutReconnect, the connection's failure; a
// redial the server refuses (errors.Is(err, ErrRejected)) is terminal
// even with reconnect enabled.
func (c *Client) Next(ctx context.Context) (observer.Batch, error) {
	if c.core.kind != frameBatch {
		// ErrRejected: a Relay pump retires the upstream, not retries it.
		return observer.Batch{}, fmt.Errorf("%w: rollup subscription to %q: use NextRollups", ErrRejected, c.core.feed)
	}
	nb, err := c.next(ctx)
	if err != nil {
		return observer.Batch{}, err
	}
	return nb.b, nil
}

// NextRollups is Next for rollup subscriptions (DialRollup), with the same
// drain-then-EOF and reconnect semantics. Missed counts emissions lapped
// before delivery, and accumulates into Missed().
func (c *Client) NextRollups(ctx context.Context) (RollupBatch, error) {
	if c.core.kind != frameRollup {
		return RollupBatch{}, fmt.Errorf("%w: raw subscription to %q: use Next", ErrRejected, c.core.feed)
	}
	nb, err := c.next(ctx)
	if err != nil {
		return RollupBatch{}, err
	}
	return nb.rb, nil
}

func (c *Client) next(ctx context.Context) (netMsg, error) {
	select {
	case nb := <-c.batches:
		return c.deliver(nb), nil
	default:
	}
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case nb := <-c.batches:
		return c.deliver(nb), nil
	case <-c.readerDone:
		// The reader quit; anything it buffered first still wins.
		select {
		case nb := <-c.batches:
			return c.deliver(nb), nil
		default:
			return netMsg{}, c.termErr
		}
	case <-ctx.Done():
		return netMsg{}, ctx.Err()
	}
}

// deliver advances Cursor and Missed as a batch is handed out.
func (c *Client) deliver(nb netMsg) netMsg {
	c.delivered.Store(nb.cursor)
	c.missed.Add(nb.missed)
	return nb
}

// Close disconnects and releases the client; Next then drains what is
// buffered and returns io.EOF. Close is idempotent and goroutine-safe.
func (c *Client) Close() error {
	c.closeOnce.Do(func() {
		c.cancel()
		c.mu.Lock()
		if c.conn != nil {
			c.conn.Close()
		}
		c.mu.Unlock()
	})
	return nil
}

// BatchRecycler is implemented by streams whose delivered batches can be
// handed back for reuse once the consumer is done with them: the Relay's
// merge pump recycles every batch it absorbs, which keeps merging
// allocation-free; consumers that keep a batch's records never call it.
type BatchRecycler interface {
	Recycle(observer.Batch)
}

// Recycle returns a delivered batch's record slice to the client's decode
// pool (BatchRecycler), to be reused by a later decode: only call it once
// done with the batch.
func (c *Client) Recycle(b observer.Batch) {
	if cap(b.Records) == 0 {
		return
	}
	c.recMu.Lock()
	// The channel's depth plus the batch being decoded and the one being
	// consumed: below that the reader allocates while grown slices drop.
	if len(c.recFree) < cap(c.batches)+2 {
		c.recFree = append(c.recFree, b.Records[:0])
	}
	c.recMu.Unlock()
}

// Cursor returns the newest sequence number Next has delivered — the
// resume point a successor process passes to DialFrom. Records read ahead
// but not yet returned are not covered, so a consumer that saves its
// cursor and restarts never skips what it had not processed.
func (c *Client) Cursor() uint64 { return c.delivered.Load() }

// Missed returns the total records reported lapped across the delivered
// batches, including across reconnects.
func (c *Client) Missed() uint64 { return c.missed.Load() }

// Reconnects returns how many times the client has re-established its
// connection.
func (c *Client) Reconnects() int { return int(c.reconnects.Load()) }
