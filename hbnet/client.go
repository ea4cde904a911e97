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
// refused — an unknown feed, a protocol mismatch. Retrying cannot help
// until the operator intervenes, so the reconnect loop stops and Next
// surfaces the error (check with errors.Is). Transient server-side
// failures (a feed file mid-recreation) are NOT rejections: the server
// flags them as such and the client keeps retrying with backoff.
//
//hbvet:api -- user need: tell a permanent refusal from a transient failure with errors.Is (ARCHITECTURE failure rules)
var ErrRejected = errors.New("hbnet: subscription rejected")

// dialTimeout bounds each dial attempt, including the handshake.
const dialTimeout = 5 * time.Second

// ClientOption configures Dial.
type ClientOption func(*Client)

// WithoutReconnect makes a broken connection terminal: Next returns the
// connection error instead of redialing. The default is to reconnect with
// capped exponential backoff, resuming from the last delivered cursor.
//
//hbvet:api -- user need: a one-shot probe that wants a broken connection to end the stream
func WithoutReconnect() ClientOption {
	return func(c *Client) { c.reconnect = false }
}

// WithReconnectBackoff sets the redial pacing: the first retry waits min,
// doubling up to max. The defaults are 50ms and 2s.
func WithReconnectBackoff(min, max time.Duration) ClientOption {
	return func(c *Client) {
		if min > 0 {
			c.backoffMin = min
		}
		if max >= c.backoffMin {
			c.backoffMax = max
		}
	}
}

// WithReconnectJitterSeed seeds the client's backoff jitter (the default
// seed is process-unique per client). Every backoff wait is drawn
// uniformly from (0, backoff] — full jitter — so a fleet of clients that
// lost the same server at the same instant spreads its redials across the
// whole backoff window instead of stampeding back in lockstep. A fixed
// seed makes a test's wait sequence reproducible.
//
//hbvet:api -- user need: a test substitutes a fixed jitter seed for a reproducible backoff sequence
func WithReconnectJitterSeed(seed int64) ClientOption {
	return func(c *Client) { c.rng = rand.New(rand.NewSource(seed)) }
}

// jitterSeq varies the default jitter seeds of clients created in the same
// nanosecond — the stampede case the jitter exists for.
var jitterSeq atomic.Int64

// Client is a remote heartbeat subscription: the consuming half of an
// hbnet connection. It satisfies observer.Stream (and io.Closer), so it
// plugs into everything the local streams plug into — observer.Hub and
// Relay, and through a Hub's Status every scheduler — which is the point:
// a scheduler does not know or care that its signal crosses a machine
// boundary.
//
// A background reader decodes at most one frame ahead of the consumer: one
// decoded batch waits for Next while the next frame is read and decoded.
// Beyond that the stream waits in the socket buffers, held back by TCP flow
// control in kernel memory rather than as decoded records on the heap; a
// consumer slower than the producer for long backpressures the server, and
// any records the producer's ring laps meanwhile surface as Missed. When the
// connection breaks, the reader redials with the last delivered cursor
// (unless WithoutReconnect) — the server replays what the history still
// retains and the gap, if any, is counted in Missed, never silently dropped
// and never re-delivered.
//
// Like every Stream, a Client is a single-consumer cursor: calls to Next
// must not overlap. Close may be called from any goroutine.
type Client struct {
	addr, feed string
	backoffMin time.Duration
	backoffMax time.Duration
	reconnect  bool
	dialer     Dialer      // nil = real network
	clk        clock.Clock // nil = wall clock; paces backoff waits
	rng        *rand.Rand  // backoff jitter; used only by the reader goroutine

	// recFree recycles decoded record slices (Recycle): consumers that are
	// done with a batch before the next Next — the Relay merge pump — make
	// the whole read path allocation-free. A bounded free list, not a
	// sync.Pool: the GC empties pools every cycle, and under load that
	// turns every multi-megabyte catch-up batch into a fresh allocation
	// plus a zeroing pass — exactly the cost recycling exists to remove.
	recMu   sync.Mutex
	recFree [][]heartbeat.Record

	// kind is the frame type this subscription expects: frameBatch for raw
	// record feeds (Dial), frameRollup for rollup feeds (DialRollup).
	kind byte

	ctx    context.Context
	cancel context.CancelFunc

	batches chan netMsg
	// readerDone is closed when the reader goroutine exits; termErr then
	// holds the terminal error Next reports once the buffer drains.
	readerDone chan struct{}
	termErr    error

	mu   sync.Mutex // guards conn swaps vs Close
	conn net.Conn

	closeOnce sync.Once
	// wireCursor tracks the newest sequence number read off the wire —
	// the redial resume point (batches between it and the delivered
	// cursor sit safely in the buffer, so a reconnect must not re-request
	// them). delivered and missed advance only when Next hands a batch to
	// the consumer, so Cursor()/Missed() never run ahead of what the
	// consumer has actually seen.
	wireCursor atomic.Uint64
	delivered  atomic.Uint64
	missed     atomic.Uint64
	reconnects atomic.Int64
}

// netMsg is one decoded delivery: a raw batch or a rollup batch (per the
// client's kind), paired with the server cursor after it.
type netMsg struct {
	b      observer.Batch
	rb     RollupBatch
	cursor uint64
}

// Dial connects to an hbnet server and subscribes to the named feed from
// the beginning of its retained history. The initial connection and
// handshake are synchronous, so an unreachable server or unknown feed
// fails here rather than on the first Next.
func Dial(addr, feed string, opts ...ClientOption) (*Client, error) {
	return DialFrom(addr, feed, 0, opts...)
}

// DialFrom is Dial resuming after sequence number since: the server
// replays only retained records newer than since, counting anything
// already lapped as Missed — how a consumer that kept its cursor across
// its own restart avoids re-processing records it has seen.
func DialFrom(addr, feed string, since uint64, opts ...ClientOption) (*Client, error) {
	return dial(addr, feed, since, frameBatch, opts)
}

// DialRollup connects to a rollup feed (Server.PublishRollup — typically a
// Relay's downsampled export) from the beginning of its retained
// emissions. Consume it with NextRollups; Next is for raw feeds and
// errors on a rollup subscription.
func DialRollup(addr, feed string, opts ...ClientOption) (*Client, error) {
	return dial(addr, feed, 0, frameRollup, opts)
}

func dial(addr, feed string, since uint64, kind byte, opts []ClientOption) (*Client, error) {
	ctx, cancel := context.WithCancel(context.Background())
	c := &Client{
		addr:       addr,
		feed:       feed,
		kind:       kind,
		backoffMin: 50 * time.Millisecond,
		backoffMax: 2 * time.Second,
		reconnect:  true,
		ctx:        ctx,
		cancel:     cancel,
		batches:    make(chan netMsg, 1), // one frame of read-ahead (see Client)
		readerDone: make(chan struct{}),
	}
	for _, o := range opts {
		o(c)
	}
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(time.Now().UnixNano() ^ jitterSeq.Add(1)<<32)) //hbvet:allow wallclock,clockthread -- jitter seed entropy, not a time read: determinism comes from injecting rng, not clk
	}
	c.wireCursor.Store(since)
	c.delivered.Store(since)
	conn, err := c.dialOnce()
	if err != nil {
		cancel()
		return nil, err
	}
	c.conn = conn
	go c.readLoop(conn)
	return c, nil
}

// dialOnce establishes one connection and completes the handshake from the
// current cursor.
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
	// On the client's clock, not the wall's: under a virtual clock the
	// handshake deadline is part of the simulation.
	conn.SetDeadline(clock.Now(c.clk).Add(dialTimeout))
	since := c.wireCursor.Load()
	if err := writeFrame(conn, appendHello(nil, c.feed, since)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("hbnet: hello: %w", err)
	}
	ftype, body, err := readFrame(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("hbnet: welcome: %w", err)
	}
	switch ftype {
	case frameWelcome:
		cursor, err := decodeWelcome(body)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("%w: %w", ErrRejected, err)
		}
		if cursor != since {
			// The echo proves the server parsed the hello we sent; a
			// mismatch means the stream would resume from the wrong spot.
			conn.Close()
			return nil, fmt.Errorf("%w: welcome echoes cursor %d, sent %d", ErrRejected, cursor, since)
		}
	case frameError:
		conn.Close()
		msg, permanent := decodeError(body)
		if permanent {
			return nil, fmt.Errorf("%w by server: %s", ErrRejected, msg)
		}
		// Transient server-side failure (e.g. the feed's file is being
		// recreated): report it as an ordinary error so redial retries.
		return nil, fmt.Errorf("hbnet: server: %s", msg)
	default:
		conn.Close()
		return nil, fmt.Errorf("%w: unexpected frame %#x during handshake", ErrRejected, ftype)
	}
	conn.SetDeadline(time.Time{})
	return conn, nil
}

// readLoop drains connections into the batch buffer until the stream ends,
// a terminal error occurs, or the client is closed, redialing as needed.
func (c *Client) readLoop(conn net.Conn) {
	defer close(c.readerDone)
	var failBackoff time.Duration
	for {
		start := c.now()
		err := c.readConn(conn)
		conn.Close()
		switch {
		case err == nil: // frameEOF: the feed ended cleanly
			c.termErr = io.EOF
			return
		case c.ctx.Err() != nil: // Close raced the read
			c.termErr = io.EOF
			return
		case errors.Is(err, ErrRejected):
			// A kind mismatch (raw Next against a rollup feed or vice
			// versa) cannot heal by redialing: the server will keep
			// streaming the same frame type.
			c.termErr = err
			return
		case !c.reconnect:
			c.termErr = err
			return
		}
		// redial paces failed dial attempts, but a connection that
		// handshakes fine and then dies immediately (a feed whose stream
		// errors every time) would otherwise cycle at RTT speed; pace
		// those too, resetting once a connection survives a while.
		if c.now().Sub(start) < time.Second {
			if failBackoff == 0 {
				failBackoff = c.backoffMin
			} else if failBackoff *= 2; failBackoff > c.backoffMax {
				failBackoff = c.backoffMax
			}
			if !clock.SleepCtx(c.ctx, c.clk, c.jitter(failBackoff)) {
				c.termErr = io.EOF
				return
			}
		} else {
			failBackoff = 0
		}
		next, rerr := c.redial()
		if rerr != nil {
			if c.ctx.Err() != nil {
				c.termErr = io.EOF
			} else {
				c.termErr = rerr
			}
			return
		}
		conn = next
		c.reconnects.Add(1)
	}
}

// readConn forwards batches from one connection. nil means clean EOF; any
// other return is the broken-connection (or terminal server) error.
func (c *Client) readConn(conn net.Conn) error {
	var rbuf []byte // reused frame buffer; every decode path copies out of it
	for {
		ftype, body, next, err := readFrameReuse(conn, rbuf)
		if err != nil {
			return fmt.Errorf("hbnet: read: %w", err)
		}
		rbuf = next
		switch ftype {
		case frameBatch:
			if c.kind != frameBatch {
				return fmt.Errorf("%w: feed %q streams raw records — subscribe with Dial, not DialRollup", ErrRejected, c.feed)
			}
			var recs []heartbeat.Record
			c.recMu.Lock()
			if n := len(c.recFree); n > 0 {
				recs = c.recFree[n-1]
				c.recFree[n-1] = nil
				c.recFree = c.recFree[:n-1]
			}
			c.recMu.Unlock()
			b, cursor, err := decodeBatchInto(body, recs)
			if err != nil {
				// A frame that parses wrongly means the stream framing is
				// gone; resync by reconnecting from the last good cursor.
				return err
			}
			c.wireCursor.Store(cursor)
			select {
			case c.batches <- netMsg{b: b, cursor: cursor}:
			case <-c.ctx.Done():
				return fmt.Errorf("hbnet: closed")
			}
		case frameRollup:
			if c.kind != frameRollup {
				return fmt.Errorf("%w: feed %q streams rollups — subscribe with DialRollup, not Dial", ErrRejected, c.feed)
			}
			rb, err := decodeRollups(body)
			if err != nil {
				return err
			}
			c.wireCursor.Store(rb.Cursor)
			select {
			case c.batches <- netMsg{rb: rb, cursor: rb.Cursor}:
			case <-c.ctx.Done():
				return fmt.Errorf("hbnet: closed")
			}
		case frameEOF:
			return nil
		case frameError:
			// A server-side stream failure: with reconnect enabled the
			// redial re-opens the feed (the failure may be transient);
			// without it, readLoop surfaces this error as terminal.
			msg, _ := decodeError(body)
			return fmt.Errorf("hbnet: server: %s", msg)
		default:
			return fmt.Errorf("hbnet: unexpected frame %#x", ftype)
		}
	}
}

// redial re-establishes the connection with capped exponential backoff.
// dialOnce presents the wire cursor — NOT the delivered cursor: batches
// between the two sit safely in c.batches, and re-requesting them would
// deliver duplicates.
func (c *Client) redial() (net.Conn, error) {
	backoff := c.backoffMin
	for {
		conn, err := c.dialOnce()
		if errors.Is(err, ErrRejected) {
			// The server answered and said no (feed gone, protocol
			// mismatch): hammering it cannot help. Stop and surface.
			return nil, err
		}
		if err == nil {
			c.mu.Lock()
			if c.ctx.Err() != nil {
				c.mu.Unlock()
				conn.Close()
				return nil, fmt.Errorf("hbnet: closed")
			}
			c.conn = conn
			c.mu.Unlock()
			return conn, nil
		}
		if !clock.SleepCtx(c.ctx, c.clk, c.jitter(backoff)) {
			return nil, err
		}
		if backoff *= 2; backoff > c.backoffMax {
			backoff = c.backoffMax
		}
	}
}

// jitter draws a full-jitter wait, uniform in (0, d]: the nominal capped
// exponential backoff bounds the wait, the draw desynchronizes it. Only
// the reader goroutine draws, so the unsynchronized rng is safe.
func (c *Client) jitter(d time.Duration) time.Duration {
	if d <= time.Millisecond {
		return d // too short to meaningfully spread; keep pacing exact
	}
	return time.Duration(c.rng.Int63n(int64(d))) + 1
}

// now reads the client's clock, falling back to the wall clock.
func (c *Client) now() time.Time { return clock.Now(c.clk) }

// Next implements observer.Stream: it blocks until the server pushes
// records and returns them as a Batch. Batches already received are
// returned even when ctx is expired (the non-blocking drain contract).
// After the feed ends — or the client is closed — Next drains the buffer
// and then returns io.EOF; with WithoutReconnect a connection failure is
// returned instead once the buffer is empty, and a reconnect handshake
// the server refuses (errors.Is(err, ErrRejected): feed unpublished,
// protocol mismatch) is terminal even with reconnect enabled.
func (c *Client) Next(ctx context.Context) (observer.Batch, error) {
	if c.kind != frameBatch {
		// Wrapped in ErrRejected: the mismatch is permanent, so consumers
		// that retire terminally rejected streams (a Relay upstream pump)
		// treat this misuse the same way instead of retrying forever.
		return observer.Batch{}, fmt.Errorf("%w: rollup subscription to %q: use NextRollups", ErrRejected, c.feed)
	}
	nb, err := c.next(ctx)
	if err != nil {
		return observer.Batch{}, err
	}
	return nb.b, nil
}

// NextRollups is Next for rollup subscriptions (DialRollup): it blocks
// until the relay emits rollups and returns them as a RollupBatch, with
// the same drain-then-EOF and reconnect semantics as Next. Missed counts
// emissions (downsample windows) lapped before delivery, and accumulates
// into Missed() alongside delivery.
func (c *Client) NextRollups(ctx context.Context) (RollupBatch, error) {
	if c.kind != frameRollup {
		return RollupBatch{}, fmt.Errorf("%w: raw subscription to %q: use Next", ErrRejected, c.feed)
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
			return netMsg{}, c.terminal()
		}
	case <-ctx.Done():
		return netMsg{}, ctx.Err()
	}
}

// deliver advances the consumer-visible accounting as a batch is handed
// out of Next (records missed) or NextRollups (emissions missed).
func (c *Client) deliver(nb netMsg) netMsg {
	c.delivered.Store(nb.cursor)
	if c.kind == frameRollup {
		c.missed.Add(nb.rb.Missed)
	} else {
		c.missed.Add(nb.b.Missed)
	}
	return nb
}

// terminal reports why the stream ended; only called after readerDone.
func (c *Client) terminal() error {
	if c.termErr != nil {
		return c.termErr
	}
	return io.EOF
}

// Close disconnects and releases the client. A Next in progress (or any
// later Next) drains the remaining buffered batches and then returns
// io.EOF. Close is idempotent and safe from any goroutine.
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
// handed back for reuse once the consumer is done with them. The Relay's
// merge pump recycles every batch it absorbs, which at high fan-in is what
// keeps merging allocation-free; consumers that retain a batch's records
// simply never call it.
type BatchRecycler interface {
	Recycle(observer.Batch)
}

// Recycle returns a delivered batch's record slice to the client's decode
// pool (BatchRecycler). Only call it when the consumer is completely done
// with the batch: the records' storage is reused by a later decode.
func (c *Client) Recycle(b observer.Batch) {
	if cap(b.Records) == 0 {
		return
	}
	c.recMu.Lock()
	// Keep enough slices to cover the delivery channel's depth (one) plus
	// the batch being decoded and the one being consumed — three: the
	// reader can run that far ahead of the consumer, and a bound below it
	// would make the reader allocate fresh slices while full-grown recycled
	// ones are dropped here.
	if len(c.recFree) < cap(c.batches)+2 {
		c.recFree = append(c.recFree, b.Records[:0])
	}
	c.recMu.Unlock()
}

// Cursor returns the newest sequence number Next has delivered — the
// resume point a successor process would pass to DialFrom. Records the
// reader has buffered but Next has not yet returned are deliberately NOT
// covered: resuming from Cursor re-requests them, so a consumer that
// saves its cursor and restarts never silently skips what it had not
// processed.
func (c *Client) Cursor() uint64 { return c.delivered.Load() }

// Missed returns the total records reported lapped across the delivered
// batches, including across reconnects.
func (c *Client) Missed() uint64 { return c.missed.Load() }

// Reconnects returns how many times the client has re-established its
// connection.
func (c *Client) Reconnects() int { return int(c.reconnects.Load()) }
