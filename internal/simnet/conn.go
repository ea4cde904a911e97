package simnet

import (
	"io"
	"net"
	"sync"
	"time"

	"repro/clock"
)

// conn is one endpoint of an in-memory connection: a pair of directional
// pipe buffers shared with its peer. Reads honor the link's latency on the
// network's clock; writes block only when the link carries a write limit
// (SetWriteLimit) and the peer has stopped draining — kernel-style
// backpressure, which is what lets a scenario drive a server's write
// timeout — and count against the link's byte trigger. Deadlines, read and
// write, are evaluated on the network's clock: a virtual-clock simulation
// times out at the simulated instant, deterministically, exactly like the
// latency front.
type conn struct {
	nw            *Network
	link          *link
	peer          *conn
	local, remote addr
	rd, wr        *pipeBuf

	dlMu      sync.Mutex
	rDeadline time.Time
	wDeadline time.Time
	closeOnce sync.Once
	severOnce sync.Once
}

func (c *conn) LocalAddr() net.Addr  { return c.local }
func (c *conn) RemoteAddr() net.Addr { return c.remote }

func (c *conn) SetDeadline(t time.Time) error {
	c.dlMu.Lock()
	c.rDeadline, c.wDeadline = t, t
	c.dlMu.Unlock()
	return nil
}

func (c *conn) SetReadDeadline(t time.Time) error {
	c.dlMu.Lock()
	c.rDeadline = t
	c.dlMu.Unlock()
	return nil
}

func (c *conn) SetWriteDeadline(t time.Time) error {
	c.dlMu.Lock()
	c.wDeadline = t
	c.dlMu.Unlock()
	return nil
}

func (c *conn) readDeadline() time.Time {
	c.dlMu.Lock()
	defer c.dlMu.Unlock()
	return c.rDeadline
}

func (c *conn) writeDeadline() time.Time {
	c.dlMu.Lock()
	defer c.dlMu.Unlock()
	return c.wDeadline
}

// timeoutError satisfies net.Error the way a socket deadline does.
type timeoutError struct{}

func (timeoutError) Error() string   { return "simnet: i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

func (c *conn) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil // io.Reader allows zero-length reads; never block on one
	}
	for {
		n, wait, notify, err := c.rd.tryRead(p, c.nw.clk)
		if n > 0 || err != nil {
			return n, err
		}
		// Nothing deliverable yet: wait for new data / close, for the
		// latency front to pass, or for the read deadline — all on the
		// network's clock, so a virtual simulation times out virtually.
		var untilDeadline time.Duration
		if dl := c.readDeadline(); !dl.IsZero() {
			if untilDeadline = dl.Sub(clock.Now(c.nw.clk)); untilDeadline <= 0 {
				return 0, timeoutError{}
			}
		}
		latency, stopLatency := c.after(wait)
		deadline, stopDeadline := c.after(untilDeadline)
		select {
		case <-notify:
		case <-latency:
		case <-deadline:
			stopLatency()
			return 0, timeoutError{}
		}
		stopLatency()
		stopDeadline()
	}
}

// after arms one wait of d on the network's clock: the channel closes once
// d has elapsed. A non-positive d arms nothing and returns a nil channel,
// which never fires. The caller stops the timer as soon as its wait ends,
// so a wait that data cut short leaves no timer for a virtual clock to
// leap to.
func (c *conn) after(d time.Duration) (<-chan struct{}, func() bool) {
	if d <= 0 {
		return nil, func() bool { return false }
	}
	ch := make(chan struct{})
	t := clock.AfterFunc(c.nw.clk, d, func() { close(ch) })
	return ch, t.Stop
}

func (c *conn) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	// Backpressure: while the link carries a write limit and the peer has
	// not drained below it, block — honoring the write deadline on the
	// network's clock, the way a full kernel socket buffer does.
	for {
		c.nw.mu.Lock()
		limit := c.link.wlimit
		c.nw.mu.Unlock()
		if limit <= 0 {
			break
		}
		full, notify, err := c.wr.overLimit(limit)
		if err != nil {
			return 0, err
		}
		if !full {
			break
		}
		var untilDeadline time.Duration
		if dl := c.writeDeadline(); !dl.IsZero() {
			if untilDeadline = dl.Sub(clock.Now(c.nw.clk)); untilDeadline <= 0 {
				return 0, timeoutError{}
			}
		}
		deadline, stopDeadline := c.after(untilDeadline)
		select {
		case <-notify:
			stopDeadline()
		case <-deadline:
			return 0, timeoutError{}
		}
	}

	c.nw.mu.Lock()
	lat := c.link.latency
	deliver := p
	severAfter := false
	if c.link.armed {
		if int64(len(p)) > c.link.cutAfter {
			deliver = p[:c.link.cutAfter]
			c.link.armed = false
			c.link.cutAfter = -1
			severAfter = true
		} else {
			c.link.cutAfter -= int64(len(p))
		}
	}
	c.nw.mu.Unlock()

	ready := clock.Now(c.nw.clk).Add(lat)
	n, err := c.wr.write(deliver, ready)
	if err != nil {
		return n, err
	}
	if severAfter {
		c.sever(errSevered)
		return n, errSevered
	}
	return n, nil
}

// Close is the clean teardown: the peer drains what was already in flight
// and then reads io.EOF; writes from either side fail from now on.
func (c *conn) Close() error {
	c.closeOnce.Do(func() {
		c.wr.closeClean()
		c.rd.fail(net.ErrClosed)
		c.unregister()
	})
	return nil
}

// sever is the fault-injected teardown: both directions fail immediately,
// pending bytes are discarded — an abrupt connection reset.
func (c *conn) sever(err error) {
	c.severOnce.Do(func() {
		c.rd.fail(err)
		c.wr.fail(err)
		c.unregister()
	})
}

func (c *conn) unregister() {
	c.nw.mu.Lock()
	delete(c.link.conns, c)
	delete(c.link.conns, c.peer)
	c.nw.mu.Unlock()
}

// seg is one write's worth of bytes, deliverable once the clock reaches
// ready.
type seg struct {
	data  []byte
	ready time.Time
}

// pipeBuf is one direction of a connection.
type pipeBuf struct {
	mu     sync.Mutex
	segs   []seg
	size   int   // pending bytes across segs
	closed bool  // clean close: drain, then EOF
	err    error // sever: immediate failure, pending bytes discarded
	notify chan struct{}
}

func newPipeBuf() *pipeBuf {
	return &pipeBuf{notify: make(chan struct{})}
}

// tryRead delivers available bytes. When nothing is deliverable it returns
// (0, wait, notify, nil): wait > 0 means the head segment becomes ready
// after wait on the network's clock; notify fires on any state change.
func (b *pipeBuf) tryRead(p []byte, clk clock.Clock) (n int, wait time.Duration, notify <-chan struct{}, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err != nil {
		return 0, 0, nil, b.err
	}
	if len(b.segs) > 0 {
		now := clock.Now(clk)
		s := &b.segs[0]
		if s.ready.After(now) {
			return 0, s.ready.Sub(now), b.notify, nil
		}
		n = copy(p, s.data)
		if n == len(s.data) {
			b.segs[0] = seg{}
			b.segs = b.segs[1:]
		} else {
			s.data = s.data[n:]
		}
		b.size -= n
		// The drain may unblock a writer waiting on the buffer limit.
		b.wakeLocked()
		return n, 0, nil, nil
	}
	if b.closed {
		return 0, 0, nil, io.EOF
	}
	return 0, 0, b.notify, nil
}

func (b *pipeBuf) write(p []byte, ready time.Time) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err != nil {
		return 0, b.err
	}
	if b.closed {
		return 0, net.ErrClosed
	}
	if len(p) > 0 {
		b.segs = append(b.segs, seg{data: append([]byte(nil), p...), ready: ready})
		b.size += len(p)
		b.wakeLocked()
	}
	return len(p), nil
}

// overLimit reports whether the buffer holds at least limit pending bytes;
// when it does, notify fires on any state change (a drain, a close, a
// sever) so a blocked writer can recheck.
func (b *pipeBuf) overLimit(limit int) (full bool, notify <-chan struct{}, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err != nil {
		return false, nil, b.err
	}
	if b.closed {
		return false, nil, net.ErrClosed
	}
	if b.size >= limit {
		return true, b.notify, nil
	}
	return false, nil, nil
}

func (b *pipeBuf) closeClean() {
	b.mu.Lock()
	if !b.closed && b.err == nil {
		b.closed = true
		b.wakeLocked()
	}
	b.mu.Unlock()
}

func (b *pipeBuf) fail(err error) {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
		b.segs = nil
		b.size = 0
		b.wakeLocked()
	}
	b.mu.Unlock()
}

func (b *pipeBuf) wakeLocked() {
	close(b.notify)
	b.notify = make(chan struct{})
}
