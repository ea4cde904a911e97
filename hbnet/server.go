package hbnet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/heartbeat"
	"repro/observer"
)

// A Feed opens one subscriber's view of a heartbeat stream, positioned
// after global sequence number since — the server calls it once per
// accepted connection with the cursor the subscriber presented, so every
// subscriber gets its own independent stream and a reconnecting one
// resumes where it left off. Streams that also implement io.Closer are
// closed when the connection ends.
type Feed func(ctx context.Context, since uint64) (observer.Stream, error)

// FileFeed publishes a heartbeat ring or log file: the relay case, where
// the hbnet server and the observed application share a filesystem but
// subscribers do not. Each subscriber opens its own live tail
// (observer.FollowFile — readers never coordinate, so concurrent
// subscribers cost nothing extra), tailed every poll (poll <= 0 selects
// observer.DefaultPollInterval) on clk's time (nil is the wall clock; a
// simulated server relays a file at virtual speed). The variant is
// detected per open, and the tail survives the file being deleted and
// recreated by a restarted producer — including in the other format —
// without dropping the connection.
func FileFeed(path string, poll time.Duration, clk heartbeat.Clock) Feed {
	return func(ctx context.Context, since uint64) (observer.Stream, error) {
		s, err := observer.FollowFile(path, poll, since, clk)
		if err != nil {
			return nil, fmt.Errorf("hbnet: open feed file: %w", err)
		}
		return s, nil
	}
}

// ServerOption configures NewServer.
type ServerOption func(*Server)

// WithWriteTimeout bounds each batch write to a subscriber; one that stops
// draining its socket for longer is disconnected rather than allowed to
// pin the stream goroutine forever (it reconnects with its cursor and
// resumes, so nothing is lost that the history still retains). The default
// is 10 seconds; d <= 0 disables the bound.
func WithWriteTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.writeTimeout = d }
}

// WithHandshakeTimeout bounds how long an accepted connection may take to
// present its hello (default 5 seconds).
func WithHandshakeTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.handshakeTimeout = d }
}

// WithServerOnError installs a callback for per-connection failures
// (default: dropped; a failed subscriber simply reconnects).
func WithServerOnError(f func(error)) ServerOption {
	return func(s *Server) { s.onError = f }
}

// WithServerClock computes the handshake and write deadlines on clk
// (default: the wall clock). Under a virtual clock — with connections that
// honor deadlines on the same clock, as simnet's do — simulated scenarios
// drive the server's timeout paths deterministically instead of never.
func WithServerClock(clk heartbeat.Clock) ServerOption {
	return func(s *Server) { s.clk = clk }
}

// Server fans named heartbeat feeds out to TCP subscribers. Publish feeds,
// then drive it with Serve; subscribers dial in with
// Dial naming the feed they want. A server with many published feeds is
// the network counterpart of observer.Hub: one endpoint exposing every
// application on the machine, each subscriber picking one stream.
//
// Publish may be called while the server is running; Close stops the
// listeners and disconnects every subscriber.
type Server struct {
	writeTimeout     time.Duration
	handshakeTimeout time.Duration
	onError          func(error)
	clk              heartbeat.Clock // nil = wall clock; deadline arithmetic

	mu        sync.Mutex
	feeds     map[string]feedEntry
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]context.CancelFunc
	closed    bool
	wg        sync.WaitGroup
}

// feedEntry is one published name: a raw record feed or a rollup feed
// (exactly one of the two is set).
type feedEntry struct {
	raw    Feed
	rollup RollupFeed
}

// NewServer creates a server with no feeds published yet.
func NewServer(opts ...ServerOption) *Server {
	s := &Server{
		writeTimeout:     10 * time.Second,
		handshakeTimeout: 5 * time.Second,
		feeds:            make(map[string]feedEntry),
		listeners:        make(map[net.Listener]struct{}),
		conns:            make(map[net.Conn]context.CancelFunc),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Publish registers feed under name. Re-publishing a name replaces its
// feed for future subscribers; live subscriptions keep their stream.
func (s *Server) Publish(name string, feed Feed) error {
	if feed == nil {
		return fmt.Errorf("hbnet: nil feed for %q", name)
	}
	return s.publish(name, feedEntry{raw: feed})
}

// PublishRollup registers a rollup feed under name: subscribers dial it
// with DialRollup and receive downsampled per-app Rollups instead of raw
// records. A name carries either raw records or rollups, never both —
// the conventional relay pair is Publish(raw) next to PublishRollup.
func (s *Server) PublishRollup(name string, feed RollupFeed) error {
	if feed == nil {
		return fmt.Errorf("hbnet: nil rollup feed for %q", name)
	}
	return s.publish(name, feedEntry{rollup: feed})
}

func (s *Server) publish(name string, e feedEntry) error {
	if len(name) > maxFeedName {
		return fmt.Errorf("hbnet: feed name exceeds %d bytes", maxFeedName)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.feeds[name] = e
	return nil
}

// PublishHeartbeat publishes a live in-process Heartbeat under name: each
// subscriber gets a cursor subscription (observer.HeartbeatStreamFrom), so
// replay-then-live-push and Missed accounting behave exactly like a local
// subscription.
func (s *Server) PublishHeartbeat(name string, hb *heartbeat.Heartbeat) error {
	if hb == nil {
		return fmt.Errorf("hbnet: nil heartbeat for %q", name)
	}
	return s.Publish(name, func(ctx context.Context, since uint64) (observer.Stream, error) {
		return observer.HeartbeatStreamFrom(hb, since), nil
	})
}

// Serve accepts subscribers on l until the listener fails or the server is
// closed. Like net/http, it blocks; run it in its own goroutine. Serve
// returns nil after Close.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return fmt.Errorf("hbnet: server closed")
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
		l.Close()
	}()
	var acceptDelay time.Duration
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			// Transient accept failures (EMFILE pressure, aborted
			// handshakes) must not kill the whole relay; back off and
			// retry, the way net/http's Serve does.
			if ne, ok := err.(net.Error); ok && ne.Temporary() {
				if acceptDelay == 0 {
					acceptDelay = 5 * time.Millisecond
				} else if acceptDelay *= 2; acceptDelay > time.Second {
					acceptDelay = time.Second
				}
				if s.onError != nil {
					s.onError(fmt.Errorf("hbnet: accept: %w", err))
				}
				<-heartbeat.After(s.clk, acceptDelay)
				continue
			}
			return err
		}
		acceptDelay = 0
		ctx, cancel := context.WithCancel(context.Background())
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			cancel()
			conn.Close()
			return nil
		}
		s.conns[conn] = cancel
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			defer func() {
				cancel()
				conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			if err := s.serveConn(ctx, conn); err != nil && s.onError != nil {
				s.onError(fmt.Errorf("hbnet: subscriber %v: %w", conn.RemoteAddr(), err))
			}
		}()
	}
}

// Close stops every listener, disconnects every subscriber, and waits for
// their goroutines to exit. Close is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	for l := range s.listeners {
		l.Close()
	}
	for conn, cancel := range s.conns {
		cancel()
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// serveConn runs one subscriber: handshake, open, welcome, watch, then the
// replay-then-live push loop — the same sequence for a raw feed, an
// encode-once ring feed and a rollup feed, which differ only in how
// feedEntry.open produces the next frame's bytes.
func (s *Server) serveConn(ctx context.Context, conn net.Conn) error {
	if s.handshakeTimeout > 0 {
		conn.SetReadDeadline(heartbeat.Now(s.clk).Add(s.handshakeTimeout))
	}
	ftype, body, err := readFrame(conn)
	if err != nil {
		return fmt.Errorf("reading hello: %w", err)
	}
	if ftype != frameHello {
		return fmt.Errorf("first frame is %#x, want hello", ftype)
	}
	name, since, err := decodeHello(body)
	if err != nil {
		s.writeTimed(conn, appendError(nil, err.Error(), true))
		return err
	}
	s.mu.Lock()
	entry := s.feeds[name]
	s.mu.Unlock()
	if entry.raw == nil && entry.rollup == nil {
		err := fmt.Errorf("unknown feed %q", name)
		s.writeTimed(conn, appendError(nil, "hbnet: "+err.Error(), true))
		return err
	}
	kind := ""
	if entry.rollup != nil {
		kind = "rollup "
	}
	frames, src, err := entry.open(ctx, since)
	if err != nil {
		// Not permanent: the feed exists but failed to open — a file
		// mid-recreation heals, so the subscriber should keep retrying.
		s.writeTimed(conn, appendError(nil, err.Error(), false))
		return err
	}
	if c, ok := src.(io.Closer); ok {
		defer c.Close()
	}
	if err := s.writeTimed(conn, appendWelcome(nil, since)); err != nil {
		return fmt.Errorf("writing welcome: %w", err)
	}
	conn.SetReadDeadline(time.Time{})

	ctx, cancel, unwatch := s.watchSubscriber(ctx, conn)
	defer cancel()
	defer unwatch()

	for {
		fb, err := frames.NextFrame(ctx)
		switch {
		case err == nil:
		case errors.Is(err, io.EOF):
			s.writeTimed(conn, []byte{frameEOF})
			return nil
		case ctx.Err() != nil:
			return nil // subscriber went away or server closed: not a failure
		default:
			// A frame over the cap is permanent: redialing from the same
			// cursor would rebuild the same frame forever.
			s.writeTimed(conn, appendError(nil, err.Error(), errors.Is(err, errFrameTooLarge)))
			return fmt.Errorf("%sfeed %q: %w", kind, name, err)
		}
		werr := s.writeRaw(conn, fb.data)
		fb.release()
		if werr != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("writing %sbatch: %w", kind, werr)
		}
	}
}

// watchSubscriber watches the subscriber side of an established stream:
// the subscriber never speaks again, so a read can only return a close or
// an error, either way meaning the connection is done — the only way to
// notice a subscriber that vanished while the stream is idle (nothing to
// write, nothing to fail). The returned cleanup closes the connection and
// reaps the watch goroutine; call it (deferred) before cancel.
func (s *Server) watchSubscriber(ctx context.Context, conn net.Conn) (context.Context, context.CancelFunc, func()) {
	watchDone := make(chan struct{})
	ctx, cancel := context.WithCancel(ctx)
	go func() {
		defer close(watchDone)
		var one [1]byte
		conn.Read(one[:])
		cancel()
	}()
	return ctx, cancel, func() { conn.Close(); <-watchDone }
}

// advanceCursor computes the resume cursor after delivering b. For real
// sequence numbers (every built-in stream) the newest record's Seq is
// exact for everything up to that record — including when it regressed
// below the cursor, which means the underlying stream resynchronized to a
// restarted producer's new seq space and the wire cursor must follow it
// down (a synthetic cursor left above the new head would make the next
// resume resync again and replay everything already delivered). What the
// last Seq does NOT cover is Missed that trails it: a batch may account
// for more stream positions than the cursor-to-last-Seq span (a ring that
// lapped between its newest retained record and its head), and a cursor
// left at the last Seq would make the next read re-report that loss.
// Advance past the excess. Foreign zero-Seq streams fall back to counting
// delivered and lapped records.
func advanceCursor(cursor uint64, b observer.Batch) uint64 {
	if n := len(b.Records); n > 0 && b.Records[n-1].Seq > 0 {
		last := b.Records[n-1].Seq
		if last < cursor {
			return last // resync-down: the new seq space's head is exact
		}
		span := last - cursor
		if accounted := uint64(n) + b.Missed; accounted > span {
			return last + (accounted - span) // trailing Missed
		}
		return last
	}
	return cursor + uint64(len(b.Records)) + b.Missed
}

// writeTimed frames and writes one payload under the server's write
// timeout (the rare handshake/shutdown frames; batches use writeRaw).
func (s *Server) writeTimed(conn net.Conn, payload []byte) error {
	if s.writeTimeout > 0 {
		conn.SetWriteDeadline(heartbeat.Now(s.clk).Add(s.writeTimeout))
	}
	err := writeFrame(conn, payload)
	if s.writeTimeout > 0 {
		conn.SetWriteDeadline(time.Time{})
	}
	return err
}

// writeRaw writes an already-framed buffer under the write timeout.
func (s *Server) writeRaw(conn net.Conn, framed []byte) error {
	if s.writeTimeout > 0 {
		conn.SetWriteDeadline(heartbeat.Now(s.clk).Add(s.writeTimeout))
	}
	_, err := conn.Write(framed)
	if s.writeTimeout > 0 {
		conn.SetWriteDeadline(time.Time{})
	}
	return err
}
