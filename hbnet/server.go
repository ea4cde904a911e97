package hbnet

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/clock"
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

// FileFeed publishes a heartbeat ring or log file to subscribers that do
// not share the server's filesystem. Each subscriber opens its own live
// tail (observer.FollowFile; readers never coordinate), polled every poll
// (<= 0: observer.DefaultPollInterval) on clk's time (nil: the wall
// clock). The tail survives a restarted producer deleting and recreating
// the file, even in the other format, without dropping the connection.
func FileFeed(path string, poll time.Duration, clk clock.Clock) Feed {
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

// WithWriteTimeout bounds each write to a subscriber (default 10 seconds;
// d <= 0 disables it). One that stops draining its socket for longer is
// disconnected rather than left to pin its goroutine; it reconnects with
// its cursor, losing nothing the history still retains.
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
// (default: the wall clock), so a simulation whose connections honor
// deadlines on the same clock drives the timeout paths deterministically.
func WithServerClock(clk clock.Clock) ServerOption {
	return func(s *Server) { s.clk = clk }
}

// Server fans named heartbeat feeds out to TCP subscribers: publish feeds,
// drive it with Serve, and subscribers Dial the feed they want — the
// network counterpart of observer.Hub. Publish may be called while the
// server runs; Close stops the listeners and disconnects every subscriber.
type Server struct {
	writeTimeout     time.Duration
	handshakeTimeout time.Duration
	onError          func(error)
	clk              clock.Clock // nil = wall clock; deadline arithmetic

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
// subscriber gets its own cursor subscription (observer.HeartbeatStreamFrom).
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
	acceptDelay := backoff{min: 5 * time.Millisecond, max: time.Second}
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			// Transient accept failures (EMFILE, aborted handshakes) must
			// not kill the relay: back off and retry, as net/http does.
			if ne, ok := err.(net.Error); ok && ne.Temporary() {
				if s.onError != nil {
					s.onError(fmt.Errorf("hbnet: accept: %w", err))
				}
				// Close does not cut this wait short: the next Accept on the
				// closed listener ends Serve at most a second later.
				clock.SleepCtx(context.TODO(), s.clk, acceptDelay.next())
				continue
			}
			return err
		}
		acceptDelay.reset()
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
// push loop — for every kind of feed, which differ only in how
// feedEntry.open frames them. The core (serverCore) makes the decisions.
func (s *Server) serveConn(ctx context.Context, conn net.Conn) error {
	if s.handshakeTimeout > 0 {
		conn.SetReadDeadline(clock.Now(s.clk).Add(s.handshakeTimeout))
	}
	ftype, body, _, err := readFrameReuse(conn, nil, maxHelloPayload)
	if err != nil {
		return fmt.Errorf("reading hello: %w", err)
	}
	sc := new(serverCore)
	s.mu.Lock()
	entry, refusal, err := sc.hello(ftype, body, s.feeds)
	s.mu.Unlock()
	if err != nil {
		if refusal != nil {
			s.write(conn, refusal)
		}
		return err
	}
	frames, src, err := entry.open(ctx, sc)
	if err != nil {
		s.write(conn, sc.openFailed(err))
		return err
	}
	if c, ok := src.(io.Closer); ok {
		defer c.Close()
	}
	if err := s.write(conn, sc.welcome()); err != nil {
		return fmt.Errorf("writing welcome: %w", err)
	}
	conn.SetReadDeadline(time.Time{})

	ctx, cancel, unwatch := s.watchSubscriber(ctx, conn)
	defer cancel()
	defer unwatch()

	for {
		fb, err := frames.NextFrame(ctx)
		if err != nil {
			last, err := sc.ended(err, ctx.Err() != nil)
			if last != nil {
				s.write(conn, last)
			}
			return err
		}
		werr := s.write(conn, fb.data)
		fb.release()
		if werr != nil {
			return sc.writeFailed(werr, ctx.Err() != nil)
		}
	}
}

// watchSubscriber cancels the stream when the subscriber's side ends: it
// never speaks again, so a read returns only on close or error — the one
// way to notice a subscriber that vanished while the stream is idle. The
// returned cleanup closes the conn and reaps the watcher; defer it before
// cancel.
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

// write sends one framed buffer under the server's write timeout.
func (s *Server) write(conn net.Conn, framed []byte) error {
	if s.writeTimeout > 0 {
		conn.SetWriteDeadline(clock.Now(s.clk).Add(s.writeTimeout))
	}
	_, err := conn.Write(framed)
	if s.writeTimeout > 0 {
		conn.SetWriteDeadline(time.Time{})
	}
	return err
}
