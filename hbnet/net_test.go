package hbnet

import (
	"context"
	"errors"
	"io"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/hbfile"
	"repro/heartbeat"
	"repro/internal/cursor"
	"repro/internal/simcheck"
	"repro/observer"
)

// startServer serves feeds on an ephemeral loopback port and returns the
// address. The server (and its listener) is torn down with the test.
func startServer(t *testing.T, s *Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })
	return l.Addr().String()
}

// collect drains batches from stream until the predicate is satisfied or
// the deadline passes, returning every record received.
func collect(t *testing.T, s observer.Stream, done func(recs []heartbeat.Record, missed uint64) bool) ([]heartbeat.Record, uint64) {
	t.Helper()
	var recs []heartbeat.Record
	var missed uint64
	deadline := time.Now().Add(10 * time.Second)
	for !done(recs, missed) {
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		b, err := s.Next(ctx)
		cancel()
		if err != nil {
			t.Fatalf("Next after %d records (missed %d): %v", len(recs), missed, err)
		}
		recs = append(recs, b.Records...)
		missed += b.Missed
	}
	return recs, missed
}

// assertDense fails unless recs carry strictly increasing, dense sequence
// numbers starting right after since. The check itself lives in
// internal/simcheck, shared with the simulated scenario matrix — live and
// simulated tests enforce the same contract with the same code.
func assertDense(t *testing.T, recs []heartbeat.Record, since uint64) {
	t.Helper()
	simcheck.RequireDense(t, recs, since)
}

// The short loopback round trip `make ci` runs: every beat arrives exactly
// once with metadata intact, and closing the heartbeat ends the stream.
func TestLoopbackRoundTrip(t *testing.T) {
	hb, err := heartbeat.New(10, heartbeat.WithCapacity(4096))
	if err != nil {
		t.Fatal(err)
	}
	if err := hb.SetTarget(5, 50); err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	if err := srv.PublishHeartbeat("app", hb); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv)

	c, err := Dial(addr, "app")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const beats = 500
	for i := 0; i < beats; i++ {
		hb.BeatTag(int64(i))
	}
	recs, missed := collect(t, c, func(r []heartbeat.Record, _ uint64) bool { return len(r) >= beats })
	if missed != 0 {
		t.Fatalf("missed %d records with ample capacity", missed)
	}
	assertDense(t, recs, 0)
	for i, r := range recs {
		if r.Tag != int64(i) {
			t.Fatalf("record %d: tag %d", i, r.Tag)
		}
	}

	// Metadata crossed the wire.
	ctxDone, cancel := context.WithCancel(context.Background())
	cancel()
	hb.Beat()
	b, err := c.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if b.Window != 10 || !b.TargetSet || b.TargetMin != 5 || b.TargetMax != 50 {
		t.Fatalf("metadata lost: %+v", b)
	}
	if got := c.Cursor(); got != beats+1 {
		t.Fatalf("cursor %d, want %d", got, beats+1)
	}

	// Idle drain honors the Stream contract: expired ctx, nothing pending.
	if _, err := c.Next(ctxDone); !errors.Is(err, context.Canceled) {
		t.Fatalf("idle drain returned %v", err)
	}

	// Closing the producer ends the stream with io.EOF after the drain.
	hb.Close()
	for {
		if _, err := c.Next(context.Background()); err != nil {
			if !errors.Is(err, io.EOF) {
				t.Fatalf("after close: %v", err)
			}
			break
		}
	}
}

func TestDialUnknownFeedFailsFast(t *testing.T) {
	srv := NewServer()
	addr := startServer(t, srv)
	if _, err := Dial(addr, "nope"); err == nil || !strings.Contains(err.Error(), "unknown feed") {
		t.Fatalf("Dial unknown feed: %v", err)
	}
}

func TestServerRejectsGarbageConnection(t *testing.T) {
	srv := NewServer(WithHandshakeTimeout(200 * time.Millisecond))
	addr := startServer(t, srv)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	// The server must hang up, not stream to a web browser.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1024)
	for {
		if _, err := conn.Read(buf); err != nil {
			return
		}
	}
}

// proxy is a single-connection TCP relay whose link can be cut, to force
// client reconnects without the server going away.
type proxy struct {
	l      net.Listener
	target string

	mu     sync.Mutex
	conns  []net.Conn
	paused bool
}

func newProxy(t *testing.T, target string) *proxy {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &proxy{l: l, target: target}
	go p.run()
	t.Cleanup(func() { l.Close(); p.cut() })
	return p
}

func (p *proxy) addr() string { return p.l.Addr().String() }

func (p *proxy) run() {
	for {
		up, err := p.l.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		paused := p.paused
		p.mu.Unlock()
		if paused {
			up.Close()
			continue
		}
		down, err := net.Dial("tcp", p.target)
		if err != nil {
			up.Close()
			continue
		}
		p.mu.Lock()
		p.conns = append(p.conns, up, down)
		p.mu.Unlock()
		go func() { io.Copy(down, up); down.Close(); up.Close() }()
		go func() { io.Copy(up, down); down.Close(); up.Close() }()
	}
}

// cut severs every live relayed connection; new dials still succeed
// unless the proxy is paused.
func (p *proxy) cut() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
}

// setPaused controls whether new connections are relayed (false) or
// immediately dropped (true) — a sustained outage rather than a blip.
func (p *proxy) setPaused(v bool) {
	p.mu.Lock()
	p.paused = v
	p.mu.Unlock()
}

// A forced disconnect mid-stream: the client redials with its cursor and
// the records keep arriving exactly once, densely, with nothing missed
// while the history covers the outage.
func TestClientReconnectResume(t *testing.T) {
	hb, err := heartbeat.New(10, heartbeat.WithCapacity(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	srv.PublishHeartbeat("app", hb)
	p := newProxy(t, startServer(t, srv))

	c, err := Dial(p.addr(), "app", WithReconnectBackoff(5*time.Millisecond, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const half = 300
	for i := 0; i < half; i++ {
		hb.Beat()
	}
	recs, _ := collect(t, c, func(r []heartbeat.Record, _ uint64) bool { return len(r) >= half })

	p.cut()
	// Beat through the outage: capacity retains everything, so the replay
	// after reconnect must deliver every one.
	for i := 0; i < half; i++ {
		hb.Beat()
	}
	more, missed := collect(t, c, func(r []heartbeat.Record, _ uint64) bool { return len(r) >= half })
	recs = append(recs, more...)
	if missed != 0 {
		t.Fatalf("missed %d during covered outage", missed)
	}
	assertDense(t, recs, 0)
	if c.Reconnects() < 1 {
		t.Fatalf("reconnects = %d, want >= 1", c.Reconnects())
	}
}

// When the outage outruns the ring, the lapped records surface as Missed —
// and delivered + missed exactly accounts for every beat ever made.
func TestMissedAccountingAcrossReconnect(t *testing.T) {
	const capacity = 64
	hb, err := heartbeat.New(10, heartbeat.WithCapacity(capacity))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	srv.PublishHeartbeat("app", hb)
	p := newProxy(t, startServer(t, srv))

	c, err := Dial(p.addr(), "app", WithReconnectBackoff(5*time.Millisecond, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const before = 30
	for i := 0; i < before; i++ {
		hb.Beat()
	}
	recs, _ := collect(t, c, func(r []heartbeat.Record, _ uint64) bool { return len(r) >= before })

	p.cut()
	// Lap the ring several times over while disconnected.
	const during = capacity * 5
	for i := 0; i < during; i++ {
		hb.Beat()
	}
	more, missed := collect(t, c, func(r []heartbeat.Record, m uint64) bool {
		return uint64(len(r))+m >= during
	})
	recs = append(recs, more...)
	if missed == 0 {
		t.Fatal("lapped outage reported no Missed")
	}
	if got := uint64(len(recs)) + missed; got != before+during {
		t.Fatalf("delivered %d + missed %d = %d, want %d", len(recs), missed, got, before+during)
	}
	if c.Missed() != missed {
		t.Fatalf("Client.Missed() = %d, batches said %d", c.Missed(), missed)
	}
	// Nothing was delivered twice, order held, and the stream caught up to
	// the newest beat; every undelivered record is accounted for in Missed
	// (gaps can also occur mid-connection — the ring is tiny — which is
	// precisely what the Missed count is for).
	seen := map[uint64]bool{}
	var prev uint64
	for _, r := range recs {
		if seen[r.Seq] {
			t.Fatalf("seq %d delivered twice", r.Seq)
		}
		if r.Seq <= prev {
			t.Fatalf("seq %d after %d: out of order", r.Seq, prev)
		}
		seen[r.Seq] = true
		prev = r.Seq
	}
	if prev != before+during {
		t.Fatalf("newest delivered seq %d, want %d", prev, before+during)
	}
}

// Cursor() reflects what Next has delivered, not what the background
// reader has buffered: a consumer that saves its cursor and resumes later
// must re-receive everything it never processed.
func TestCursorTracksDeliveryNotReceipt(t *testing.T) {
	hb, err := heartbeat.New(10, heartbeat.WithCapacity(4096))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	srv.PublishHeartbeat("app", hb)
	addr := startServer(t, srv)
	c, err := Dial(addr, "app")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 10; i++ {
		hb.Beat()
	}
	// Give the reader ample time to buffer the batches; with no Next call
	// the delivered cursor must not move.
	time.Sleep(100 * time.Millisecond)
	if got := c.Cursor(); got != 0 {
		t.Fatalf("Cursor advanced to %d before any Next", got)
	}
	recs, _ := collect(t, c, func(r []heartbeat.Record, _ uint64) bool { return len(r) >= 10 })
	if got := c.Cursor(); got != recs[len(recs)-1].Seq {
		t.Fatalf("Cursor = %d after delivering through seq %d", got, recs[len(recs)-1].Seq)
	}
}

// A reconnect handshake the server refuses — here, the feed is gone after
// a server restart — must stop the redial loop and surface through Next,
// not retry silently forever while the consumer starves.
func TestReconnectRejectionIsTerminal(t *testing.T) {
	hb, err := heartbeat.New(10, heartbeat.WithCapacity(4096))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	srv.PublishHeartbeat("app", hb)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	addr := l.Addr().String()

	c, err := Dial(addr, "app", WithReconnectBackoff(5*time.Millisecond, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hb.Beat()
	collect(t, c, func(r []heartbeat.Record, _ uint64) bool { return len(r) >= 1 })

	// Restart the server on the same address without the feed.
	srv.Close()
	var l2 net.Listener
	for i := 0; ; i++ {
		l2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i > 100 {
			t.Skipf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	srv2 := NewServer()
	go srv2.Serve(l2)
	t.Cleanup(func() { srv2.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err = c.Next(ctx)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("Next after feed vanished = %v, want ErrRejected", err)
	}
}

// A replay of a huge retained history (a subscriber dialing from 0)
// arrives complete and dense, one page (cursor.Page) per frame: the
// heartbeat store pages the read, so no batch approaches the frame cap.
func TestHugeReplayArrivesInPages(t *testing.T) {
	if testing.Short() {
		t.Skip("streams several hundred thousand records")
	}
	const beats = 312_144
	hb, err := heartbeat.New(10, heartbeat.WithCapacity(1<<19))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < beats; i++ {
		hb.Beat()
	}
	srv := NewServer()
	srv.PublishHeartbeat("app", hb)
	addr := startServer(t, srv)
	c, err := Dial(addr, "app")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tr := simcheck.NewTracker("replay", 0)
	pages := 0
	for tr.Cursor() != beats {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		b, err := c.Next(ctx)
		cancel()
		if err != nil {
			t.Fatalf("Next at cursor %d: %v", tr.Cursor(), err)
		}
		if len(b.Records) > cursor.Page {
			t.Fatalf("a batch of %d records, over the page of %d", len(b.Records), cursor.Page)
		}
		if err := tr.Absorb(b); err != nil {
			t.Fatal(err)
		}
		simcheck.RequireDense(t, b.Records, tr.Cursor()-uint64(len(b.Records)))
		pages++
	}
	if tr.Missed() != 0 || pages < beats/cursor.Page {
		t.Fatalf("replay missed %d in %d batches", tr.Missed(), pages)
	}
}

// batchStream is a foreign stream that delivers one given batch, then
// waits.
type batchStream struct {
	b    observer.Batch
	sent bool
}

func (s *batchStream) Next(ctx context.Context) (observer.Batch, error) {
	if !s.sent {
		s.sent = true
		return s.b, nil
	}
	<-ctx.Done()
	return observer.Batch{}, ctx.Err()
}

// A foreign stream's batch the server cannot frame — over the frame cap,
// or moving the stream with no Count to resume from — ends the
// subscription for good: a redial would meet the same batch.
func TestUnframeableBatchIsRejected(t *testing.T) {
	huge := make([]heartbeat.Record, maxFramePayload/8)
	for i := range huge {
		huge[i] = heartbeat.Record{Seq: uint64(i + 1), Time: time.Unix(0, int64(i)<<40), Tag: -1 << 60}
	}
	for name, b := range map[string]observer.Batch{
		"over the frame cap": {Records: huge, Count: uint64(len(huge))},
		"records at Count 0": {Records: seqs(1, 2, 3)},
		"loss at Count 0":    {Missed: 4},
	} {
		t.Run(name, func(t *testing.T) {
			srv := NewServer()
			srv.Publish("app", func(ctx context.Context, since uint64) (observer.Stream, error) {
				return &batchStream{b: b}, nil
			})
			c, err := Dial(startServer(t, srv), "app", WithReconnectBackoff(time.Millisecond, 10*time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if _, err := c.Next(ctx); !errors.Is(err, ErrRejected) {
				t.Fatalf("Next = %v, want ErrRejected", err)
			}
			if c.Reconnects() != 0 {
				t.Fatalf("redialed %d times into the same batch", c.Reconnects())
			}
		})
	}
}

// A FileFeed relays a heartbeat ring file to remote subscribers.
func TestFileFeedRelay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "app.hb")
	w, err := hbfile.Create(path, 10, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.WriteTarget(3, 30); err != nil {
		t.Fatal(err)
	}

	srv := NewServer()
	srv.Publish("file-app", FileFeed(path, time.Millisecond, nil))
	addr := startServer(t, srv)

	c, err := Dial(addr, "file-app")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 1; i <= 200; i++ {
		if err := w.WriteRecord(heartbeat.Record{Seq: uint64(i), Time: time.Unix(0, int64(i)*1e6)}); err != nil {
			t.Fatal(err)
		}
	}
	recs, missed := collect(t, c, func(r []heartbeat.Record, _ uint64) bool { return len(r) >= 200 })
	if missed != 0 {
		t.Fatalf("missed %d", missed)
	}
	assertDense(t, recs, 0)
}

// A hub mixing a local stream and a remote client (Dial, then Add) judges
// both; removing the remote app closes its connection.
func TestDialIntoHub(t *testing.T) {
	remote, err := heartbeat.New(10, heartbeat.WithCapacity(4096))
	if err != nil {
		t.Fatal(err)
	}
	local, err := heartbeat.New(10, heartbeat.WithCapacity(4096))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	srv.PublishHeartbeat("remote-app", remote)
	addr := startServer(t, srv)

	hub := observer.NewHub(20*time.Millisecond, nil)
	if err := hub.Add("local", observer.HeartbeatStream(local)); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr, "remote-app")
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.Add("remote", c); err != nil {
		c.Close()
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hubDone := make(chan struct{})
	go func() { hub.Run(ctx); close(hubDone) }()

	for i := 0; i < 50; i++ {
		local.Beat()
		remote.Beat()
		time.Sleep(time.Millisecond)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, ok := hub.Status("remote")
		if ok && st.Count >= 50 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("hub never judged the remote app: %+v ok=%v", st, ok)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Remove closes the remote client: its next read fails terminally.
	hub.Remove("remote")
	if _, err := c.Next(context.Background()); !errors.Is(err, io.EOF) {
		t.Fatalf("after Remove, Next = %v, want io.EOF", err)
	}
	cancel()
	<-hubDone
}
