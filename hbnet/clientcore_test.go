package hbnet

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"slices"
	"testing"
	"time"

	"repro/heartbeat"
	"repro/internal/cursor"
	"repro/internal/simcheck"
	"repro/observer"
)

// TestClientCoreJitterWithinBackoff pins the backoff rule on a fixed rng:
// every wait either loop draws lies in (0, d] for the capped doubling d
// the loop has reached, a connection that lived a while redials at once,
// and the same seed draws the same sequence.
func TestClientCoreJitterWithinBackoff(t *testing.T) {
	const min, max = 20 * time.Millisecond, 500 * time.Millisecond
	draws := func() []time.Duration {
		c := newTestClient("app", 0, 7, WithReconnectBackoff(min, max))
		var waits []time.Duration
		check := func(what string, wait time.Duration, nominal *backoff) {
			t.Helper()
			if d := nominal.next(); wait <= 0 || wait > d {
				t.Fatalf("%s wait %v outside (0, %v]", what, wait, d)
			}
			waits = append(waits, wait)
		}
		var pace, dials backoff = backoff{min: min, max: max}, backoff{min: min, max: max}
		for i := 0; i < 8; i++ {
			wait, term := c.core.ended(errors.New("connection reset"), 10*time.Millisecond, false)
			if term != nil {
				t.Fatalf("a reset connection ended the stream: %v", term)
			}
			check("paced redial", wait, &pace)
			dials.reset()
			for j := 0; j < 8; j++ {
				wait, term := c.core.dialFailed(errors.New("connection refused"))
				if term != nil {
					t.Fatalf("a refused dial was terminal: %v", term)
				}
				check("failed dial", wait, &dials)
			}
		}
		if wait, term := c.core.ended(errors.New("connection reset"), 2*time.Second, false); term != nil || wait != 0 {
			t.Fatalf("a connection that lived 2s: end (%v, %v), want an immediate redial", term, wait)
		}
		if _, term := c.core.dialFailed(ErrRejected); term == nil {
			t.Fatal("a rejected dial was not terminal")
		}
		return waits
	}
	a, b := draws(), draws()
	if !slices.Equal(a, b) {
		t.Fatal("the same seed drew different waits")
	}
	sorted := slices.Clone(a)
	slices.Sort(sorted)
	if distinct := len(slices.Compact(sorted)); distinct < len(a)/2 {
		t.Fatalf("%d waits took only %d distinct values: the jitter does not spread them", len(a), distinct)
	}
}

// FuzzClientCore runs one subscription through both protocol cores on one
// goroutine: serverCore frames a feed onto in-memory wire bytes, clientCore
// reads them, and the client shell's handshake and deliver — the two steps
// that choose a cursor — run between them. The input is a script of
// events: records published (some lost before any read, or from a
// restarted producer), frames pushed, read and delivered, a cut mid-frame,
// corrupted frame bytes, transient and permanent server errors, and
// redials. The script's first two bytes pick the feed's retention and
// the page its cursor reads are bounded by; the server frames each batch
// whole at the batch's Count. Every delivery goes through
// simcheck.Tracker, the client's Cursor and Missed must match its
// accounting after each one, and at the end every published position
// must be delivered or counted missed: no record twice, across any number
// of cuts.
func FuzzClientCore(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 2 {
			return
		}
		r := newCoreRun(t, script[0], script[1])
		r.redial()
		if r.conn == nil {
			t.Fatal("the first dial failed")
		}
		for i := 2; i < len(script); i++ {
			op, arg := script[i]%16, script[i]/16
			r.now += 50 * time.Millisecond
			switch op {
			case 0, 1:
				r.feed.publish(1+int(arg%6), 0)
			case 2:
				r.feed.publish(1+int(arg%6), 1+int(arg/6)) // the newest lost in flight
			case 3:
				r.feed.restart()
				r.feed.publish(1+int(arg%6), 0)
			case 4, 5:
				r.push()
			case 6, 7:
				r.read()
			case 8, 9:
				r.deliver()
			case 10:
				r.cut(int(arg))
			case 11:
				r.corrupt(arg)
			case 12:
				r.streamFails(arg%2 == 1)
			case 13:
				r.feed.failOpen = true
			case 14:
				r.redial()
			case 15:
				if arg == 15 {
					r.feed.unpublished = true
				} else {
					r.now += time.Duration(arg) * 100 * time.Millisecond
				}
			}
		}
		r.drain()
	})
}

// coreFeed is the producer side of a FuzzClientCore run: one life's
// retained history (the newest capacity records, some lost before any
// read) and the faults the script sets.
type coreFeed struct {
	capacity    uint64
	page        uint64 // positions one read covers at most
	head        uint64
	lost        map[uint64]bool
	failOpen    bool // the next open fails, as a feed file mid-recreation does
	unpublished bool // the feed is gone: every later hello is refused
}

// publish appends n records, the newest lose of them lost in flight.
func (f *coreFeed) publish(n, lose int) {
	for i := 0; i < n; i++ {
		f.head++
		if i >= n-lose {
			f.lost[f.head] = true
		}
	}
}

// restart begins a new producer life: its sequence numbers start over.
func (f *coreFeed) restart() { f.head, f.lost = 0, make(map[uint64]bool) }

// read is one cursor read by cursor.Advance's rule, a page at a time: the
// retained records newer than cur that were not lost, over at most page
// positions from the oldest retained one, and the batch's Count is where
// the read stopped. A head below cur resyncs to the new life's zero.
func (f *coreFeed) read(cur uint64) (observer.Batch, uint64, bool) {
	for {
		from := max(cur+1, max(f.head, f.capacity)-f.capacity+1)
		to := min(f.head, from+f.page-1)
		var recs []heartbeat.Record
		for s := from; s <= to; s++ {
			if !f.lost[s] {
				recs = append(recs, heartbeat.Record{Seq: s, Time: time.Unix(0, int64(s))})
			}
		}
		next, missed, move := cursor.Advance(cur, to, len(recs))
		switch move {
		case cursor.Resync:
			cur = next
			continue
		case cursor.Idle:
			return observer.Batch{}, next, false
		}
		return observer.Batch{Records: recs, Count: next, Missed: missed}, next, true
	}
}

// coreStream is one connection's subscription to the feed. Its Next never
// waits: with nothing due it returns the (done) context's error, as a
// cancelled Next does.
type coreStream struct {
	feed   *coreFeed
	cursor uint64
	fail   error
}

func (s *coreStream) Next(ctx context.Context) (observer.Batch, error) {
	if s.fail != nil {
		return observer.Batch{}, s.fail
	}
	b, next, ok := s.feed.read(s.cursor)
	s.cursor = next
	if !ok {
		return b, ctx.Err()
	}
	return b, nil
}

// wireConn is one connection's bytes on one goroutine. A Write is the
// client's hello, which the server core answers at once; Read drains what
// the server framed, and past a cut returns io.EOF.
type wireConn struct {
	net.Conn // nil: the client calls only the methods below
	run      *coreRun
	in       []byte
	cut      bool
}

func (w *wireConn) Write(p []byte) (int, error) { w.run.accept(w, p); return len(p), nil }

func (w *wireConn) Read(p []byte) (int, error) {
	if len(w.in) == 0 {
		return 0, io.EOF
	}
	n := copy(p, w.in)
	w.in = w.in[n:]
	return n, nil
}

func (w *wireConn) SetDeadline(time.Time) error { return nil }

// coreRun is one FuzzClientCore run: the feed, the server core of the live
// connection, and the client with its read-ahead and its tracker.
type coreRun struct {
	t    *testing.T
	feed *coreFeed
	done context.Context // cancelled: stream reads never wait

	sc     *serverCore
	frames frameStream
	stream *coreStream
	server *wireConn // the connection the server writes to; nil when it has none

	c           *Client
	conn        *wireConn // the client's connection; nil while disconnected
	connectedAt time.Duration
	now         time.Duration
	rbuf        []byte
	ahead       []netMsg // read but not delivered: the channel's slot and the reader's hand
	stopped     bool     // the client's stream ended for good
	refused     bool     // the server sent a permanent stream error
	tr          *simcheck.Tracker
}

func newCoreRun(t *testing.T, capacity, page byte) *coreRun {
	done, cancel := context.WithCancel(context.Background())
	cancel()
	return &coreRun{
		t: t,
		feed: &coreFeed{capacity: 4 + uint64(capacity%13), lost: make(map[uint64]bool),
			page: []uint64{1, 2, 3, cursor.Page}[page%4]},
		done: done,
		c:    newTestClient("app", 0, 1),
		tr:   simcheck.NewTracker("client", 0),
	}
}

// accept is the server side of a handshake, as serveConn runs it.
func (r *coreRun) accept(w *wireConn, hello []byte) {
	ftype, body, _, err := readFrameReuse(bytes.NewReader(hello), nil, maxHelloPayload)
	if err != nil {
		r.t.Fatalf("the client sent an unreadable hello: %v", err)
	}
	sc := new(serverCore)
	feeds := map[string]feedEntry{"app": {raw: r.open}}
	if r.feed.unpublished {
		feeds = nil
	}
	entry, refusal, err := sc.hello(ftype, body, feeds)
	if err != nil {
		w.in = append(w.in, refusal...)
		return
	}
	frames, _, err := entry.open(r.done, sc)
	if err != nil {
		w.in = append(w.in, sc.openFailed(err)...)
		return
	}
	w.in = append(w.in, sc.welcome()...)
	r.sc, r.frames, r.server = sc, frames, w
}

func (r *coreRun) open(ctx context.Context, since uint64) (observer.Stream, error) {
	if r.feed.failOpen {
		r.feed.failOpen = false
		return nil, errors.New("feed file mid-recreation")
	}
	r.stream = &coreStream{feed: r.feed, cursor: since}
	return r.stream, nil
}

// push is one turn of the server's push loop.
func (r *coreRun) push() {
	if r.server == nil {
		return
	}
	fb, err := r.frames.NextFrame(r.done)
	switch {
	case err == nil:
		r.server.in = append(r.server.in, fb.data...)
		fb.release()
	case !errors.Is(err, context.Canceled): // not just idle: the stream ended
		r.refused = r.refused || errors.Is(err, errFrameTooLarge)
		last, _ := r.sc.ended(err, false)
		r.server.in = append(r.server.in, last...)
		r.server = nil
	}
}

// streamFails makes the live stream's next read fail: transiently, or
// with the frame cap's permanent error, which ends the client for good.
func (r *coreRun) streamFails(permanent bool) {
	if r.server == nil {
		return
	}
	r.stream.fail = errors.New("feed read failed")
	if permanent {
		r.stream.fail = errFrameTooLarge
	}
}

// cut breaks the connection after the first at bytes in flight to the
// client, which may be mid-frame.
func (r *coreRun) cut(at int) {
	if r.conn == nil {
		return
	}
	r.conn.in = r.conn.in[:min(at, len(r.conn.in))]
	r.conn.cut, r.server = true, nil
}

// corrupt garbles the next frame in flight so that no decoder can take it
// for another: an unknown type byte, or a length prefix over the cap.
func (r *coreRun) corrupt(how byte) {
	if r.conn == nil || len(r.conn.in) < 5 {
		return
	}
	if how%2 == 0 {
		r.conn.in[4] = 0x80 | how
	} else {
		r.conn.in[0] = 0x7f
	}
}

// read is one turn of the client's reader: one frame through the core
// into the read-ahead, or the end of the connection.
func (r *coreRun) read() {
	if r.conn == nil || len(r.ahead) == 2 || len(r.conn.in) == 0 && !r.conn.cut {
		return // nothing to read yet, or the reader is blocked handing a batch over
	}
	ftype, body, next, err := readFrameReuse(r.conn, r.rbuf, maxFramePayload)
	if err == nil {
		r.rbuf = next
		var nb netMsg
		if nb, err = r.c.core.frame(ftype, body, nil); err == nil {
			r.ahead = append(r.ahead, nb)
			return
		}
	}
	lived := r.now - r.connectedAt
	wait, term := r.c.core.ended(err, lived, false)
	r.conn, r.server = nil, nil
	if term != nil {
		r.stop(term)
		return
	}
	if lived < time.Second && (wait <= 0 || wait > 2*time.Second) || lived >= time.Second && wait != 0 {
		r.t.Fatalf("a connection that lived %v ended with wait %v", lived, wait)
	}
}

// redial is one dial attempt through the client's handshake.
func (r *coreRun) redial() {
	if r.conn != nil || r.stopped {
		return
	}
	w := &wireConn{run: r}
	if err := r.c.handshake(w); err != nil {
		r.server = nil
		wait, term := r.c.core.dialFailed(err)
		if term != nil {
			r.stop(term)
		} else if wait <= 0 || wait > 2*time.Second {
			r.t.Fatalf("failed dial waits %v, outside (0, 2s]", wait)
		}
		return
	}
	r.conn, r.connectedAt = w, r.now
}

// stop ends the client's stream for good, which only a feed that is gone,
// or a server that said its stream cannot be framed, may do.
func (r *coreRun) stop(err error) {
	if !r.feed.unpublished && !r.refused || !errors.Is(err, ErrRejected) {
		r.t.Fatalf("the stream ended for good while its feed was published: %v", err)
	}
	r.stopped = true
}

// deliver hands the oldest read-ahead batch out through the client's
// deliver, into the tracker.
func (r *coreRun) deliver() {
	if len(r.ahead) == 0 {
		return
	}
	nb := r.c.deliver(r.ahead[0])
	r.ahead = r.ahead[1:]
	if err := r.tr.Absorb(nb.b); err != nil {
		r.t.Fatal(err)
	}
	if r.c.Cursor() != r.tr.Cursor() || r.c.Missed() != r.tr.Missed() {
		r.t.Fatalf("client reports cursor %d missed %d, its deliveries account for cursor %d missed %d",
			r.c.Cursor(), r.c.Missed(), r.tr.Cursor(), r.tr.Missed())
	}
}

// drain lets the run settle with no more faults: unless the feed is gone,
// the client must end up at the producer's head, every position delivered
// or counted missed.
func (r *coreRun) drain() {
	r.feed.failOpen = false
	for i := 0; i < 10_000; i++ {
		if r.stopped || len(r.ahead) == 0 && r.tr.Cursor() == r.feed.head {
			return
		}
		r.redial()
		r.push()
		r.read()
		r.deliver()
	}
	r.t.Fatalf("the client stalled at cursor %d, the producer's head is %d", r.tr.Cursor(), r.feed.head)
}
