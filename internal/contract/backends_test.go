package contract

import (
	"context"
	"encoding/binary"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/clock"
	"repro/hbfile"
	"repro/hbnet"
	"repro/hbshm"
	"repro/heartbeat"
	"repro/observer"
)

// Every producer advertises the same goal and retains the same number of
// records, so one set of cases states one set of numbers.
const (
	window           = 10
	retain           = 16
	goalMin, goalMax = 5.0, 15.0
	poll             = time.Millisecond // on a virtual clock: no case waits on it
)

// backend is one medium the delivery contract is carried over, with the
// capabilities that decide which cases apply to it.
type backend struct {
	name string
	// laps: the medium retains only the newest records, so a slow reader
	// is lapped (every backend but the append-only log).
	laps bool
	// ends: the producer can end the medium, after which Next drains and
	// returns io.EOF. The hbfile ring and log never end: a follower waits
	// for a successor file instead.
	ends bool
	// reconnects: the stream survives a cut connection (the hbnet client).
	reconnects bool
	// restarts: the producer can begin a new life under the same name,
	// path or feed, and a stream opened on the old one sees it.
	restarts bool
	// goal: batches carry the producer's Window and Target. A relay's
	// merged feed mixes applications, so it carries only Count.
	goal bool
	// async: deliveries arrive on the stream's own goroutine, so an
	// expired-context Next may find nothing pending yet.
	async bool
	// lapped is how many records a read of a lapped backlog delivers:
	// retain, or one fewer where the oldest slot may be mid-rewrite.
	lapped int
	start  func(t *testing.T) *medium
}

// medium is one fresh producer on a backend.
type medium struct {
	// open returns a stream positioned after cursor since.
	open func(since uint64) observer.Stream
	// publish publishes n more records and returns once every stream
	// opened on the medium can see them.
	publish func(n int)
	// end ends the producer; nil when the medium cannot end.
	end func()
	// cut breaks the stream's connection; nil unless reconnects.
	cut func()
	// restart begins a new life of the history under the same name, path
	// or feed: its sequence numbers start over. nil unless restarts.
	restart func()
	// polled is the reader level; nil for a medium with no PolledReader.
	polled *polled
}

// polled is the PolledReader level of a medium: paging by max, buffer
// reuse and torn target reads are visible only here.
type polled struct {
	r observer.PolledReader
	// write publishes recs as given, gaps in their sequence included.
	write func(recs []heartbeat.Record)
	// tear stores the target version word: odd is the state a writer
	// that died between WriteTarget's two bumps leaves behind.
	tear func(version uint64)
}

var backends = []backend{
	{name: "heartbeat", laps: true, ends: true, goal: true, lapped: retain, start: startHeartbeat},
	{name: "hbfile-ring", laps: true, restarts: true, goal: true, lapped: retain - 1, start: startRing},
	{name: "hbfile-log", restarts: true, goal: true, start: startLog},
	{name: "hbshm", laps: true, ends: true, restarts: true, goal: true, lapped: retain - 1, start: startShm},
	{name: "hbnet", laps: true, ends: true, reconnects: true, restarts: true, goal: true, async: true, lapped: retain, start: startNet},
	{name: "relay", laps: true, ends: true, lapped: retain, start: startRelay},
}

// closeOnCleanup releases s with the test when it holds resources.
func closeOnCleanup(t *testing.T, s observer.Stream) observer.Stream {
	if c, ok := s.(interface{ Close() error }); ok {
		t.Cleanup(func() { c.Close() })
	}
	return s
}

// newHeartbeat is an in-process producer on a virtual clock with the
// shared goal and retention.
func newHeartbeat(t *testing.T) (*heartbeat.Heartbeat, func(n int)) {
	clk := clock.NewVirtual()
	hb, err := heartbeat.New(window, heartbeat.WithClock(clk), heartbeat.WithCapacity(retain))
	if err != nil {
		t.Fatal(err)
	}
	if err := hb.SetTarget(goalMin, goalMax); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hb.Close() })
	return hb, func(n int) {
		for i := 0; i < n; i++ {
			clk.Advance(time.Millisecond)
			hb.Beat()
		}
	}
}

func startHeartbeat(t *testing.T) *medium {
	hb, beat := newHeartbeat(t)
	return &medium{
		open: func(since uint64) observer.Stream {
			if since == 0 {
				return closeOnCleanup(t, observer.HeartbeatStream(hb))
			}
			return closeOnCleanup(t, observer.HeartbeatStreamFrom(hb, since))
		},
		publish: beat,
		end:     func() { hb.Close() },
	}
}

// batchWriter is what the file and shared-memory writers share.
type batchWriter interface {
	WriteRecords([]heartbeat.Record) error
	WriteTarget(min, max float64) error
	Close() error
}

// seqs returns the records numbered from through to.
func seqs(from, to uint64) []heartbeat.Record {
	var recs []heartbeat.Record
	for seq := from; seq <= to; seq++ {
		recs = append(recs, heartbeat.Record{Seq: seq, Time: time.Unix(0, int64(seq)*int64(time.Millisecond)), Tag: int64(seq)})
	}
	return recs
}

// startPolled assembles a medium observed through a PolledReader: create
// makes (or, on a restart, remakes in place) the file's writer,
// openReader attaches a reader, and stream wraps one at a cursor on a
// virtual clock.
func startPolled(t *testing.T, path string, create func() (batchWriter, error), openReader func() (observer.PolledReader, error),
	stream func(r observer.PolledReader, since uint64, clk clock.Clock) observer.Stream) *medium {
	var w batchWriter
	var head uint64
	begin := func() {
		var err error
		if w, err = create(); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteTarget(goalMin, goalMax); err != nil {
			t.Fatal(err)
		}
		head = 0
	}
	begin()
	t.Cleanup(func() { w.Close() })
	attach := func() observer.PolledReader {
		r, err := openReader()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.(interface{ Close() error }).Close() })
		return r
	}
	write := func(recs []heartbeat.Record) {
		if err := w.WriteRecords(recs); err != nil {
			t.Fatal(err)
		}
	}
	clk := clock.NewVirtual()
	return &medium{
		open: func(since uint64) observer.Stream {
			return stream(attach(), since, clk)
		},
		publish: func(n int) {
			write(seqs(head+1, head+uint64(n)))
			head += uint64(n)
		},
		// The producer recreates its file in place, as a restarted one
		// does: open readers see the new life.
		restart: func() {
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			begin()
		},
		polled: &polled{r: attach(), write: write, tear: func(version uint64) {
			f, err := os.OpenFile(path, os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			var word [8]byte
			binary.LittleEndian.PutUint64(word[:], version)
			if _, err := f.WriteAt(word[:], targetVer); err != nil {
				t.Fatal(err)
			}
		}},
	}
}

// readerStream is observer.ReaderStream, the stream over a file reader.
func readerStream(r observer.PolledReader, since uint64, clk clock.Clock) observer.Stream {
	return observer.ReaderStream(r, poll, since, clk)
}

// targetVer is the target version word's offset in the one ring layout
// hbfile and hbshm share, and in the log.
const targetVer = 32

func startRing(t *testing.T) *medium {
	path := filepath.Join(t.TempDir(), "app.hb")
	return startPolled(t, path, func() (batchWriter, error) { return hbfile.Create(path, window, retain) },
		func() (observer.PolledReader, error) { return hbfile.Open(path) }, readerStream)
}

func startLog(t *testing.T) *medium {
	path := filepath.Join(t.TempDir(), "app.hbl")
	return startPolled(t, path, func() (batchWriter, error) { return hbfile.CreateLog(path, window) },
		func() (observer.PolledReader, error) { return hbfile.OpenLog(path) }, readerStream)
}

func startShm(t *testing.T) *medium {
	path := filepath.Join(t.TempDir(), "app.shm")
	var w *hbshm.Writer
	m := startPolled(t, path, func() (batchWriter, error) {
		var err error
		w, err = hbshm.Create(path, window, retain)
		return w, err
	}, func() (observer.PolledReader, error) { return hbshm.Open(path) },
		func(r observer.PolledReader, since uint64, clk clock.Clock) observer.Stream {
			return hbshm.StreamFrom(r.(*hbshm.Reader), poll, since, clk)
		})
	m.end = func() { w.Close() }
	return m
}

// cutDialer dials loopback and remembers the client's connections, so a
// case can break them and watch the client redial.
type cutDialer struct {
	mu    sync.Mutex
	conns []net.Conn
}

func (d *cutDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
	if err == nil {
		d.mu.Lock()
		d.conns = append(d.conns, c)
		d.mu.Unlock()
	}
	return c, err
}

func (d *cutDialer) cut() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, c := range d.conns {
		c.Close()
	}
	d.conns = nil
}

func startNet(t *testing.T) *medium {
	hb, beat := newHeartbeat(t)
	srv := hbnet.NewServer()
	if err := srv.PublishHeartbeat("app", hb); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	d := new(cutDialer)
	return &medium{
		open: func(since uint64) observer.Stream {
			c, err := hbnet.DialFrom(l.Addr().String(), "app", since,
				hbnet.WithDialer(d), hbnet.WithReconnectBackoff(time.Millisecond, 10*time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			return closeOnCleanup(t, c)
		},
		publish: func(n int) { beat(n) },
		end:     func() { hb.Close() },
		cut:     d.cut,
		// A new producer is published under the feed's name; the client
		// meets it on its redial, at its old cursor.
		restart: func() {
			hb, beat = newHeartbeat(t)
			if err := srv.PublishHeartbeat("app", hb); err != nil {
				t.Fatal(err)
			}
			d.cut()
		},
	}
}

// chanStream is a relay upstream fed by hand: each Next returns the next
// batch sent on in.
type chanStream struct{ in chan observer.Batch }

func (s chanStream) Next(ctx context.Context) (observer.Batch, error) {
	select {
	case b := <-s.in:
		return b, nil
	case <-ctx.Done():
		return observer.Batch{}, ctx.Err()
	}
}

func startRelay(t *testing.T) *medium {
	rel := hbnet.NewRelay(hbnet.WithMergedRetain(retain))
	up := chanStream{make(chan observer.Batch)}
	if err := rel.AddUpstream("app", up); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	go func() { rel.Run(ctx); close(stopped) }()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			cancel()
			<-stopped
			rel.Close()
		})
	}
	t.Cleanup(stop)
	var head uint64
	return &medium{
		open: func(since uint64) observer.Stream {
			s, err := rel.MergedFeed()(context.Background(), since)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		publish: func(n int) {
			recs := seqs(head+1, head+uint64(n))
			head += uint64(n)
			up.in <- observer.Batch{Records: recs, Count: head}
			// The pump absorbs a batch before it reads the next, so once
			// this empty one is taken the records are in the merged ring.
			up.in <- observer.Batch{Count: head}
		},
		end: stop,
	}
}
