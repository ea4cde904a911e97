// Package sut is the one place where the benchmark meets the system under
// test. Every call into heartbeat, hbfile, hbshm, hbnet, observer and
// balance — and the one probe of internal/ring — goes through this file, so
// the surface the benchmark depends on is a single reviewable list, and a
// change that reshapes one of those APIs has exactly one file to follow it
// in. The wrappers add nothing: no buffering, no retries, no defaults beyond
// the constructor arguments the workloads fix.
package sut

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"repro/balance"
	"repro/hbfile"
	"repro/hbnet"
	"repro/hbshm"
	"repro/heartbeat"
	"repro/internal/ring"
	"repro/observer"
)

// Window is the default averaging window every benchmark heartbeat
// advertises; no measured path depends on it.
const Window = 20

// Record, Batch and Rollup are the system's own data types, passed through.
type (
	Record      = heartbeat.Record
	Batch       = observer.Batch
	Rollup      = observer.Rollup
	RollupBatch = hbnet.RollupBatch
)

// ---- heartbeat ----

// Sink is what a Heartbeat writes its global records to.
type Sink = heartbeat.Sink

// Heartbeat is an application's heartbeat handle on the wall clock.
type Heartbeat struct{ hb *heartbeat.Heartbeat }

// NewHeartbeat creates a heartbeat retaining capacity records, writing to
// sink when it is not nil.
func NewHeartbeat(capacity int, sink Sink) (Heartbeat, error) {
	opts := []heartbeat.Option{heartbeat.WithCapacity(capacity)}
	if sink != nil {
		opts = append(opts, heartbeat.WithSink(sink))
	}
	hb, err := heartbeat.New(Window, opts...)
	return Heartbeat{hb}, err
}

// Beat is the direct, synchronous beat path (Heartbeat.BeatTag).
func (h Heartbeat) Beat(tag int64) { h.hb.BeatTag(tag) }

// Flush merges pending per-thread records into the history and the sink.
func (h Heartbeat) Flush() { h.hb.Flush() }

// Rate reads the heart rate over the default window.
func (h Heartbeat) Rate() (float64, bool) { return h.hb.Rate(0) }

// Close flushes and releases the sink.
func (h Heartbeat) Close() error { return h.hb.Close() }

// Thread is a single-producer handle on the sharded beat path.
type Thread struct{ t *heartbeat.Thread }

// Thread registers a per-producer handle.
func (h Heartbeat) Thread(name string) Thread { return Thread{h.hb.Thread(name)} }

// Beat is the sharded beat path (Thread.GlobalBeatTag).
func (t Thread) Beat(tag int64) { t.t.GlobalBeatTag(tag) }

// Sub is an in-process subscription to a heartbeat's history.
type Sub struct{ s *heartbeat.Subscription }

// Subscribe opens a subscription from the oldest retained record.
func (h Heartbeat) Subscribe() Sub { return Sub{h.hb.Subscribe(context.Background())} }

// Poll returns the records published since the last call, decoding into
// buf, and whether there were any.
func (s Sub) Poll(buf []Record) ([]Record, bool) { return s.s.PollInto(buf) }

// Missed is how many records were overwritten before this subscription
// read them.
func (s Sub) Missed() uint64 { return s.s.Missed() }

// Close ends the subscription.
func (s Sub) Close() { s.s.Close() }

// ClockNanos is one read of the clock a beat stamps itself with.
func ClockNanos() int64 { return heartbeat.SystemClock().Now().UnixNano() }

// Ring is the single-producer ring under a Thread's beat.
type Ring struct{ r *ring.SP }

// NewRing creates a ring of the given capacity.
func NewRing(capacity int) Ring { return Ring{ring.NewSP(capacity)} }

// Push appends one entry.
func (r Ring) Push(nanos, tag int64) { r.r.Push(nanos, tag) }

// ---- hbfile and hbshm ----

// FileWriter, ShmWriter and their readers are the cross-process backends.
type (
	FileWriter struct{ w *hbfile.Writer }
	FileReader struct{ r *hbfile.Reader }
	ShmWriter  struct{ w *hbshm.Writer }
	ShmReader  struct{ r *hbshm.Reader }
)

// CreateFile creates a heartbeat ring file.
func CreateFile(path string, capacity int) (FileWriter, error) {
	w, err := hbfile.Create(path, Window, capacity)
	return FileWriter{w}, err
}

// Sink returns the writer as a heartbeat sink (the heartbeat closes it).
func (w FileWriter) Sink() Sink { return w.w }

// WriteRecords writes one batch.
func (w FileWriter) WriteRecords(recs []Record) error { return w.w.WriteRecords(recs) }

// Close closes the file.
func (w FileWriter) Close() error { return w.w.Close() }

// OpenFile opens a ring file for reading.
func OpenFile(path string) (FileReader, error) {
	r, err := hbfile.Open(path)
	return FileReader{r}, err
}

// ReadSince reads up to max records newer than since.
func (r FileReader) ReadSince(since uint64, max int) ([]Record, uint64, error) {
	return r.r.ReadSince(since, max)
}

// Close closes the file.
func (r FileReader) Close() error { return r.r.Close() }

// CreateShm creates a shared-memory heartbeat region.
func CreateShm(path string, capacity int) (ShmWriter, error) {
	w, err := hbshm.Create(path, Window, capacity)
	return ShmWriter{w}, err
}

// Sink returns the writer as a heartbeat sink (the heartbeat closes it).
func (w ShmWriter) Sink() Sink { return w.w }

// WriteRecords writes one batch.
func (w ShmWriter) WriteRecords(recs []Record) error { return w.w.WriteRecords(recs) }

// Close unmaps the region.
func (w ShmWriter) Close() error { return w.w.Close() }

// OpenShm maps a region for reading.
func OpenShm(path string) (ShmReader, error) {
	r, err := hbshm.Open(path)
	return ShmReader{r}, err
}

// ReadSinceInto reads up to max records newer than since into buf.
func (r ShmReader) ReadSinceInto(since uint64, max int, buf []Record) ([]Record, uint64, error) {
	return r.r.ReadSinceInto(since, max, buf)
}

// Close unmaps the region.
func (r ShmReader) Close() error { return r.r.Close() }

// ---- hbnet ----

// Server fans feeds out to loopback TCP subscribers.
type Server struct {
	s    *hbnet.Server
	addr string
}

// Listen starts a server on a free loopback port. Serve's error is nil
// after Close, which is the only way these servers stop.
func Listen() (*Server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("sut: listen: %w", err)
	}
	s := &Server{s: hbnet.NewServer(), addr: l.Addr().String()}
	go func() { _ = s.s.Serve(l) }()
	return s, nil
}

// Addr is the address subscribers dial.
func (s *Server) Addr() string { return s.addr }

// PublishHeartbeat publishes a live heartbeat under name.
func (s *Server) PublishHeartbeat(name string, h Heartbeat) error {
	return s.s.PublishHeartbeat(name, h.hb)
}

// Close disconnects every subscriber and waits for them.
func (s *Server) Close() error { return s.s.Close() }

// Wire counts the bytes a set of client connections read.
type Wire struct{ bytes atomic.Uint64 }

// Bytes returns the count so far.
func (w *Wire) Bytes() uint64 { return w.bytes.Load() }

// DialContext makes Wire an hbnet.Dialer over the real network.
func (w *Wire) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	return &countedConn{Conn: c, w: w}, nil
}

type countedConn struct {
	net.Conn
	w *Wire
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.w.bytes.Add(uint64(n))
	return n, err
}

func dialOpts(w *Wire) []hbnet.ClientOption {
	if w == nil {
		return nil
	}
	return []hbnet.ClientOption{hbnet.WithDialer(w)}
}

// Client is a remote subscription.
type Client struct{ c *hbnet.Client }

// Dial subscribes to a raw feed from the start of its retained history,
// counting received bytes into w when it is not nil.
func Dial(addr, feed string, w *Wire) (Client, error) {
	c, err := hbnet.Dial(addr, feed, dialOpts(w)...)
	return Client{c}, err
}

// DialRollup subscribes to a rollup feed.
func DialRollup(addr, feed string, w *Wire) (Client, error) {
	c, err := hbnet.DialRollup(addr, feed, dialOpts(w)...)
	return Client{c}, err
}

// Next blocks for the next raw batch.
func (c Client) Next(ctx context.Context) (Batch, error) { return c.c.Next(ctx) }

// NextRollups blocks for the next rollup delivery.
func (c Client) NextRollups(ctx context.Context) (RollupBatch, error) { return c.c.NextRollups(ctx) }

// Recycle hands a consumed batch's storage back.
func (c Client) Recycle(b Batch) { c.c.Recycle(b) }

// Missed is the loss the stream has reported to this consumer.
func (c Client) Missed() uint64 { return c.c.Missed() }

// Reconnects is how often the connection was re-established.
func (c Client) Reconnects() uint64 { return uint64(c.c.Reconnects()) }

// Close disconnects; on a client that was never dialed it does nothing.
func (c Client) Close() error {
	if c.c == nil {
		return nil
	}
	return c.c.Close()
}

// mergedRetain sizes every relay's merged ring. The saturated workload
// keeps up to 8 × 16384 records in flight; the ring must hold them all or
// a slow subscriber would be lapped and the run would count loss it caused
// itself.
const mergedRetain = 1 << 18

// Relay is a fan-in node.
type Relay struct {
	r       *hbnet.Relay
	clients []*hbnet.Client
}

// NewRelay creates a relay emitting rollups every rollupEvery.
func NewRelay(rollupEvery time.Duration) *Relay {
	return &Relay{r: hbnet.NewRelay(hbnet.WithRollupInterval(rollupEvery), hbnet.WithMergedRetain(mergedRetain))}
}

// DialUpstream subscribes the relay to a remote raw feed.
func (r *Relay) DialUpstream(app, addr, feed string, w *Wire) error {
	c, err := r.r.DialUpstream(app, addr, feed, dialOpts(w)...)
	if err == nil {
		r.clients = append(r.clients, c)
	}
	return err
}

// DialRollupUpstream subscribes the relay to a child's rollup feed.
func (r *Relay) DialRollupUpstream(name, addr, feed string, w *Wire) error {
	c, err := r.r.DialRollupUpstream(name, addr, feed, dialOpts(w)...)
	if err == nil {
		r.clients = append(r.clients, c)
	}
	return err
}

// AddHeartbeat subscribes the relay to an in-process heartbeat.
func (r *Relay) AddHeartbeat(app string, h Heartbeat) error {
	return r.r.AddUpstream(app, observer.HeartbeatStream(h.hb))
}

// AddFile subscribes the relay to a ring file, tailed every poll.
func (r *Relay) AddFile(app, path string, poll time.Duration) error {
	return r.r.AddFileUpstream(app, path, poll)
}

// AddShm subscribes the relay to a shared-memory region, checked every
// poll.
func (r *Relay) AddShm(app, path string, poll time.Duration) error {
	rd, err := hbshm.Open(path)
	if err != nil {
		return err
	}
	if err := r.r.AddUpstream(app, hbshm.StreamFrom(rd, poll, 0, nil)); err != nil {
		rd.Close()
		return err
	}
	return nil
}

// PublishOn exports the merged feed as "merged" and the per-upstream rollup
// feed as "rollup".
func (r *Relay) PublishOn(s *Server) error { return r.r.PublishOn(s.s, "merged", "rollup") }

// PublishCompacted exports the hierarchically compacted rollup feed.
func (r *Relay) PublishCompacted(s *Server, name string) error {
	return s.s.PublishRollup(name, r.r.CompactedFeed())
}

// Run drives the relay until ctx ends.
func (r *Relay) Run(ctx context.Context) { r.r.Run(ctx) }

// MergedHead is the newest merged sequence number.
func (r *Relay) MergedHead() uint64 { return r.r.MergedHead() }

// Shed is how many merged records the relay shed to slow subscribers.
func (r *Relay) Shed() uint64 { return r.r.Shed() }

// UpstreamMissed sums the loss the relay's dialed upstreams reported, and
// UpstreamReconnects their reconnects.
func (r *Relay) UpstreamMissed() (missed, reconnects uint64) {
	for _, c := range r.clients {
		missed += c.Missed()
		reconnects += uint64(c.Reconnects())
	}
	return missed + r.r.RollupUpstreamMissed(), reconnects
}

// Merged opens an in-process subscriber on the merged feed: the relay's
// output with no wire after it.
func (r *Relay) Merged(ctx context.Context) (Stream, error) {
	s, err := r.r.MergedFeed()(ctx, 0)
	return Stream{s}, err
}

// Close ends the relay's feeds and releases its upstreams.
func (r *Relay) Close() error { return r.r.Close() }

// Stream is an in-process record stream.
type Stream struct{ s observer.Stream }

// HeartbeatStream is the in-process stream a relay or server opens on a
// heartbeat.
func HeartbeatStream(h Heartbeat) Stream { return Stream{observer.HeartbeatStream(h.hb)} }

// Next blocks for the next batch.
func (s Stream) Next(ctx context.Context) (Batch, error) { return s.s.Next(ctx) }

// Recycle hands a consumed batch back when the stream can reuse it.
func (s Stream) Recycle(b Batch) {
	if r, ok := s.s.(hbnet.BatchRecycler); ok {
		r.Recycle(b)
	}
}

// ---- observer reducers ----

// Downsampler reduces record batches to per-app rollups.
type Downsampler struct{ d *observer.Downsampler }

// NewDownsampler returns an empty reducer.
func NewDownsampler() Downsampler { return Downsampler{observer.NewDownsampler()} }

// Absorb folds recs into app's window.
func (d Downsampler) Absorb(app string, recs []Record) { d.d.Absorb(app, Batch{Records: recs}) }

// Flush emits one rollup per app for [start, end] (Unix nanoseconds).
func (d Downsampler) Flush(start, end int64) []Rollup {
	return d.d.Flush(time.Unix(0, start), time.Unix(0, end))
}

// Compactor merges children's rollups into one per app.
type Compactor struct{ c *observer.RollupCompactor }

// NewCompactor returns an empty compactor.
func NewCompactor() Compactor { return Compactor{observer.NewRollupCompactor()} }

// Absorb folds one child window in.
func (c Compactor) Absorb(r Rollup) { c.c.Absorb(r) }

// Flush emits one compacted rollup per app for [start, end].
func (c Compactor) Flush(start, end int64) []Rollup {
	return c.c.Flush(time.Unix(0, start), time.Unix(0, end))
}

// ---- balance ----

// Table is the lock-free weighted selector.
type Table struct{ t *balance.Table }

// NewTable returns an empty table of the default size.
func NewTable() Table { return Table{balance.New()} }

// Pick returns the node owning key's bucket.
func (t Table) Pick(key uint64) (string, bool) { return t.t.Pick(key) }

// Set gives node a weight and returns the fraction of the key space that
// moved.
func (t Table) Set(node string, weight float64) float64 { return t.t.Set(node, weight).Frac() }

// Live is how many nodes currently hold weight.
func (t Table) Live() int {
	n := 0
	for _, w := range t.t.Weights() {
		if w > 0 {
			n++
		}
	}
	return n
}

// RunUpdater drives table from the rollup feed at addr under the default
// policy until ctx ends, reporting each swap's moved fraction to onSwap.
func RunUpdater(ctx context.Context, t Table, addr, feed string, w *Wire, onSwap func(frac float64)) error {
	u := balance.NewUpdater(t.t, balance.DefaultPolicy(), balance.WithOnSwap(func(s balance.Swap) { onSwap(s.Frac()) }))
	return u.Run(ctx, hbnet.DialRollupFeed(addr, feed, dialOpts(w)...), 0)
}
