package observer

import (
	"context"
	"errors"
	"io"
	"sync"
	"time"

	"repro/hbfile"
	"repro/heartbeat"
)

// DefaultPollInterval paces the cursor checks of streams that observe a
// medium with no wake-up channel (files written by another process, foreign
// Sources). Each check is a single tiny read — the cursor — never a window
// re-decode, so the interval trades only detection latency, not per-tick
// work.
const DefaultPollInterval = 20 * time.Millisecond

// Batch is one increment of an application's heartbeat stream: the records
// published since the previous batch plus the current advertised state.
type Batch struct {
	// Records holds the new records, oldest to newest. It is never
	// re-delivered data: across the life of a Stream each record is
	// returned at most once.
	Records []heartbeat.Record
	// Count is the total number of heartbeats registered so far.
	Count uint64
	// Window is the application's default averaging window.
	Window int
	// TargetMin and TargetMax are the advertised goal; valid when
	// TargetSet.
	TargetMin, TargetMax float64
	TargetSet            bool
	// Missed counts records that were published since the previous batch
	// but overwritten before this consumer could read them (a consumer
	// outrun by the producer's ring). 0 in healthy operation.
	Missed uint64
}

// Stream is the primary consumer-side abstraction: an incremental,
// cursor-based view of one application's heartbeats. Next blocks until new
// records are published and returns them as a Batch — so an idle
// application costs its observers no per-record work at all, where the old
// Snapshot polling re-read and re-decoded the whole window every tick.
//
// Contract: when records are already pending, Next returns them
// immediately even if ctx is already cancelled; cancellation is only
// reported once there is nothing to deliver. This makes a Next with an
// expired context a non-blocking drain, which is how deterministic loops
// (Hub.Step, scheduler.CoreScheduler.Step) consume streams. Next returns
// io.EOF when the producer has closed the stream and every record has been
// delivered.
//
// A Stream is a single-consumer cursor: calls to Next must not overlap.
// Open one stream per consumer — they are cheap, and each keeps its own
// position.
type Stream interface {
	Next(ctx context.Context) (Batch, error)
}

// noWaitCtx is an already-cancelled context: by the Stream contract,
// Next(noWaitCtx) returns pending data immediately and context.Canceled
// when idle — a non-blocking drain.
var noWaitCtx = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

// DrainInto absorbs every already-published batch of s into w without
// blocking. eof reports that the stream ended (the producer closed); the
// window keeps its final state and further drains are pointless. This is
// the one drain loop shared by every deterministic consumer (Hub.Step,
// scheduler.CoreScheduler.Step, scheduler.Partitioner.Step).
func DrainInto(s Stream, w *Window) (eof bool, err error) {
	for {
		b, nerr := s.Next(noWaitCtx)
		if nerr == nil {
			w.Absorb(b)
			continue
		}
		switch {
		case errors.Is(nerr, io.EOF):
			return true, nil
		case errors.Is(nerr, context.Canceled):
			return false, nil // nothing pending: the non-blocking drain is done
		default:
			return false, nerr
		}
	}
}

// CollectInto absorbs batches of s into w until deadline (eof false, err
// nil — a normal idle tick), stream end (eof true), ctx cancellation
// (err = ctx.Err()), or a stream failure. This is the one
// deadline-bounded collect loop shared by the wall-clock consumers
// (Monitor.Run, scheduler.CoreScheduler.Run, hbmon -follow).
func CollectInto(ctx context.Context, s Stream, w *Window, deadline time.Time) (eof bool, err error) {
	return CollectIntoClock(ctx, s, w, deadline, nil)
}

// CollectIntoClock is CollectInto on an explicit clock: the deadline is
// interpreted (and waited out) on clk's time, so a virtual clock makes the
// collect interval a simulation event instead of a host sleep. A nil clk
// (or any clock without scheduling) is the wall clock.
func CollectIntoClock(ctx context.Context, s Stream, w *Window, deadline time.Time, clk heartbeat.Clock) (eof bool, err error) {
	dctx, cancel := heartbeat.ContextWithTimeout(ctx, clk, deadline.Sub(clockNow(clk)))
	defer cancel()
	for {
		b, nerr := s.Next(dctx)
		if nerr == nil {
			w.Absorb(b)
			// Check the clock, not just dctx: a producer fast enough to
			// have records pending on every Next would otherwise keep this
			// loop absorbing forever (pending data wins over an expired
			// context by the Stream contract) and starve the caller's
			// judgment tick.
			if !clockNow(clk).Before(deadline) {
				return false, nil
			}
			continue
		}
		switch {
		case errors.Is(nerr, io.EOF):
			return true, nil
		case ctx.Err() != nil:
			return false, ctx.Err()
		case errors.Is(nerr, context.DeadlineExceeded) && dctx.Err() != nil:
			return false, nil // the interval elapsed: a normal idle tick
		default:
			return false, nerr
		}
	}
}

// clockNow is heartbeat.Now under the package's local name.
func clockNow(clk heartbeat.Clock) time.Time { return heartbeat.Now(clk) }

// HeartbeatStream streams an in-process *heartbeat.Heartbeat: the
// self-observation path of Figure 1(a), now push-based. A blocked Next
// wakes when a flush publishes records — there is no polling. The first
// batch delivers the retained history, so a late-attaching observer still
// sees the recent past.
func HeartbeatStream(hb *heartbeat.Heartbeat) Stream {
	return &heartbeatStream{hb: hb, sub: hb.Subscribe(context.Background())}
}

// HeartbeatStreamFrom is HeartbeatStream resuming after global sequence
// number since: the first batch delivers only records newer than since,
// with records published-but-lapped beyond the cursor counted as Missed —
// exactly a local subscription resumed via SubscribeFrom. This is the
// resume point remote fan-out (package hbnet) replays reconnecting
// subscribers from.
func HeartbeatStreamFrom(hb *heartbeat.Heartbeat, since uint64) Stream {
	return &heartbeatStream{hb: hb, sub: hb.SubscribeFrom(context.Background(), since)}
}

// recycler holds the one record slice a consumer handed back (Recycle): a
// consumer that returns each batch once done — the hbnet server does, after
// encoding; the relay does, after merging — makes the stream reuse one
// backing array instead of allocating per delivery. It is locked because
// Next is single-consumer but Recycle may be called from the goroutine
// that drained the batch.
type recycler struct {
	mu   sync.Mutex
	free []heartbeat.Record
}

// take removes and returns the held slice (nil when there is none).
func (p *recycler) take() []heartbeat.Record {
	p.mu.Lock()
	buf := p.free
	p.free = nil
	p.mu.Unlock()
	return buf
}

// put keeps recs' storage for the next take unless one is already held.
func (p *recycler) put(recs []heartbeat.Record) {
	if cap(recs) == 0 {
		return
	}
	p.mu.Lock()
	if p.free == nil {
		p.free = recs[:0]
	}
	p.mu.Unlock()
}

type heartbeatStream struct {
	hb         *heartbeat.Heartbeat
	sub        *heartbeat.Subscription
	lastMissed uint64
	pool       recycler
}

func (s *heartbeatStream) Next(ctx context.Context) (Batch, error) {
	recs, err := s.sub.NextInto(ctx, s.pool.take())
	if err != nil {
		if errors.Is(err, heartbeat.ErrClosed) {
			return Batch{}, io.EOF
		}
		return Batch{}, err
	}
	b := Batch{Records: recs, Count: s.hb.Count(), Window: s.hb.Window()}
	b.TargetMin, b.TargetMax, b.TargetSet = s.hb.Target()
	m := s.sub.Missed()
	b.Missed = m - s.lastMissed
	s.lastMissed = m
	return b, nil
}

// Recycle hands a delivered batch's record slice back for reuse by the
// next Next (the BatchRecycler hook). Only call it when the batch's
// records are completely consumed — the next delivery overwrites them.
func (s *heartbeatStream) Recycle(b Batch) { s.pool.put(b.Records) }

// Close releases the underlying subscription. The Stream interface does
// not require Close; it exists for consumers that outlive their interest
// in the heartbeat.
func (s *heartbeatStream) Close() error {
	s.sub.Close()
	return nil
}

// FileStream streams a heartbeat ring file written by another process: the
// external-observation path of Figure 1(b), incrementally. Idle ticks cost
// one 8-byte cursor read every poll interval (poll <= 0 selects
// DefaultPollInterval); new records are read and decoded exactly once.
func FileStream(r *hbfile.Reader, poll time.Duration) Stream {
	return FileStreamFrom(r, poll, 0)
}

// FileStreamFrom is FileStream with the cursor pre-positioned after
// sequence number since — records at or before since are never delivered,
// and records published beyond since but already overwritten count as
// Missed. It is how a disconnected consumer of a ring file resumes without
// re-reading (or double-counting) what it already saw.
func FileStreamFrom(r *hbfile.Reader, poll time.Duration, since uint64) Stream {
	return newRingFileStream(r, poll, since)
}

// FileStreamClock is FileStreamFrom on an explicit clock: poll waits run
// on clk's time (virtual for a sim clock), so an idle tail is a
// simulation event instead of a host sleep. A nil clk is the wall clock.
func FileStreamClock(r *hbfile.Reader, poll time.Duration, since uint64, clk heartbeat.Clock) Stream {
	s := newRingFileStream(r, poll, since)
	s.clk = clk
	return s
}

// newRingFileStream is the one place the ring-file cursor loop is wired
// up (FileStreamFrom and followStream.open share it).
func newRingFileStream(r *hbfile.Reader, poll time.Duration, since uint64) *fileStream {
	if poll <= 0 {
		poll = DefaultPollInterval
	}
	return &fileStream{read: r.ReadSinceInto, window: r.Window, target: r.Target, poll: poll, cursor: since, pool: new(recycler)}
}

// LogStream streams an append-only heartbeat log (hbfile.LogReader),
// tailing appended records without ever re-reading delivered ones. Large
// backlogs are paged in bounded batches; poll <= 0 selects
// DefaultPollInterval.
func LogStream(r *hbfile.LogReader, poll time.Duration) Stream {
	return LogStreamFrom(r, poll, 0)
}

// LogStreamFrom is LogStream resuming after sequence number since (see
// FileStreamFrom).
func LogStreamFrom(r *hbfile.LogReader, poll time.Duration, since uint64) Stream {
	return newLogFileStream(r, poll, since)
}

// LogStreamClock is LogStreamFrom on an explicit clock (see
// FileStreamClock).
func LogStreamClock(r *hbfile.LogReader, poll time.Duration, since uint64, clk heartbeat.Clock) Stream {
	s := newLogFileStream(r, poll, since)
	s.clk = clk
	return s
}

// newLogFileStream is newRingFileStream's append-only-log counterpart;
// the max bound pages large backlogs in batches.
func newLogFileStream(r *hbfile.LogReader, poll time.Duration, since uint64) *fileStream {
	if poll <= 0 {
		poll = DefaultPollInterval
	}
	return &fileStream{read: r.ReadSinceInto, window: r.Window, target: r.Target, poll: poll, max: 65536, cursor: since, pool: new(recycler)}
}

// fileStream is the shared cursor loop over either hbfile reader variant.
type fileStream struct {
	read   func(since uint64, max int, buf []heartbeat.Record) ([]heartbeat.Record, uint64, error)
	window func() int
	target func() (min, max float64, ok bool, err error)
	poll   time.Duration
	max    int
	cursor uint64
	clk    heartbeat.Clock // nil = wall clock; paces the idle-tick waits
	pool   *recycler       // the decode buffer; a followStream shares its own across reopens
}

// Recycle hands a delivered batch's record slice back for reuse by the
// next Next (the BatchRecycler hook; see heartbeatStream.Recycle).
func (s *fileStream) Recycle(b Batch) { s.pool.put(b.Records) }

func (s *fileStream) Next(ctx context.Context) (Batch, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		b, ok, err := s.step()
		if err != nil {
			return Batch{}, err
		}
		if ok {
			return b, nil
		}
		select {
		case <-ctx.Done():
			return Batch{}, ctx.Err()
		case <-heartbeat.After(s.clk, s.poll):
		}
	}
}

// step performs one non-blocking cursor check: (batch, true, nil) when new
// records (or a detected loss) advanced the cursor, (zero, false, nil) on
// an idle tick. followStream interleaves these checks with recreation
// stats, which is why the step is separate from the waiting loop.
func (s *fileStream) step() (Batch, bool, error) {
	buf := s.pool.take()
	for {
		recs, cur, err := s.read(s.cursor, s.max, buf)
		if err != nil {
			s.pool.put(buf) // a failure delivers no records: keep the buffer
			return Batch{}, false, err
		}
		if cur < s.cursor {
			// The file's head is behind the cursor: the file was
			// recreated by a restarted producer (or the cursor came from
			// another life of it, the FileStreamFrom resume case).
			// Resynchronize from the beginning — parity with the
			// in-process Subscription resync — rather than silently
			// skipping the new life's records until it passes the old
			// cursor. The records between the two lives are unknowable,
			// so they are not counted as Missed.
			s.cursor = 0
			continue
		}
		if cur == s.cursor {
			s.pool.put(buf) // idle tick: keep the buffer for the next delivery
			return Batch{}, false, nil
		}
		// Read the target before advancing the cursor: an error here
		// must leave the cursor in place so the retry re-delivers the
		// records instead of silently dropping them.
		min, max, ok, terr := s.target()
		if terr != nil {
			s.pool.put(recs) // buf, or what replaced it when it was too small
			return Batch{}, false, terr
		}
		b := Batch{Records: recs, Count: cur, Window: s.window(),
			TargetMin: min, TargetMax: max, TargetSet: ok}
		if d := cur - s.cursor; d > uint64(len(recs)) {
			b.Missed = d - uint64(len(recs))
		}
		s.cursor = cur
		return b, true, nil
	}
}

// PollStream adapts any Source to the Stream interface by polling
// snapshots and forwarding only records newer than the cursor. It is the
// compatibility fallback: each check still pays the source's full snapshot
// cost, so native streams (HeartbeatStream, FileStream, LogStream) are
// preferred wherever they apply — StreamOf picks them automatically.
// poll <= 0 selects DefaultPollInterval.
func PollStream(src Source, poll time.Duration) Stream {
	return PollStreamClock(src, poll, nil)
}

// PollStreamClock is PollStream on an explicit clock (see FileStreamClock);
// a nil clk is the wall clock.
func PollStreamClock(src Source, poll time.Duration, clk heartbeat.Clock) Stream {
	if poll <= 0 {
		poll = DefaultPollInterval
	}
	return &pollStream{src: src, poll: poll, clk: clk}
}

type pollStream struct {
	src    Source
	poll   time.Duration
	cursor uint64
	clk    heartbeat.Clock // nil = wall clock
}

func (s *pollStream) Next(ctx context.Context) (Batch, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		snap, err := s.src.Snapshot(0)
		if err != nil {
			return Batch{}, err
		}
		recs := snap.Records
		var fresh []heartbeat.Record
		if n := len(recs); n > 0 && recs[n-1].Seq == 0 {
			// The source does not populate Seq (nothing in the snapshot
			// API forced it to): fall back to count-based dedup so the
			// stream still progresses instead of silently delivering
			// nothing forever. Count regressions resynchronize.
			if snap.Count < s.cursor {
				s.cursor = 0
			}
			if snap.Count > s.cursor {
				k := snap.Count - s.cursor
				if k > uint64(n) {
					k = uint64(n)
				}
				fresh = recs[n-int(k):]
				s.cursor = snap.Count
			}
		} else {
			if n := len(recs); n > 0 && recs[n-1].Seq < s.cursor {
				// Sequence numbers regressed: the observed history was
				// recreated (application restart). Resynchronize rather
				// than silence the stream forever.
				s.cursor = 0
			}
			i := len(recs)
			for i > 0 && recs[i-1].Seq > s.cursor {
				i--
			}
			fresh = recs[i:]
			if len(fresh) > 0 {
				s.cursor = fresh[len(fresh)-1].Seq
			}
		}
		if len(fresh) > 0 {
			return Batch{
				Records:   fresh,
				Count:     snap.Count,
				Window:    snap.Window,
				TargetMin: snap.TargetMin,
				TargetMax: snap.TargetMax,
				TargetSet: snap.TargetSet,
			}, nil
		}
		select {
		case <-ctx.Done():
			return Batch{}, ctx.Err()
		case <-heartbeat.After(s.clk, s.poll):
		}
	}
}

// StreamOf converts a Source to its natural Stream: the built-in sources
// map to their native incremental streams (in-process subscription, file
// cursor tail), and anything else falls back to snapshot polling through
// PollStream. poll paces the fallback and the file cursors; poll <= 0
// selects DefaultPollInterval. This is the migration path for code holding
// a Source from the pre-stream API.
func StreamOf(src Source, poll time.Duration) Stream {
	return StreamOfClock(src, poll, nil)
}

// StreamOfClock is StreamOf on an explicit clock: the derived stream's
// poll waits run on clk, so the Source-compat path participates in
// virtual time like the native streams (Hub.AddSource, Monitor.Run, and
// scheduler.New thread their own clocks through here). A nil clk is the
// wall clock.
func StreamOfClock(src Source, poll time.Duration, clk heartbeat.Clock) Stream {
	switch s := src.(type) {
	case hbSource:
		return HeartbeatStream(s.hb)
	case fileSource:
		return FileStreamClock(s.r, poll, 0, clk)
	case logSource:
		return LogStreamClock(s.r, poll, 0, clk)
	default:
		return PollStreamClock(src, poll, clk)
	}
}
