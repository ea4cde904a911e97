// Package observer implements the external-observer side of the Application
// Heartbeats framework: reading a heartbeat-enabled application's progress,
// goals, and history, and classifying its health. This is the role the
// paper assigns to the OS, runtime, cloud manager, or system-administration
// tooling (§2.3, §2.4, §2.6, §5.3): observers read heartbeat data the
// application publishes and adapt on the application's behalf — or detect
// that it is hung, slow, erratic, or dead.
//
// There is one way to observe: Stream, a cursor-based incremental view that
// delivers each heartbeat record to a consumer exactly once, in batches,
// as the application publishes them. Consumers accumulate batches in a
// Window and judge it with Classifier.ClassifyWindow; Hub packages that
// loop for one or many named applications with per-application Status
// fan-out. Each stream kind has one constructor: HeartbeatStream for
// in-process heartbeats (wakes on flush, no polling), ReaderStream for a
// heartbeat file or shared-memory region another process writes (idle
// ticks cost one cursor read), FollowFile for a file path that must
// survive the producer recreating it; package hbnet carries the same
// streams across machines (hbnet.Client satisfies Stream, so hubs take
// remote applications unchanged).
//
// One ownership rule: only Hub and hbnet.Relay hold streams. The one a
// stream is handed to (Hub.Add, Relay.AddUpstream) releases it, in Remove
// or Close, by calling Close if the stream is an io.Closer. Controllers
// (package scheduler) hold none: they take a Hub's Status. The paper's two point reads,
// HB_get_history and HB_current_rate, stay where the paper put them: on
// heartbeat.Heartbeat (History, Rate) and hbfile.Reader (Last, Rate).
package observer

import (
	"context"
	"errors"
	"io"
	"sync"
	"time"

	"repro/clock"
	"repro/heartbeat"
	"repro/internal/cursor"
)

// DefaultPollInterval paces the cursor checks of streams that observe a
// medium with no wake-up channel (files and shared memory written by another
// process). Each check is a single tiny read — the cursor — never a window
// re-decode, so the interval trades only detection latency, not per-tick
// work.
//
//hbvet:api -- user need: the poll period a 0 selects, named by FollowFile, ReaderStream and the hbnet and hbshm constructors
const DefaultPollInterval = 20 * time.Millisecond

// Batch is one increment of an application's heartbeat stream: the records
// published since the previous batch plus the current advertised state.
type Batch struct {
	// Records holds the new records, oldest to newest. It is never
	// re-delivered data: across the life of a Stream each record is
	// returned at most once.
	Records []heartbeat.Record
	// Count is where the stream's reader stands after this batch: the
	// position its read consumed up to in the producer's sequence space —
	// the producer's head once the reader has caught up. It is the cursor
	// to resume from, and a batch after a resync counts from the new
	// life's zero.
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
// application costs its observers no per-record work at all.
//
// Contract: when records are already pending, Next returns them
// immediately even if ctx is already cancelled; cancellation is only
// reported once there is nothing to deliver. This makes a Next with an
// expired context a non-blocking drain, which is how deterministic loops
// (Hub.Step, DrainInto) consume streams. Next returns
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
// the drain loop behind Hub.Step, for a consumer that keeps its own Window.
//
//hbvet:api -- README tour "Consuming heartbeats": the non-blocking drain of a stream into a consumer's own Window
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
	b := Batch{Records: recs, Count: s.sub.Cursor(), Window: s.hb.Window()}
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

// PolledReader is a medium observed by cursor with no wake-up channel: a
// ring file, an append-only log, a shared-memory region. ReadSinceInto
// returns up to max records newer than since (decoded into buf when its
// capacity suffices) plus the position consumed up to — the medium's head
// when nothing bounded the read; io.EOF means the producer closed the
// medium and everything was delivered. hbfile.Reader, hbfile.LogReader and
// hbshm.Reader all have this shape, but only a ring that hbshm's writer
// closed ever returns io.EOF (through either ring reader, since the two
// share one layout): rings hbfile writes and the log never end, and a
// follower of a finished producer waits for a successor file (FollowFile).
type PolledReader interface {
	ReadSinceInto(since uint64, max int, buf []heartbeat.Record) ([]heartbeat.Record, uint64, error)
	Window() int
	Target() (min, max float64, ok bool, err error)
}

// ReaderStream streams a PolledReader: the external-observation path of
// Figure 1(b), incrementally, and the one polled cursor loop behind ring
// files, logs and shared memory alike. The cursor starts after sequence
// number since (0 streams the retained history first): records at or before
// it are never delivered, records published beyond it but already
// overwritten count as Missed, and a head below it — a recreated medium —
// resynchronizes from the start. That is how a disconnected consumer
// resumes without re-reading or double-counting. Idle ticks cost one cursor
// read every poll interval (poll <= 0 selects DefaultPollInterval) on clk's
// time (nil is the wall clock; a virtual clock makes an idle tail a
// simulation event); new records are read and decoded exactly once. The
// caller keeps ownership of r.
func ReaderStream(r PolledReader, poll time.Duration, since uint64, clk clock.Clock) *PolledStream {
	if poll <= 0 {
		poll = DefaultPollInterval
	}
	return &PolledStream{r: r, poll: poll, cursor: since, clk: clk, pool: new(recycler)}
}

// PolledStream is the Stream ReaderStream returns. Like every Stream it is
// a single-consumer cursor; a consumer done with each batch before the next
// Next can hand it back with Recycle, making the whole observation path
// allocation-free.
type PolledStream struct {
	r      PolledReader
	poll   time.Duration
	cursor uint64
	clk    clock.Clock // nil = wall clock; paces the idle-tick waits
	pool   *recycler   // the decode buffer; a followStream shares its own across reopens
}

// Recycle hands a delivered batch's record slice back for reuse by the
// next Next (the BatchRecycler hook; see heartbeatStream.Recycle).
func (s *PolledStream) Recycle(b Batch) { s.pool.put(b.Records) }

// Next implements Stream.
func (s *PolledStream) Next(ctx context.Context) (Batch, error) {
	for {
		b, ok, err := s.step()
		if err != nil {
			return Batch{}, err
		}
		if ok {
			return b, nil
		}
		if err := waitPoll(ctx, s.clk, s.poll); err != nil {
			return Batch{}, err
		}
	}
}

// waitPoll sits out one idle tick. SleepCtx checks cancellation before
// arming the poll timer, so a Next that is already cancelled — the
// non-blocking drain — costs one cursor read, not a timer allocation, and
// a Next cancelled mid-wait stops its timer.
func waitPoll(ctx context.Context, clk clock.Clock, poll time.Duration) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if !clock.SleepCtx(ctx, clk, poll) {
		return ctx.Err()
	}
	return nil
}

// step performs one non-blocking cursor check: (batch, true, nil) when new
// records (or a detected loss) advanced the cursor, (zero, false, nil) on
// an idle tick. followStream interleaves these checks with recreation
// stats, which is why the step is separate from the waiting loop.
func (s *PolledStream) step() (Batch, bool, error) {
	buf := s.pool.take()
	for {
		recs, head, err := s.r.ReadSinceInto(s.cursor, cursor.Page, buf)
		if err != nil {
			s.pool.put(buf) // EOF and failures deliver no records: keep the buffer
			return Batch{}, false, err
		}
		next, missed, move := cursor.Advance(s.cursor, head, len(recs))
		switch move {
		case cursor.Resync:
			// The medium was recreated by a restarted producer (or the
			// cursor came from another life of it): read the new life
			// from its beginning.
			s.cursor = next
			continue
		case cursor.Idle:
			s.pool.put(buf) // keep the buffer for the next delivery
			return Batch{}, false, nil
		}
		// Read the target before advancing the cursor: an error here
		// must leave the cursor in place so the retry re-delivers the
		// records instead of silently dropping them.
		min, max, ok, terr := s.r.Target()
		if terr != nil {
			s.pool.put(recs) // buf, or what replaced it when it was too small
			return Batch{}, false, terr
		}
		s.cursor = next
		return Batch{Records: recs, Count: head, Window: s.r.Window(),
			TargetMin: min, TargetMax: max, TargetSet: ok, Missed: missed}, true, nil
	}
}
