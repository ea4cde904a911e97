package heartbeat

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/cursor"
)

// ErrClosed is returned by Subscription.Next once the Heartbeat has been
// closed and every published record has been delivered.
var ErrClosed = errors.New("heartbeat: closed")

// subscribers is the registry of wake channels behind Subscribe. The wake
// path is lock-free — the registered channels are republished copy-on-write
// (the aggregator's shardsPtr pattern) — so beats never contend on a
// registry mutex: with no subscribers a wake is one atomic load, and with
// subscribers it is non-blocking channel sends.
type subscribers struct {
	closed   atomic.Bool
	chansPtr atomic.Pointer[[]chan struct{}]
	mu       sync.Mutex
	chans    map[*Subscription]chan struct{}
}

// wake nudges every subscriber that new records are visible in the store.
// Sends are non-blocking into one-slot channels: a subscriber that already
// has a pending wake coalesces further ones, and a mid-read subscriber
// re-checks the cursor before sleeping, so no wake is ever needed twice.
func (s *subscribers) wake() {
	p := s.chansPtr.Load()
	if p == nil {
		return
	}
	for _, ch := range *p {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// republishLocked snapshots the channel set for the lock-free wake path.
// Callers hold s.mu.
func (s *subscribers) republishLocked() {
	if len(s.chans) == 0 {
		s.chansPtr.Store(nil)
		return
	}
	snap := make([]chan struct{}, 0, len(s.chans))
	for _, ch := range s.chans {
		snap = append(snap, ch)
	}
	s.chansPtr.Store(&snap)
}

func (s *subscribers) add(sub *Subscription, ch chan struct{}) {
	s.mu.Lock()
	if s.chans == nil {
		s.chans = make(map[*Subscription]chan struct{})
	}
	s.chans[sub] = ch
	s.republishLocked()
	s.mu.Unlock()
}

func (s *subscribers) remove(sub *Subscription) {
	s.mu.Lock()
	if _, ok := s.chans[sub]; ok {
		delete(s.chans, sub)
		s.republishLocked()
	}
	s.mu.Unlock()
}

// close marks the heartbeat closed and wakes every subscriber so blocked
// Next calls can drain the tail and return ErrClosed.
func (s *subscribers) close() {
	s.closed.Store(true)
	s.wake()
}

// ReadSince returns the retained global records with sequence number
// greater than since, oldest to newest, plus the cursor to pass to the next
// ReadSince. Pending shard records are merged first (same discipline as
// History). An idle call — no beats since the last cursor — does no
// per-record work: it is a merge-backlog check plus one atomic load.
//
// One call returns at most one page: the records among the oldest
// cursor.Page (65 536) positions newer than since that the history still
// retains. The cursor normally advances to the page's end — the newest
// assigned sequence number once the reader has caught up — so a reader
// far behind a history larger than a page catches up over several calls.
// When cursor-since exceeds len(records), the difference was overwritten
// (or discarded under backlog pressure) before this reader got to it;
// consumers that must not miss records size WithCapacity to cover their
// maximum read lag. Subscription tracks that loss as Missed.
//
//hbvet:api -- ARCHITECTURE data flow: consumers are cursors (ReadSince, Subscribe)
func (h *Heartbeat) ReadSince(since uint64) ([]Record, uint64) {
	return h.readSinceInto(since, nil)
}

// readSinceInto is ReadSince reusing buf as the returned slice's backing
// storage when its capacity suffices (nil buf allocates, exactly like
// ReadSince). A poller that hands each delivered batch back — the hbnet
// server's per-subscriber stream does, via its recycler — reads the
// history with no per-poll allocation at all.
func (h *Heartbeat) readSinceInto(since uint64, buf []Record) ([]Record, uint64) {
	if h.agg.active() && h.agg.mu.TryLock() {
		h.agg.mergeLocked()
		h.agg.mu.Unlock()
	}
	return h.store.readSince(since, buf)
}

// Subscription is a cursor over the global heartbeat history that delivers
// new records in batches as they are published — the push form of
// ReadSince, and like it at most one page (cursor.Page) per call; Cursor
// is where the last call stopped. Obtain one with Subscribe or
// SubscribeFrom. Next and PollInto must be called from a single goroutine
// at a time; Close may be called from any goroutine.
// Independent subscriptions have independent cursors, so any number of
// consumers can stream the same Heartbeat without coordinating.
type Subscription struct {
	h         *Heartbeat
	ctx       context.Context
	ch        chan struct{}
	done      chan struct{}
	closeOnce sync.Once
	cursor    uint64
	missed    uint64
}

// Subscribe returns a Subscription positioned before the oldest retained
// record: the first Next delivers the retained history, then each
// subsequent Next delivers records as flushes publish them (a blocked Next
// wakes on publication — there is no polling). ctx bounds the subscription's
// lifetime: once it is cancelled, Next returns its error. A nil ctx means
// context.Background().
func (h *Heartbeat) Subscribe(ctx context.Context) *Subscription {
	return h.SubscribeFrom(ctx, 0)
}

// SubscribeFrom is Subscribe starting after sequence number since: the
// first Next delivers only records newer than since. A consumer that was
// disconnected resumes exactly where it left off by passing its last
// Cursor, receiving each record once across the resubscribe.
func (h *Heartbeat) SubscribeFrom(ctx context.Context, since uint64) *Subscription {
	if ctx == nil {
		ctx = context.Background()
	}
	s := &Subscription{h: h, ctx: ctx, ch: make(chan struct{}, 1), done: make(chan struct{}), cursor: since}
	h.subs.add(s, s.ch)
	return s
}

// Next blocks until records newer than the cursor are published, then
// returns them oldest to newest and advances the cursor. It returns
// immediately when records are already pending, even if ctx is already
// cancelled — cancellation is only checked once there is nothing to
// deliver, so a consumer never loses data to a race with its own shutdown.
// An empty batch with a nil error means records were published but
// overwritten before they could be read; Missed counts them.
//
// Next returns ctx.Err() (or the Subscribe ctx's error) on cancellation and
// ErrClosed once the Heartbeat — or this Subscription — is closed and
// fully drained.
//
//hbvet:api -- README streaming tour: sub.Next delivers what was published since
func (s *Subscription) Next(ctx context.Context) ([]Record, error) {
	return s.NextInto(ctx, nil)
}

// NextInto is Next decoding into buf when its capacity suffices (nil buf
// allocates, exactly like Next). Pair it with a consumer that returns each
// delivered slice once done.
func (s *Subscription) NextInto(ctx context.Context, buf []Record) ([]Record, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		if recs, ok := s.PollInto(buf); ok {
			return recs, nil
		}
		if s.h.subs.closed.Load() || s.isClosed() {
			// Re-check after observing closed: Close publishes the final
			// flush before setting the flag, but a record can land
			// between our PollInto and the flag load.
			if recs, ok := s.PollInto(buf); ok {
				return recs, nil
			}
			return nil, ErrClosed
		}
		select {
		case <-s.ch:
		case <-s.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-s.ctx.Done():
			return nil, s.ctx.Err()
		}
	}
}

func (s *Subscription) isClosed() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// PollInto is the non-blocking form of NextInto: it returns (records, true)
// and advances the cursor when anything was published since the last call
// — records may be empty if the window was overwritten — and (nil, false)
// when the cursor is already current. buf is reused as by NextInto.
func (s *Subscription) PollInto(buf []Record) ([]Record, bool) {
	for {
		recs, head := s.h.readSinceInto(s.cursor, buf)
		next, missed, move := cursor.Advance(s.cursor, head, len(recs))
		s.cursor = next
		switch move {
		case cursor.Moved:
			s.missed += missed
			return recs, true
		case cursor.Idle:
			return nil, false
		}
		// Resync: this subscription was resumed (SubscribeFrom) with a
		// cursor from a previous life of the producer; read the new life
		// from its beginning rather than stall until it passes the old
		// cursor.
	}
}

// Cursor returns the sequence number the subscription has consumed up to;
// pass it to SubscribeFrom to resume after a disconnect.
func (s *Subscription) Cursor() uint64 { return s.cursor }

// Missed returns how many records were overwritten before this
// subscription could read them (0 whenever the history capacity covers the
// consumer's read lag).
func (s *Subscription) Missed() uint64 { return s.missed }

// Close unregisters the subscription and wakes any goroutine blocked in
// Next, whose next idle return is ErrClosed (pending records are still
// delivered first). Close does not invalidate the cursor:
// SubscribeFrom(ctx, s.Cursor()) continues the stream without loss or
// duplication. Close is idempotent and may be called from any goroutine.
func (s *Subscription) Close() {
	s.closeOnce.Do(func() {
		s.h.subs.remove(s)
		close(s.done)
	})
}
