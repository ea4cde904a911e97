package hbnet

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/clock"
	"repro/heartbeat"
	"repro/internal/cursor"
	"repro/internal/pump"
	"repro/observer"
)

// This file is the hierarchical fan-in tier: a Relay subscribes to many
// upstream heartbeat streams (remote hbnet feeds, local files, in-process
// heartbeats — anything satisfying observer.Stream), merges them into one
// bounded replay ring with its own dense sequence space, reduces them into
// per-app rollup windows, and re-exports both as hbnet feeds. Because the
// merged feed is itself an ordinary feed, relays compose into trees:
// producers → leaf relays → a root relay → one monitor connection, keeping
// every node's fan-in (and every subscriber's connection count) bounded
// while the fleet underneath grows.

// RollupBatch is one delivery of a rollup feed: the rollups of one or more
// emissions, flattened, plus the emission cursor to resume from. Missed
// counts emissions that were dropped from the relay's bounded rollup
// history before this subscriber could read them — downsampling keeps the
// same never-silent loss accounting as raw streams.
type RollupBatch struct {
	Rollups []observer.Rollup
	// Cursor is the emission index of the newest delivered emission; a
	// reconnecting subscriber presents it to resume exactly.
	Cursor uint64
	// Missed counts emissions lapped before delivery.
	Missed uint64
}

// RollupStream is the rollup counterpart of observer.Stream: Next blocks
// until new emissions are published and honors the same non-blocking-drain
// contract (pending data is returned even under an expired ctx; io.EOF
// after the publisher closes).
//
//hbvet:api -- user need: implement or wrap a rollup source; opening a RollupFeed yields one, AddRollupUpstream takes one
type RollupStream interface {
	Next(ctx context.Context) (RollupBatch, error)
}

// RollupFeed opens one subscriber's view of a rollup stream, positioned
// after emission number since — the rollup counterpart of Feed.
type RollupFeed func(ctx context.Context, since uint64) (RollupStream, error)

// maxRelayBatch bounds how many records a replay-ring subscriber receives
// per Next, keeping every frame the server builds from it far inside the
// wire caps.
const maxRelayBatch = 1 << 16

// maxRollupBatchBytes bounds the estimated encoded size of one rollup
// delivery (whole emissions; at least one emission is always delivered),
// keeping every frame far inside maxFramePayload even when app names run
// to their maxFeedName limit. A single emission can only exceed it with
// thousands of maximally-named upstreams on one relay — the server's
// frame guard still catches that pathology explicitly.
const maxRollupBatchBytes = 4 << 20

// rollupWireCost over-estimates one rollup's encoded size: its app name
// plus a generous fixed overhead for every other field.
func rollupWireCost(r observer.Rollup) int { return len(r.App) + 64 }

// replayRing is the relay's merged history: a bounded ring of records in
// the relay's own dense sequence space, fanned out to any number of
// cursor-carrying subscribers. Appends re-sequence the records (a relay
// hop assigns hop-local sequence numbers — origin spaces from different
// upstreams collide) and widen the space by the upstream's reported losses,
// so a gap in the upstream surfaces to every subscriber exactly once, as
// Missed, through ordinary cursor arithmetic.
type replayRing struct {
	mu    sync.Mutex
	recs  []replayEntry // ring storage, strictly increasing seq
	start int
	n     int
	head  uint64 // newest assigned seq, counting gap (missed) seqs
	// notify wakes blocked subscribers; nil while nobody waits. Lazy on
	// purpose: an append only pays for a channel when a subscriber is
	// actually parked, so the saturated fan-in steady state — subscribers
	// always behind, never waiting — closes and recreates nothing.
	notify chan struct{}
	closed bool

	// Shed accounting: winBase is the newest evicted record's Seq — a
	// cursor at or above it is still inside the retained window; a cursor
	// below it has been lapped and the span up to the shed floor is
	// charged to shedTotal when the subscriber next reads. lagBound, when
	// positive, additionally floors every read at head-lagBound (the
	// WithShedLag policy), so a slow subscriber is advanced and the skip
	// counted instead of silently trailing the full ring.
	winBase   uint64
	lagBound  int
	shedTotal uint64

	// Encode-once fan-out cache (guarded by mu): the encoded frame of the
	// last frameSince read, keyed by the cursor it was read from. In the
	// fan-out steady state every subscriber sits at the same cursor, so N
	// subscribers share one encode and one buffer instead of paying N.
	// Invalidated (its reference released) by every append.
	fbuf *frameBuf
	fkey uint64 // the `since` the cached frame was encoded for
	fcur uint64 // the cursor the cached frame advances to
}

// replayEntry is one retained record as the wire carries it: 32 bytes and
// no pointer, where a heartbeat.Record is 48 bytes and, through its
// time.Time's *Location, pointer-bearing — so a full ring is a span the
// garbage collector never scans. Records convert on the way in (append) and
// back at the API edge (readSince); frameSince encodes straight from it.
type replayEntry struct {
	seq      uint64
	nanos    int64
	tag      int64
	producer int32
}

func newReplayRing(capacity int) *replayRing {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	return &replayRing{recs: make([]replayEntry, capacity)}
}

// wakeLocked wakes parked subscribers, if any. Callers hold r.mu.
func (r *replayRing) wakeLocked() {
	if r.notify != nil {
		close(r.notify)
		r.notify = nil
	}
}

// waitChanLocked returns the channel a subscriber with nothing to read
// parks on, creating it on first need. Callers hold r.mu.
func (r *replayRing) waitChanLocked() <-chan struct{} {
	if r.notify == nil {
		r.notify = make(chan struct{})
	}
	return r.notify
}

// append re-sequences recs into the ring. missed widens the sequence space
// without storing records; producer, when >= 0, overwrites each record's
// Producer with the hop-local upstream id. The batch is written in at most
// two contiguous spans; records it would lap within itself are skipped.
func (r *replayRing) append(recs []heartbeat.Record, missed uint64, producer int32) {
	if len(recs) == 0 && missed == 0 {
		return
	}
	r.mu.Lock()
	r.head += missed
	if m := len(recs); m > 0 {
		base := r.head + 1 // recs[j] gets seq base+j
		c := len(r.recs)
		skip := max(m-c, 0) // lapped within the batch itself
		pos := (r.start + r.n + skip) % c
		if evict := r.n + m - c; evict > 0 {
			// The oldest evict entries of the window followed by the batch
			// are overwritten: every cursor below the newest of them is now
			// lapped (see winBase).
			if evict <= r.n {
				r.winBase = r.recs[(r.start+evict-1)%c].seq
			} else {
				r.winBase = base + uint64(evict-r.n-1)
			}
			r.start = (r.start + evict) % c
		}
		r.n = min(r.n+m, c)
		for j := skip; j < m; {
			span := r.recs[pos:min(c, pos+m-j)]
			for k := range span {
				rec := &recs[j+k]
				span[k] = replayEntry{seq: base + uint64(j+k), nanos: rec.Time.UnixNano(), tag: rec.Tag, producer: rec.Producer}
				if producer >= 0 {
					span[k].producer = producer
				}
			}
			j, pos = j+len(span), 0
		}
		r.head += uint64(m)
	}
	if r.fbuf != nil {
		r.fbuf.release()
		r.fbuf = nil
	}
	r.wakeLocked()
	r.mu.Unlock()
}

// window returns the k retained entries from window index i (0 is the
// oldest) as at most two contiguous runs of ring storage, in seq order:
// the ring's one walk, shared by readSince and frameSince.
func (r *replayRing) window(i, k int) (lo, hi []replayEntry) {
	c := len(r.recs)
	from, to := r.start+i, r.start+i+k
	switch {
	case from >= c:
		return r.recs[from-c : to-c], nil
	case to <= c:
		return r.recs[from:to], nil
	default:
		return r.recs[from:], r.recs[:to-c]
	}
}

// close marks the ring ended; subscribers drain and then see io.EOF.
func (r *replayRing) close() {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		r.wakeLocked()
	}
	r.mu.Unlock()
}

// shedFloorLocked returns the lowest cursor this read may proceed from:
// winBase (everything below it was lapped out of the ring) raised to
// head-lagBound when the shed-lag policy is set. Callers hold r.mu.
func (r *replayRing) shedFloorLocked() uint64 {
	floor := r.winBase
	if r.lagBound > 0 && r.head > uint64(r.lagBound) && r.head-uint64(r.lagBound) > floor {
		floor = r.head - uint64(r.lagBound)
	}
	return floor
}

// readSince returns up to max retained records with Seq > since plus the
// cursor to resume from, how many seqs below the shed floor were skipped
// for this subscriber (already folded into shedTotal), the current notify
// channel (valid until the next append) and the closed flag. When the
// returned batch is not truncated by max the cursor advances to head, so
// trailing gap seqs (upstream losses with no records) are accounted in the
// same read.
func (r *replayRing) readSince(since uint64, max int) (out []heartbeat.Record, cur uint64, shed uint64, notify <-chan struct{}, closed bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	closed = r.closed
	if r.head <= since {
		// Idle — or a foreign cursor from a previous relay life (head <
		// since): return head either way so the caller resynchronizes.
		// Only this branch can leave the caller waiting, so only it pays
		// for a wait channel.
		return nil, r.head, 0, r.waitChanLocked(), closed
	}
	eff := since
	if floor := r.shedFloorLocked(); eff < floor {
		// Lapped (or beyond the lag bound): the span up to the floor was
		// dropped by THIS ring — attribute it, don't just widen Missed.
		shed = floor - eff
		r.shedTotal += shed
		eff = floor
	}
	// First retained index with seq > eff (records are seq-ordered).
	i := sort.Search(r.n, func(i int) bool {
		return r.recs[(r.start+i)%len(r.recs)].seq > eff
	})
	take := r.n - i
	truncated := false
	if take > max {
		take, truncated = max, true
	}
	if take > 0 {
		out = make([]heartbeat.Record, 0, take)
		lo, hi := r.window(i, take)
		for _, span := range [2][]replayEntry{lo, hi} {
			for _, e := range span {
				out = append(out, heartbeat.Record{Seq: e.seq, Time: time.Unix(0, e.nanos), Tag: e.tag, Producer: e.producer})
			}
		}
	}
	if truncated {
		cur = out[len(out)-1].Seq
	} else {
		cur = r.head
	}
	return out, cur, shed, notify, closed
}

// shed returns the cumulative shed count across every subscriber read.
func (r *replayRing) shed() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.shedTotal
}

// frameSince is readSince's zero-copy counterpart: the same read, returned
// as an encoded batch frame built directly from ring storage — no record
// slice is materialized, and the encode happens at most once per (cursor,
// head) because the result is cached until the next append. The returned
// frame carries one reference owned by the caller; release it after
// writing. A nil frame means nothing newer than since exists — cur then
// reports head so the caller can resynchronize (cur < since) or wait on
// notify (cur == since).
//
// Frame size needs no guard here: take <= maxRelayBatch and a record
// encodes to at most maxRecordBytes, keeping every frame far inside
// maxFramePayload.
func (r *replayRing) frameSince(since uint64, max int) (fb *frameBuf, cur uint64, shed uint64, notify <-chan struct{}, closed bool) {
	r.mu.Lock()         //hbvet:allow hotpath -- bounded per-feed critical section; the gated contract is zero allocations, not zero locks
	defer r.mu.Unlock() //hbvet:allow hotpath -- pairs with the lock above
	closed = r.closed
	if r.head <= since {
		return nil, r.head, 0, r.waitChanLocked(), closed //hbvet:allow hotpath -- caught-up park path: lazily makes the notify channel, off the delivery path
	}
	eff := since
	if floor := r.shedFloorLocked(); eff < floor {
		// Shed attribution happens before the cache check so a cache hit
		// still charges this subscriber; the shed span stays inside the
		// frame's Missed (computed from the original cursor below), so the
		// wire contract is unchanged — shed refines Missed, never adds to it.
		shed = floor - eff
		r.shedTotal += shed
		eff = floor
	}
	if r.fbuf != nil && r.fkey == since {
		r.fbuf.retain()
		return r.fbuf, r.fcur, shed, notify, closed
	}
	i := sort.Search(r.n, func(i int) bool { //hbvet:allow hotpath -- encode-once path: runs only on cache miss, once per (cursor, head)
		return r.recs[(r.start+i)%len(r.recs)].seq > eff
	})
	take := r.n - i
	truncated := take > max
	if truncated {
		take = max
		cur = r.recs[(r.start+i+take-1)%len(r.recs)].seq
	} else {
		cur = r.head // trailing gap seqs are accounted in the same read
	}
	var b observer.Batch
	b.Count = cur
	_, b.Missed, _ = cursor.Advance(since, cur, take)
	fb = newFrameBuf()                       //hbvet:allow hotpath -- encode-once path: pooled buffer acquired once per (cursor, head)
	buf := append(fb.data, 0, 0, 0, 0)       //hbvet:allow hotpath -- encode-once path: grows pooled storage, amortized across reuse
	buf = appendBatchMeta(buf, b, cur, take) //hbvet:allow hotpath -- encode-once path
	var prevSeq uint64
	var prevNanos int64
	lo, hi := r.window(i, take)
	for _, span := range [2][]replayEntry{lo, hi} {
		for k := range span {
			e := &span[k]
			buf = appendRecordDelta(buf, e.seq, e.nanos, e.tag, e.producer, &prevSeq, &prevNanos) //hbvet:allow hotpath -- encode-once path
		}
	}
	binary.BigEndian.PutUint32(buf, uint32(len(buf)-4))
	fb.data = buf
	// The cache takes its own reference; the caller keeps the original.
	fb.retain()
	if r.fbuf != nil {
		r.fbuf.release() //hbvet:allow hotpath -- encode-once path: cache handoff, once per new frame
	}
	r.fbuf, r.fkey, r.fcur = fb, since, cur
	return fb, cur, shed, notify, closed
}

// ShedCounter is implemented by subscriber streams that count how many
// sequence numbers the publisher shed to them: records dropped by this
// hop's bounded window (or its WithShedLag policy) rather than lost
// upstream. Shed is always a refinement of the Missed the same subscriber
// observed — shed <= missed, never in addition to it.
//
//hbvet:api -- ARCHITECTURE shedding tour: per-subscriber shed counts
type ShedCounter interface {
	Shed() uint64
}

// ringCursor is one subscriber's position in a relay ring, and the one
// place the relay's subscriber streams settle a read: the cursor rule, then
// — when there is nothing to deliver — the wait for the ring's next append.
type ringCursor struct{ cursor uint64 }

// settle applies the cursor rule to one ring read: head is the position the
// read consumed up to, n how many items it returned, notify and closed the
// ring's wake channel and ended flag as of the read. ok means deliver (the
// cursor has advanced; missed is the span the read passed over). Otherwise
// the caller reads again: settle has either resynchronized a cursor from a
// previous life of the relay (the records between the two lives are
// unknowable, so not Missed) or parked until the ring moved. A closed,
// drained ring is io.EOF; cancellation is reported only when idle.
func (c *ringCursor) settle(ctx context.Context, head uint64, n int, notify <-chan struct{}, closed bool) (missed uint64, ok bool, err error) {
	next, missed, move := cursor.Advance(c.cursor, head, n)
	c.cursor = next
	if move != cursor.Idle {
		return missed, move == cursor.Moved, nil
	}
	if closed {
		return 0, false, io.EOF
	}
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-ctx.Done():
		return 0, false, ctx.Err()
	case <-notify:
		return 0, false, nil
	}
}

// replayStream is one subscriber's cursor over a replayRing; it satisfies
// observer.Stream with the same resync-and-loss semantics as every other
// stream in the system.
type replayStream struct {
	ring *replayRing
	ringCursor
	shedN atomic.Uint64
}

// Shed reports how many seqs the ring shed to this subscriber (lapped or
// lag-bounded spans skipped at read time) — the per-subscriber share of the
// ring's total. Safe to call concurrently with Next/NextFrame.
func (s *replayStream) Shed() uint64 { return s.shedN.Load() }

func (s *replayStream) Next(ctx context.Context) (observer.Batch, error) {
	for {
		recs, cur, shed, notify, closed := s.ring.readSince(s.cursor, maxRelayBatch)
		if shed != 0 {
			s.shedN.Add(shed)
		}
		missed, ok, err := s.settle(ctx, cur, len(recs), notify, closed)
		if ok {
			return observer.Batch{Records: recs, Count: cur, Missed: missed}, nil
		}
		if err != nil {
			return observer.Batch{}, err
		}
	}
}

// NextFrame is the server's zero-copy fast path over the ring: the same
// replay-resync-loss semantics as Next, delivered as a pre-encoded frame
// shared with every other subscriber at the same cursor (frameStream). The
// frame carries its own Missed, so settle only moves the cursor.
func (s *replayStream) NextFrame(ctx context.Context) (*frameBuf, error) {
	for {
		fb, cur, shed, notify, closed := s.ring.frameSince(s.cursor, maxRelayBatch)
		if shed != 0 {
			s.shedN.Add(shed)
		}
		_, ok, err := s.settle(ctx, cur, 0, notify, closed)
		if ok {
			return fb, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// rollupRing retains the last N rollup emissions (one emission = the
// rollups of every tracked app for one downsample window) for replay to
// reconnecting rollup subscribers.
type rollupRing struct {
	mu     sync.Mutex
	emits  [][]observer.Rollup
	start  int
	n      int
	head   uint64 // emission count
	notify chan struct{}
	closed bool
}

// rollupRetain is how many rollup emissions a relay retains: how many
// downsample windows a reconnecting rollup subscriber can replay.
const rollupRetain = 256

func newRollupRing() *rollupRing {
	return &rollupRing{emits: make([][]observer.Rollup, rollupRetain), notify: make(chan struct{})}
}

func (r *rollupRing) append(rs []observer.Rollup) {
	if len(rs) == 0 {
		return
	}
	r.mu.Lock()
	r.head++
	r.emits[(r.start+r.n)%len(r.emits)] = rs
	if r.n < len(r.emits) {
		r.n++
	} else {
		r.start = (r.start + 1) % len(r.emits)
	}
	close(r.notify)
	r.notify = make(chan struct{})
	r.mu.Unlock()
}

func (r *rollupRing) close() {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		close(r.notify)
		r.notify = make(chan struct{})
	}
	r.mu.Unlock()
}

// readSince returns the flattened rollups of emissions since+1..head
// (bounded by maxRollupBatchBytes, whole emissions, at least one), the
// emission cursor consumed up to, how many emissions were delivered, the
// notify channel, and the closed flag.
func (r *rollupRing) readSince(since uint64) (out []observer.Rollup, cur uint64, delivered uint64, notify <-chan struct{}, closed bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	notify, closed = r.notify, r.closed
	if r.head <= since {
		return nil, r.head, 0, notify, closed
	}
	oldest := r.head - uint64(r.n) + 1
	first := since + 1
	if first < oldest {
		first = oldest // the gap below is the caller's Missed
	}
	cur = since
	bytes := 0
	for e := first; e <= r.head; e++ {
		rs := r.emits[(r.start+int(e-oldest))%len(r.emits)]
		cost := 0
		for _, ru := range rs {
			cost += rollupWireCost(ru)
		}
		if len(out) > 0 && bytes+cost > maxRollupBatchBytes {
			break
		}
		out = append(out, rs...)
		bytes += cost
		delivered++
		cur = e
	}
	return out, cur, delivered, notify, closed
}

// rollupReplayStream is one subscriber's cursor over a rollupRing.
type rollupReplayStream struct {
	ring *rollupRing
	ringCursor
}

func (s *rollupReplayStream) Next(ctx context.Context) (RollupBatch, error) {
	for {
		rs, cur, delivered, notify, closed := s.ring.readSince(s.cursor)
		missed, ok, err := s.settle(ctx, cur, int(delivered), notify, closed)
		if ok {
			return RollupBatch{Rollups: rs, Cursor: cur, Missed: missed}, nil
		}
		if err != nil {
			return RollupBatch{}, err
		}
	}
}

// RelayOption configures NewRelay.
type RelayOption func(*Relay)

// WithRollupInterval sets the downsample window length: one rollup per
// tracked app is emitted every d (default 1s).
func WithRollupInterval(d time.Duration) RelayOption {
	return func(r *Relay) {
		if d > 0 {
			r.rollupEvery = d
		}
	}
}

// WithMergedRetain bounds the merged replay ring (default 65536 records,
// 32 bytes each, so 2 MiB): how far behind (or how long disconnected) a raw
// subscriber may fall before lapped records surface as Missed.
func WithMergedRetain(n int) RelayOption {
	return func(r *Relay) { r.mergedRetain = n }
}

// WithRelayOnError installs a callback for per-upstream stream failures
// (default: dropped; a failing upstream surfaces as silence in its
// rollups). Transient failures are retried on the rollup cadence and
// re-reported each attempt; a terminal rejection (ErrRejected) is
// reported once and the upstream retired. f runs on the failing
// upstream's pump goroutine, so calls for different upstreams may run
// concurrently, and f must not remove its own upstream (the removal would
// wait for the pump that is running f).
func WithRelayOnError(f func(app string, err error)) RelayOption {
	return func(r *Relay) { r.onError = f }
}

// WithRelayOnRollup installs a callback invoked on Run's rollup tick with
// each emission — the local observation hook (hbmon -relay prints these).
func WithRelayOnRollup(f func([]observer.Rollup)) RelayOption {
	return func(r *Relay) { r.onRollup = f }
}

// WithRelayClock runs the relay on an explicit clock: rollup windows are
// stamped and flushed on clk's time, and the pump re-poll/retry pacing
// follows it, so a virtual clock drives the whole fan-in node as a
// simulation participant. A nil clk is the wall clock.
func WithRelayClock(clk clock.Clock) RelayOption {
	return func(r *Relay) { r.clk = clk }
}

// WithShedLag bounds how far behind the merged head a raw subscriber may
// trail before the relay sheds the excess: a subscriber whose cursor falls
// more than n seqs behind is advanced to head-n on its next read and the
// skipped span counted (per-subscriber via ShedCounter, relay-wide via
// Shed) instead of silently trailing the full replay ring. n <= 0 (the
// default) disables the policy — only an actual ring lap sheds. Shed seqs
// stay inside the subscriber's Missed: the wire contract delivered+Missed
// == head is unchanged; shedding attributes the loss to this hop's
// backpressure decision rather than to the upstream.
//
//hbvet:api -- README relay tour: the shed bound a relay operator tightens
func WithShedLag(n int) RelayOption {
	return func(r *Relay) { r.shedLag = n }
}

// Relay is a hierarchical fan-in node: it subscribes to N upstream
// heartbeat streams, merges them into one bounded history in its own dense
// sequence space, reduces them into per-app rollup windows every interval,
// and re-exports both as feeds (MergedFeed, RollupFeed — publish them with
// PublishOn). Add upstreams with AddUpstream / DialUpstream /
// AddFileUpstream, then drive the relay with Run.
//
// Composition: a relay's merged feed is an ordinary raw feed, so another
// relay can dial it as an upstream — trees of relays keep both each node's
// fan-in and the final observer's connection count bounded as the fleet
// grows. Each hop re-sequences records (hop-local dense seqs, Producer
// rewritten to the hop-local upstream id) and conserves loss accounting:
// records + Missed is invariant end to end.
//
// Run may be restarted with a fresh context; the merged history and rollup
// history survive across runs (and across Server restarts — a relay
// process that loses its listener re-publishes the same feeds and resuming
// subscribers lose nothing the rings still retain).
type Relay struct {
	rollupEvery  time.Duration
	mergedRetain int
	shedLag      int // WithShedLag bound on the merged ring; 0 = off
	onError      func(app string, err error)
	onRollup     func([]observer.Rollup)
	clk          clock.Clock // nil = wall clock

	merged    *replayRing
	rollups   *rollupRing
	compacted *rollupRing

	mu        sync.Mutex
	ds        *observer.Downsampler     // guarded by mu: every pump absorbs into it
	raw       upstreamSet               // AddUpstream registrations
	rollup    upstreamSet               // AddRollupUpstream registrations: their own namespace
	nextID    int32                     // next raw upstream id: unique per registration life, never reused
	compactor *observer.RollupCompactor // guarded by mu, like ds
	rupMissed uint64                    // child rollup emissions lapped before absorption
	winFrom   time.Time                 // current rollup window's start
	pumps     pump.Group
	closed    bool
}

// relayUpstream is one registration, raw or rollup: exactly one of stream
// and rstream is set, and that choice is the only thing the lifecycle —
// pump, retire, remove — ever asks of the kind (next, absorbLocked,
// retireLocked, closeStream).
type relayUpstream struct {
	set     *upstreamSet // the namespace it is registered in
	name    string
	id      int32           // raw: the hop-local Producer id of its records
	stream  observer.Stream // raw: records for the merged history and the downsampler
	rstream RollupStream    // rollup: a child's per-app windows for the compactor
	rec     BatchRecycler   // stream's recycler, when it has one

	pump     pump.Pump
	eof      bool
	removing bool // a removal owns this registration's teardown
}

// next blocks in the upstream's stream for its next delivery.
func (up *relayUpstream) next(ctx context.Context) (relayEvent, error) {
	ev := relayEvent{up: up}
	var err error
	if up.rstream != nil {
		ev.rbatch, err = up.rstream.Next(ctx)
	} else {
		ev.batch, err = up.stream.Next(ctx)
	}
	return ev, err
}

// closeStream releases the upstream's stream when it can be closed.
func (up *relayUpstream) closeStream() {
	var s any = up.stream
	if up.rstream != nil {
		s = up.rstream
	}
	if c, ok := s.(io.Closer); ok {
		c.Close()
	}
}

// upstreamSet is one namespace of registrations in registration order.
type upstreamSet struct {
	kind   string // "upstream" or "rollup upstream", for error text
	byName map[string]*relayUpstream
	order  []string
}

func (s *upstreamSet) add(up *relayUpstream) {
	up.set = s
	s.byName[up.name] = up
	s.order = append(s.order, up.name)
}

func (s *upstreamSet) remove(name string) {
	delete(s.byName, name)
	for i, n := range s.order {
		if n == name {
			s.order = append(s.order[:i], s.order[i+1:]...)
			return
		}
	}
}

// relayEvent is one delivery of a pump's read: batch or rbatch, by the
// upstream's kind.
type relayEvent struct {
	up     *relayUpstream
	batch  observer.Batch
	rbatch RollupBatch
}

// NewRelay creates a relay with no upstreams yet.
func NewRelay(opts ...RelayOption) *Relay {
	r := &Relay{
		rollupEvery: time.Second,
		ds:          observer.NewDownsampler(),
		raw:         upstreamSet{kind: "upstream", byName: make(map[string]*relayUpstream)},
		compactor:   observer.NewRollupCompactor(),
		rollup:      upstreamSet{kind: "rollup upstream", byName: make(map[string]*relayUpstream)},
	}
	for _, o := range opts {
		o(r)
	}
	r.winFrom = r.now()
	r.merged = newReplayRing(r.mergedRetain)
	r.merged.lagBound = r.shedLag
	r.rollups = newRollupRing()
	r.compacted = newRollupRing()
	return r
}

// AddUpstream registers a live stream under a unique app name: feed
// registration from any observer.Stream — an hbnet Client, a FollowFile
// tail, an in-process HeartbeatStream. The relay takes ownership (the
// stream is closed with the relay when it implements io.Closer). Upstreams
// may be added while Run is active; their pump starts immediately.
func (r *Relay) AddUpstream(app string, stream observer.Stream) error {
	if stream == nil {
		return fmt.Errorf("hbnet: nil upstream stream for %q", app)
	}
	up := &relayUpstream{name: app, stream: stream}
	up.rec, _ = stream.(BatchRecycler)
	return r.register(&r.raw, up)
}

// register is the one registration path: validate, claim the name in set,
// and start the pump when a Run loop is live.
func (r *Relay) register(set *upstreamSet, up *relayUpstream) error {
	if len(up.name) > maxFeedName {
		return fmt.Errorf("hbnet: %s name exceeds %d bytes", set.kind, maxFeedName)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("hbnet: relay closed")
	}
	if _, dup := set.byName[up.name]; dup {
		return fmt.Errorf("hbnet: duplicate %s %q", set.kind, up.name)
	}
	if up.stream != nil {
		// Ids are allocated, never recycled: a name removed and re-added
		// gets a fresh id, so records from the two registration lives stay
		// distinguishable in the merged seq space (len(order) would collide
		// after any removal).
		up.id = r.nextID
		r.nextID++
		r.ds.Track(up.name) // silent upstreams still roll up, as silence
	}
	set.add(up)
	r.startPumpLocked(up) // joins a live Run; a no-op otherwise
	return nil
}

// DialUpstream dials a remote feed and registers it as an upstream: how a
// relay subscribes to a producer's server — or to another relay's merged
// feed, composing a tree. The relay's clock (WithRelayClock) is passed to
// the client so its reconnect pacing follows the same time as the rest of
// the fan-in node; explicit ClientOptions still override it. The returned
// client is owned by the relay; it is returned for introspection
// (Reconnects, Missed).
func (r *Relay) DialUpstream(app, addr, feed string, opts ...ClientOption) (*Client, error) {
	return r.dialUpstream(app, addr, feed, 0, frameBatch, opts)
}

// dialUpstream is the one dial-and-register path behind the Dial*Upstream
// methods: the relay's clock goes ahead of opts (so explicit options still
// override it), the client subscribes to a feed of the given kind from
// since, and a client the relay refuses to register is closed.
func (r *Relay) dialUpstream(name, addr, feed string, since uint64, kind byte, opts []ClientOption) (*Client, error) {
	if r.clk != nil {
		opts = append([]ClientOption{WithClientClock(r.clk)}, opts...)
	}
	c, err := dial(addr, feed, since, kind, opts)
	if err != nil {
		return nil, err
	}
	if kind == frameRollup {
		err = r.AddRollupUpstream(name, clientRollupStream{c})
	} else {
		err = r.AddUpstream(name, c)
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// AddFileUpstream registers a heartbeat ring or log file as an upstream,
// tailed live via observer.FollowFile — so a producer that restarts
// and recreates its file resumes instead of flatlining. poll <= 0 selects
// observer.DefaultPollInterval.
func (r *Relay) AddFileUpstream(app, path string, poll time.Duration) error {
	s, err := observer.FollowFile(path, poll, 0, r.clk)
	if err != nil {
		return err
	}
	if err := r.AddUpstream(app, s); err != nil {
		if c, ok := s.(io.Closer); ok {
			c.Close()
		}
		return err
	}
	return nil
}

// CursorSource is implemented by streams that report how far into their
// upstream's sequence space they have consumed — the resume cursor. A
// Handoff from a removal carries it so the destination can resume exactly
// where the source stopped (Client implements it; Rebalance dials from
// it).
//
//hbvet:api -- ARCHITECTURE handoff tour: what Rebalance needs of a stream
type CursorSource interface {
	Cursor() uint64
}

// Handoff is what removing an upstream yields: everything a caller needs to
// re-home the producer on another relay without double-delivering or
// gapping. Stream is the detached source stream (nil when the removal
// closed it); Cursor is its final consumed position when the stream reports
// one (HasCursor). Re-homing has two shapes: re-add the detached Stream
// itself (its internal cursor carries the position — RebalanceStream), or
// dial a fresh connection positioned at Cursor (Rebalance).
type Handoff struct {
	App       string
	Stream    observer.Stream
	Cursor    uint64
	HasCursor bool
}

// RemoveUpstream retires the named upstream at runtime: its pump is
// cancelled and waited out (everything it consumed is already absorbed into
// the merged history when it exits), its final partial rollup window is
// emitted, its stream is closed (the relay owns it), and the name becomes
// reusable immediately. Safe while Run is active or stopped; returns an
// error for an unknown name. The returned Handoff carries the stream's
// final cursor when it reports one (CursorSource), so a caller re-homing
// the producer can resume it elsewhere exactly.
func (r *Relay) RemoveUpstream(app string) (Handoff, error) {
	return r.removeUpstream(app, true)
}

func (r *Relay) removeUpstream(app string, closeStream bool) (Handoff, error) {
	up, err := r.unregister(&r.raw, app)
	if err != nil {
		return Handoff{}, err
	}
	h := Handoff{App: app, Stream: up.stream}
	if cs, ok := up.stream.(CursorSource); ok {
		h.Cursor, h.HasCursor = cs.Cursor(), true
	}
	if closeStream {
		h.Stream = nil
		up.closeStream()
	}
	return h, nil
}

// RemoveRollupUpstream retires the named rollup upstream the same way
// RemoveUpstream retires a raw one: pump cancelled and waited out (its
// deliveries already folded into the compactor), stream closed, name freed.
// Compactor per-app state stays — the applications still exist even when
// this child stops reporting them.
//
//hbvet:api -- ARCHITECTURE elastic membership: rollup upstreams join and leave like raw ones
func (r *Relay) RemoveRollupUpstream(name string) error {
	up, err := r.unregister(&r.rollup, name)
	if err != nil {
		return err
	}
	up.closeStream()
	return nil
}

// unregister is the one removal path: cancel the named upstream's pump,
// wait it out, and retire the registration. The pump is the registration's
// only absorber, so once it has exited everything it consumed is in the
// relay's state; and because removing is set before the cancel, the pump's
// own end-of-stream path leaves the retirement to this call. It returns the
// retired registration, whose stream is now the caller's.
func (r *Relay) unregister(set *upstreamSet, name string) (*relayUpstream, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, fmt.Errorf("hbnet: relay closed")
	}
	up, ok := set.byName[name]
	if !ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("hbnet: unknown %s %q", set.kind, name)
	}
	if up.removing {
		r.mu.Unlock()
		return nil, fmt.Errorf("hbnet: %s %q already being removed", set.kind, name)
	}
	up.removing = true // pumps will not restart for it
	done := r.pumps.Cancel(&up.pump)
	r.mu.Unlock()
	<-done
	r.mu.Lock()
	final := r.retireLocked(up)
	r.mu.Unlock()
	r.rollups.append(final)
	return up, nil
}

// retireLocked is the one retire step, shared by removal and stream end:
// free the name and — for a raw upstream — close the app's downsampler
// account, returning its mid-window counts as one last emission so rollup
// conservation holds across the retirement. (Compactor state is keyed by
// application, not by child name, so it stays.) Callers hold r.mu and
// append the result to r.rollups after releasing it.
func (r *Relay) retireLocked(up *relayUpstream) []observer.Rollup {
	up.set.remove(up.name)
	if up.stream != nil {
		if final, active := r.ds.Remove(up.name, r.winFrom, r.now()); active {
			return []observer.Rollup{final}
		}
	}
	return nil
}

// Rebalance migrates a dialed upstream from src to dst: src's registration
// is removed (its connection closed) and dst dials the same feed resuming
// at the cursor src had consumed to, so the producer's records arrive
// exactly once across the move — no double delivery, no gap beyond what the
// feed itself already lapped. The source stream must report its cursor
// (CursorSource, as every *Client does); for streams that do not, move the
// stream object itself with RebalanceStream.
//
//hbvet:api -- ARCHITECTURE handoff tour: the cursor-preserving re-dial
func Rebalance(src, dst *Relay, app, addr, feed string, opts ...ClientOption) (*Client, error) {
	src.mu.Lock()
	up, ok := src.raw.byName[app]
	var cs CursorSource
	if ok {
		cs, _ = up.stream.(CursorSource)
	}
	src.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("hbnet: unknown upstream %q", app)
	}
	if cs == nil {
		return nil, fmt.Errorf("hbnet: upstream %q reports no cursor; use RebalanceStream", app)
	}
	h, err := src.RemoveUpstream(app)
	if err != nil {
		return nil, err
	}
	return dst.dialUpstream(app, addr, feed, h.Cursor, frameBatch, opts)
}

// RebalanceStream migrates the named upstream from src to dst by moving the
// stream object itself: detach from src (draining everything already
// consumed into src's history), re-add to dst. The stream's internal
// cursor carries the position, so delivery continues on dst exactly where
// src stopped — the migration path for file tails and in-process streams
// that cannot be re-dialed.
func RebalanceStream(src, dst *Relay, app string) error {
	// Removal without closing the stream: ownership moves to this call
	// through h.Stream.
	h, err := src.removeUpstream(app, false)
	if err != nil {
		return err
	}
	if h.Stream == nil {
		return fmt.Errorf("hbnet: upstream %q had no stream to migrate", app)
	}
	if err := dst.AddUpstream(app, h.Stream); err != nil {
		// Try to put it back rather than strand a live stream; if src
		// refuses too (closed, name retaken), release it.
		if rerr := src.AddUpstream(app, h.Stream); rerr != nil {
			if c, ok := h.Stream.(io.Closer); ok {
				c.Close()
			}
		}
		return err
	}
	return nil
}

// AddRollupUpstream registers a child relay's rollup stream under a unique
// name: hierarchical rollup compaction. Where AddUpstream makes this relay
// re-reduce raw records (per-producer work), a rollup upstream feeds the
// child's already-reduced per-app windows into a RollupCompactor, so an
// interior node's rollup state is O(apps) — constant per application,
// independent of how many producers beat below the child. The relay takes
// ownership (the stream is closed with the relay when it implements
// io.Closer); the pump starts immediately when Run is active.
//
//hbvet:api -- ARCHITECTURE elastic membership: rollup upstreams join and leave like raw ones
func (r *Relay) AddRollupUpstream(name string, stream RollupStream) error {
	if stream == nil {
		return fmt.Errorf("hbnet: nil rollup upstream stream for %q", name)
	}
	return r.register(&r.rollup, &relayUpstream{name: name, rstream: stream})
}

// DialRollupUpstream dials a child relay's published rollup feed and
// registers it for compaction — how an interior node of a relay tree
// subscribes to the per-app summaries below it. The relay's clock is
// propagated like DialUpstream's. The returned client is owned by the
// relay; it is returned for introspection.
func (r *Relay) DialRollupUpstream(name, addr, feed string, opts ...ClientOption) (*Client, error) {
	return r.dialUpstream(name, addr, feed, 0, frameRollup, opts)
}

// Apps returns the upstream names in registration order.
func (r *Relay) Apps() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.raw.order...)
}

// MergedHead returns the newest sequence number of the merged history:
// total records relayed plus upstream losses.
func (r *Relay) MergedHead() uint64 {
	r.merged.mu.Lock()
	defer r.merged.mu.Unlock()
	return r.merged.head
}

// Shed returns the cumulative count of merged-history seqs shed across all
// raw subscribers: spans a subscriber skipped because this relay's bounded
// window lapped them (or its WithShedLag policy advanced past them), each
// subscriber read charged individually. Shed loss is always inside the
// Missed those subscribers observed — this counter attributes it to this
// hop's backpressure rather than to the upstreams. Per-subscriber shares
// are available on streams opened from MergedFeed via ShedCounter.
func (r *Relay) Shed() uint64 { return r.merged.shed() }

// MergedFeed returns the raw merged feed: every upstream's records in the
// relay's own dense sequence space (Producer = hop-local upstream id),
// replay-then-live-push from any cursor.
func (r *Relay) MergedFeed() Feed {
	return func(ctx context.Context, since uint64) (observer.Stream, error) {
		return &replayStream{ring: r.merged, ringCursor: ringCursor{since}}, nil
	}
}

// RollupFeed returns the downsampled feed: one Rollup per upstream per
// interval, replayable across the retained emissions.
func (r *Relay) RollupFeed() RollupFeed {
	return func(ctx context.Context, since uint64) (RollupStream, error) {
		return &rollupReplayStream{r.rollups, ringCursor{since}}, nil
	}
}

// CompactedFeed returns the hierarchically compacted feed: one Rollup per
// application per interval, merged from every rollup upstream — the
// O(apps) view a relay-tree root exports, however many producers feed the
// leaves. Publish it with srv.PublishRollup under its own name (by
// convention "apps", beside the relay's own per-upstream "rollup" feed).
func (r *Relay) CompactedFeed() RollupFeed {
	return func(ctx context.Context, since uint64) (RollupStream, error) {
		return &rollupReplayStream{r.compacted, ringCursor{since}}, nil
	}
}

// RollupApps returns the application names the compactor tracks, in first-
// seen order: at a tree's root, the fleet's applications.
func (r *Relay) RollupApps() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.compactor.Apps()
}

// RollupUpstreamMissed returns how many child rollup emissions were lapped
// before this relay absorbed them. The compacted feed's count conservation
// is exact only while it stays zero (the same caveat as
// simcheck.RollupAccount's EmissionsMissed).
func (r *Relay) RollupUpstreamMissed() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rupMissed
}

// PublishOn registers the merged feed and the rollup feed on srv under the
// given names (the conventional pair is "merged" and "rollup"). Either
// name may be empty to skip that feed.
func (r *Relay) PublishOn(srv *Server, mergedName, rollupName string) error {
	if mergedName != "" {
		if err := srv.Publish(mergedName, r.MergedFeed()); err != nil {
			return err
		}
	}
	if rollupName != "" {
		if err := srv.PublishRollup(rollupName, r.RollupFeed()); err != nil {
			return err
		}
	}
	return nil
}

// Run pumps every upstream into the merged history and emits rollups every
// interval until ctx is cancelled. Each upstream's pump absorbs its own
// deliveries; Run itself only ticks the rollup windows, on one timer
// re-armed as each tick is taken, not a fixed period. When Run returns,
// every pump has exited, no timer of the relay is queued, and everything
// the pumps consumed is absorbed; Run may be called again.
func (r *Relay) Run(ctx context.Context) {
	r.mu.Lock()
	r.pumps.Open(ctx)
	r.winFrom = r.now()
	for _, up := range r.upstreamsLocked() {
		r.startPumpLocked(up)
	}
	r.mu.Unlock()
	defer r.pumps.Close()
	tick := make(chan struct{}, 1)
	t := clock.AfterFunc(r.clk, r.rollupEvery, func() { tick <- struct{}{} })
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick:
			t.Reset(r.rollupEvery)
			r.flushRollups()
		}
	}
}

// upstreamsLocked returns every registration, raw then rollup, each in
// registration order. Callers hold r.mu.
func (r *Relay) upstreamsLocked() []*relayUpstream {
	ups := make([]*relayUpstream, 0, len(r.raw.order)+len(r.rollup.order))
	for _, set := range []*upstreamSet{&r.raw, &r.rollup} {
		for _, name := range set.order {
			ups = append(ups, set.byName[name])
		}
	}
	return ups
}

// now reads the relay's clock, falling back to the wall clock.
func (r *Relay) now() time.Time { return clock.Now(r.clk) }

// flushRollups emits one rollup per upstream for the elapsed window, and —
// when rollup upstreams are registered — one compacted rollup per app into
// the compacted history.
func (r *Relay) flushRollups() {
	now := r.now()
	r.mu.Lock()
	rs := r.ds.Flush(r.winFrom, now)
	cs := r.compactor.Flush(r.winFrom, now)
	r.winFrom = now
	cb := r.onRollup
	r.mu.Unlock()
	r.rollups.append(rs)
	r.compacted.append(cs)
	if cb != nil && len(rs) > 0 {
		cb(rs)
	}
}

// absorb folds one delivery into the relay's state. The upstream's pump
// calls it before reading again, so each upstream's deliveries are absorbed
// in order with no hand-off.
func (r *Relay) absorb(ev relayEvent) {
	r.mu.Lock()
	r.absorbLocked(&ev)
	r.mu.Unlock()
}

// retire ends a registration whose stream has ended for good: it frees the
// name and releases the stream. (Leaving it registered kept the stream open
// and the name taken until relay Close: the retired-upstream leak.) A
// concurrent removal owns the teardown instead, and relay Close has already
// collected the stream for closing.
func (r *Relay) retire(up *relayUpstream) {
	r.mu.Lock()
	up.eof = true
	if up.removing || r.closed {
		r.mu.Unlock()
		return
	}
	final := r.retireLocked(up)
	r.mu.Unlock()
	r.rollups.append(final)
	up.closeStream()
}

// absorbLocked folds one delivery into the relay's state. A child's rollup
// windows go to the compactor. A raw batch goes into the replay ring (re-
// sequenced, loss-widened) and into the app's rollup window; both copy the
// record values out, so the batch's slice can go straight back to the
// upstream's decode pool — at high fan-in that recycling is what keeps the
// merge path allocation-free. Callers hold r.mu.
func (r *Relay) absorbLocked(ev *relayEvent) {
	up := ev.up
	if up.rstream != nil {
		for _, ru := range ev.rbatch.Rollups {
			r.compactor.Absorb(ru)
		}
		r.rupMissed += ev.rbatch.Missed
		return
	}
	r.merged.append(ev.batch.Records, ev.batch.Missed, up.id)
	r.ds.Absorb(up.name, ev.batch)
	if up.rec != nil {
		up.rec.Recycle(ev.batch)
	}
}

// startPumpLocked starts the upstream's pump: absorb each delivery, report
// failures, and retire the registration when the stream ends. Callers hold
// r.mu.
func (r *Relay) startPumpLocked(up *relayUpstream) {
	if up.eof || up.removing {
		return
	}
	r.pumps.Go(&up.pump, func(ctx context.Context) {
		if pump.Run(ctx, r.clk, r.rollupEvery, up.next, r.absorb, func(err error) bool {
			if r.onError != nil {
				r.onError(up.name, err)
			}
			// A refused subscription (feed unpublished, kind mismatch) fails
			// every further Next the same way: retire the upstream rather
			// than re-report it every interval forever.
			return errors.Is(err, ErrRejected)
		}) {
			r.retire(up)
		}
	})
}

// Close ends every feed (subscribers drain, then EOF) and releases every
// upstream stream. Close is idempotent; cancel Run's context first (or
// concurrently) — Close does not stop a running loop, it only closes the
// histories and upstreams.
func (r *Relay) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	ups := r.upstreamsLocked()
	r.mu.Unlock()
	for _, up := range ups {
		r.pumps.Cancel(&up.pump)
		up.closeStream()
	}
	r.merged.close()
	r.rollups.close()
	r.compacted.close()
	return nil
}
