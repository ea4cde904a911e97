package hbnet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/clock"
	"repro/heartbeat"
	"repro/internal/cursor"
	"repro/internal/pump"
	"repro/observer"
)

// This file is the shell of the hierarchical fan-in tier (the core is
// relaycore.go): a Relay subscribes to many upstream streams, merges them
// into one replay ring with its own dense sequence space, reduces them
// into per-app rollup windows, and re-exports both as hbnet feeds. The
// merged feed is an ordinary feed, so relays compose into trees that keep
// every node's fan-in bounded while the fleet underneath grows.

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

// waiter is one core ring's wake channel, and the one wake rule for all
// three: it is made only when a subscriber parks, at the ring's head, and
// closed by the first core call that moves the ring or closes the relay.
// The saturated steady state, subscribers never waiting, makes none.
type waiter struct {
	ch chan struct{}
	at uint64 // the ring's head when ch was made
}

// wake closes w's channel, if any, once the ring has moved or closed.
func (w *waiter) wake(head uint64, closed bool) {
	if w.ch != nil && (head != w.at || closed) {
		close(w.ch)
		w.ch = nil
	}
}

// ringCursor is one subscriber's position in one of the core's rings, and
// the one place the relay's subscriber streams settle a read: the cursor
// rule, then — when there is nothing to deliver — the wait for the ring to
// move.
type ringCursor struct {
	relay  *Relay
	wait   *waiter // the ring's wake channel
	cursor uint64
}

// settle applies the cursor rule to one ring read, made under relay.mu,
// and releases the lock: head is the position the read consumed up to, n
// how many items it returned. ok means deliver (the cursor has advanced;
// missed is the span the read passed over). Otherwise the caller reads
// again: settle has either resynchronized a cursor from a previous life of
// the relay (the records between the two lives are unknowable, so not
// Missed) or parked until the ring moved. A closed, drained ring is
// io.EOF; cancellation is reported only when idle.
func (c *ringCursor) settle(ctx context.Context, head uint64, n int) (missed uint64, ok bool, err error) {
	r := c.relay
	next, missed, move := cursor.Advance(c.cursor, head, n)
	c.cursor = next
	if move != cursor.Idle {
		r.mu.Unlock()
		return missed, move == cursor.Moved, nil
	}
	if r.core.closed {
		r.mu.Unlock()
		return 0, false, io.EOF
	}
	if c.wait.ch == nil {
		c.wait.ch, c.wait.at = make(chan struct{}), head
	}
	notify := c.wait.ch
	r.mu.Unlock()
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

// readAt is every subscriber read: read runs under relay.mu and returns
// what it found, the head it read up to and how many items; settle decides,
// and readAt reads again until there is something to deliver or an error.
func readAt[T any](ctx context.Context, c *ringCursor, read func() (T, uint64, int)) (T, uint64, uint64, error) {
	for {
		c.relay.mu.Lock()
		v, head, n := read()
		if missed, ok, err := c.settle(ctx, head, n); ok || err != nil {
			return v, head, missed, err
		}
	}
}

// replayStream is one subscriber's cursor over the merged ring; it
// satisfies observer.Stream with the same resync-and-loss semantics as
// every other stream in the system.
type replayStream struct {
	ringCursor
	shedN atomic.Uint64
}

// Shed reports how many seqs the ring shed to this subscriber (lapped or
// lag-bounded spans skipped at read time) — the per-subscriber share of the
// ring's total. Safe to call concurrently with Next/NextFrame.
func (s *replayStream) Shed() uint64 { return s.shedN.Load() }

func (s *replayStream) Next(ctx context.Context) (observer.Batch, error) {
	recs, cur, missed, err := readAt(ctx, &s.ringCursor, func() ([]heartbeat.Record, uint64, int) {
		recs, cur, shed := s.relay.core.merged.readSince(s.cursor, cursor.Page)
		s.shedN.Add(shed)
		return recs, cur, len(recs)
	})
	if err != nil {
		return observer.Batch{}, err
	}
	return observer.Batch{Records: recs, Count: cur, Missed: missed}, nil
}

// NextFrame is the server's zero-copy fast path over the ring: the same
// replay-resync-loss semantics as Next, delivered as a pre-encoded frame
// shared with every other subscriber at the same cursor (frameStream). The
// frame carries its own Missed, so settle only moves the cursor.
func (s *replayStream) NextFrame(ctx context.Context) (*frameBuf, error) {
	fb, _, _, err := readAt(ctx, &s.ringCursor, func() (*frameBuf, uint64, int) {
		fb, cur, shed := s.relay.core.merged.frameSince(s.cursor, cursor.Page)
		s.shedN.Add(shed)
		return fb, cur, 0
	})
	return fb, err
}

// rollupReplayStream is one subscriber's cursor over one of the core's
// rollup rings.
type rollupReplayStream struct {
	ring *rollupRing
	ringCursor
}

func (s *rollupReplayStream) Next(ctx context.Context) (RollupBatch, error) {
	rs, cur, missed, err := readAt(ctx, &s.ringCursor, func() ([]observer.Rollup, uint64, int) {
		rs, cur, delivered := s.ring.readSince(s.cursor)
		return rs, cur, int(delivered)
	})
	if err != nil {
		return RollupBatch{}, err
	}
	return RollupBatch{Rollups: rs, Cursor: cur, Missed: missed}, nil
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

	// mu is the relay's one lock. Every core call runs under it, and it
	// guards the three rings' wake channels.
	mu                                     sync.Mutex
	core                                   *relayCore
	mergedWait, rollupsWait, compactedWait waiter
	pumps                                  pump.Group
}

// relayUpstream is one registration, raw or rollup: exactly one of stream
// and rstream is set, and that choice is the only thing the lifecycle —
// pump, retire, remove — ever asks of the kind (next, relayCore.absorb,
// relayCore.retire, closeStream).
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

// relayEvent is one delivery of a pump's read: batch or rbatch, by the
// upstream's kind.
type relayEvent struct {
	up     *relayUpstream
	batch  observer.Batch
	rbatch RollupBatch
}

// NewRelay creates a relay with no upstreams yet.
func NewRelay(opts ...RelayOption) *Relay {
	r := &Relay{rollupEvery: time.Second}
	for _, o := range opts {
		o(r)
	}
	r.core = newRelayCore(r.mergedRetain, r.shedLag, r.now())
	return r
}

// unlock ends a core call that may move a ring: it wakes the subscribers
// of every ring the call moved (or closed) and releases r.mu.
func (r *Relay) unlock() {
	c := r.core
	r.mergedWait.wake(c.merged.head, c.closed)
	r.rollupsWait.wake(c.rollups.head, c.closed)
	r.compactedWait.wake(c.compacted.head, c.closed)
	r.mu.Unlock()
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
	return r.register(&r.core.raw, up)
}

// register is the one registration path: the core claims the name in set,
// and the pump starts when a Run loop is live.
func (r *Relay) register(set *upstreamSet, up *relayUpstream) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.core.register(set, up); err != nil {
		return err
	}
	r.startPumpLocked(up) // joins a live Run; a no-op otherwise
	return nil
}

// DialUpstream dials a remote feed — a producer's server, or another
// relay's merged feed, composing a tree — and registers it as an upstream.
// The client runs on the relay's clock unless ClientOptions say otherwise;
// the relay owns it, and returns it for introspection (Reconnects, Missed).
func (r *Relay) DialUpstream(app, addr, feed string, opts ...ClientOption) (*Client, error) {
	return r.dialUpstream(app, addr, feed, 0, frameBatch, opts)
}

// dialUpstream is the one dial-and-register path: the relay's clock goes
// ahead of opts, and a client the relay refuses to register is closed.
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
	up, err := r.unregister(&r.core.raw, app)
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
	up, err := r.unregister(&r.core.rollup, name)
	if err != nil {
		return err
	}
	up.closeStream()
	return nil
}

// unregister is the one removal path: mark the named upstream as being
// removed, cancel its pump, wait it out, and retire the registration. The
// pump is the registration's only absorber, so once it has exited
// everything it consumed is in the relay's state. It returns the retired
// registration, whose stream is now the caller's.
func (r *Relay) unregister(set *upstreamSet, name string) (*relayUpstream, error) {
	r.mu.Lock()
	up, err := r.core.unregister(set, name)
	if err != nil {
		r.mu.Unlock()
		return nil, err
	}
	done := r.pumps.Cancel(&up.pump)
	r.mu.Unlock()
	<-done
	r.mu.Lock()
	r.core.retire(up, r.now())
	r.unlock()
	return up, nil
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
	up := src.core.raw.byName[app]
	src.mu.Unlock()
	if up == nil {
		return nil, fmt.Errorf("hbnet: unknown upstream %q", app)
	}
	if _, ok := up.stream.(CursorSource); !ok {
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
	return r.register(&r.core.rollup, &relayUpstream{name: name, rstream: stream})
}

// DialRollupUpstream dials a child relay's rollup feed and registers it
// for compaction, as DialUpstream registers a raw one: how an interior node
// of a relay tree subscribes to the per-app summaries below it.
func (r *Relay) DialRollupUpstream(name, addr, feed string, opts ...ClientOption) (*Client, error) {
	return r.dialUpstream(name, addr, feed, 0, frameRollup, opts)
}

// Apps returns the upstream names in registration order.
func (r *Relay) Apps() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.core.raw.order...)
}

// MergedHead returns the newest sequence number of the merged history:
// total records relayed plus upstream losses.
func (r *Relay) MergedHead() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.core.merged.head
}

// Shed returns the cumulative count of merged-history seqs shed across all
// raw subscribers: spans a subscriber skipped because this relay's bounded
// window lapped them (or its WithShedLag policy advanced past them), each
// subscriber read charged individually. Shed loss is always inside the
// Missed those subscribers observed — this counter attributes it to this
// hop's backpressure rather than to the upstreams. Per-subscriber shares
// are available on streams opened from MergedFeed via ShedCounter.
func (r *Relay) Shed() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.core.merged.shedTotal
}

// MergedFeed returns the raw merged feed: every upstream's records in the
// relay's own dense sequence space (Producer = hop-local upstream id),
// replay-then-live-push from any cursor.
func (r *Relay) MergedFeed() Feed {
	return func(ctx context.Context, since uint64) (observer.Stream, error) {
		return &replayStream{ringCursor: ringCursor{r, &r.mergedWait, since}}, nil
	}
}

// RollupFeed returns the downsampled feed: one Rollup per upstream per
// interval, replayable across the retained emissions.
func (r *Relay) RollupFeed() RollupFeed {
	return func(ctx context.Context, since uint64) (RollupStream, error) {
		return &rollupReplayStream{&r.core.rollups, ringCursor{r, &r.rollupsWait, since}}, nil
	}
}

// CompactedFeed returns the hierarchically compacted feed: one Rollup per
// application per interval, merged from every rollup upstream — the
// O(apps) view a relay-tree root exports, however many producers feed the
// leaves. Publish it with srv.PublishRollup under its own name (by
// convention "apps", beside the relay's own per-upstream "rollup" feed).
func (r *Relay) CompactedFeed() RollupFeed {
	return func(ctx context.Context, since uint64) (RollupStream, error) {
		return &rollupReplayStream{&r.core.compacted, ringCursor{r, &r.compactedWait, since}}, nil
	}
}

// RollupApps returns the application names the compactor tracks, in first-
// seen order: at a tree's root, the fleet's applications.
func (r *Relay) RollupApps() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.core.compactor.Apps()
}

// RollupUpstreamMissed returns how many child rollup emissions were lapped
// before this relay absorbed them. The compacted feed's count conservation
// is exact only while it stays zero (the same caveat as
// simcheck.RollupAccount's EmissionsMissed).
func (r *Relay) RollupUpstreamMissed() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.core.rupMissed
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
	for _, up := range r.core.start(r.now()) {
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

// now reads the relay's clock, falling back to the wall clock.
func (r *Relay) now() time.Time { return clock.Now(r.clk) }

// flushRollups closes the elapsed rollup window: one rollup per upstream,
// and — when rollup upstreams are registered — one compacted rollup per app
// into the compacted history.
func (r *Relay) flushRollups() {
	now := r.now()
	r.mu.Lock()
	rs := r.core.tick(now)
	r.unlock()
	if r.onRollup != nil && len(rs) > 0 {
		r.onRollup(rs)
	}
}

// absorb folds one delivery into the relay's state. The upstream's pump
// calls it before reading again, so each upstream's deliveries are absorbed
// in order with no hand-off. The batch's slice then goes straight back to
// the upstream's decode pool: at high fan-in that recycling is what keeps
// the merge path allocation-free.
func (r *Relay) absorb(ev relayEvent) {
	r.mu.Lock()
	r.core.absorb(&ev)
	r.unlock()
	if ev.up.rec != nil {
		ev.up.rec.Recycle(ev.batch)
	}
}

// retire ends a registration whose stream has ended for good (see
// relayCore.ended) and releases the stream. Leaving it registered kept the
// stream open and the name taken until relay Close: the retired-upstream
// leak.
func (r *Relay) retire(up *relayUpstream) {
	r.mu.Lock()
	retired := r.core.ended(up, r.now())
	r.unlock()
	if retired {
		up.closeStream()
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
	ups := r.core.close()
	r.unlock()
	for _, up := range ups {
		r.pumps.Cancel(&up.pump)
		up.closeStream()
	}
	return nil
}
