package heartbeat

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// defaultWindow is the default-window fallback used when New is given a
// window of 0.
const defaultWindow = 20

// Heartbeat is an application's heartbeat handle: a global history of
// records, a default averaging window, and an advertised target heart-rate
// range. A single Heartbeat is shared by the whole application; per-thread
// histories hang off it via Thread. All methods are safe for concurrent use.
//
// Global state is sharded: each registered Thread writes its global beats
// into a private lock-free ring, and a batched aggregator merges the shards
// into the global history on read, on the flush interval configured with
// WithFlushInterval, or when a shard's backlog reaches half its capacity —
// whichever comes first. Beats registered directly on the Heartbeat (Beat,
// BeatTag) keep the synchronous behavior of the paper's reference
// implementation: the record is in the history, with its sequence number
// assigned, and delivered to the sink before the call returns.
type Heartbeat struct {
	window   int
	clock    Clock
	nowNanos func() int64
	store    store
	sink     Sink
	agg      *aggregator

	// maxEvery is how many beats a Thread may serve from one clock reading
	// (see Thread): min(maxReuse, window/2) on the default clock, 1 on an
	// injected one.
	maxEvery int

	targetMin atomic.Uint64 // math.Float64bits
	targetMax atomic.Uint64
	targetSet atomic.Bool

	// lastDirect clamps direct-beat timestamps non-decreasing across
	// wall-clock steps; direct beats are multi-producer, so unlike
	// Thread.now's plain field this needs an atomic max.
	lastDirect atomic.Int64

	// lastCount keeps Count monotonic when it falls back to the
	// lock-free estimate during a merge.
	lastCount atomic.Uint64

	sinkErr atomic.Pointer[error]

	// subs wakes blocked Subscriptions whenever new records become
	// visible in the store (direct beats immediately, shard beats when a
	// merge publishes them).
	subs subscribers

	flushStop chan struct{}
	flushDone chan struct{}

	mu           sync.Mutex
	nextThreadID int32
	threadCap    int
	shardCap     int
	closed       bool
}

type config struct {
	capacity   int
	threadCap  int
	shardCap   int
	flushEvery time.Duration
	clock      Clock
	clockSet   bool
	sink       Sink
	locked     bool
}

// Option configures New.
type Option func(*config)

// WithCapacity sets how many global records are retained (the history ring
// size). The default is max(4*window, 64). Capacities below the window are
// raised to the window so the default window is always computable.
func WithCapacity(n int) Option { return func(c *config) { c.capacity = n } }

// WithThreadCapacity sets how many records each per-thread history retains.
// It defaults to the global capacity.
func WithThreadCapacity(n int) Option { return func(c *config) { c.threadCap = n } }

// WithShardCapacity sets the size of each per-thread global shard: the
// lock-free ring Thread.GlobalBeat writes into before aggregation. A shard's
// producer triggers a flush when its backlog reaches half this capacity, so
// larger shards mean larger (and rarer) merge batches. The default is the
// global capacity, but at least 256.
//
//hbvet:api -- user need: size per-thread shards to a producer's bursts (README tuning)
func WithShardCapacity(n int) Option { return func(c *config) { c.shardCap = n } }

// WithFlushInterval starts a background flusher that merges pending shard
// records into the global history (and the sink) every d. Without it, shards
// are merged on every read and whenever a shard fills past half its
// capacity, so a flusher is only needed to bound sink latency while no one
// beats on the global handle or reads.
//
//hbvet:api -- user need: bound sink latency while nothing beats or reads (README tuning)
func WithFlushInterval(d time.Duration) Option { return func(c *config) { c.flushEvery = d } }

// WithClock injects the timestamp source (default: the wall clock). An
// injected clock is read on every beat, exactly: a simulated or test clock
// replays bit-identically, and WithClock(SystemClock()) is the way to ask for
// a wall-clock reading on every Thread beat, which the default amortises (see
// Thread).
func WithClock(clk Clock) Option { return func(c *config) { c.clock, c.clockSet = clk, true } }

// WithSink registers a Sink that receives every global record as it is
// produced, e.g. an hbfile.Writer exposing the heartbeat to other processes.
// Direct beats reach the sink synchronously; per-thread global beats reach
// it in aggregation batches (see BatchSink).
func WithSink(s Sink) Option { return func(c *config) { c.sink = s } }

// New creates a Heartbeat whose default averaging window is window beats
// (HB_initialize in the paper). A window of 0 selects 20 beats;
// negative windows are an error.
func New(window int, opts ...Option) (*Heartbeat, error) {
	if window < 0 {
		return nil, fmt.Errorf("heartbeat: negative window %d", window)
	}
	if window == 0 {
		window = defaultWindow
	}
	if window < 2 {
		window = 2 // a rate needs at least two beats
	}
	cfg := config{clock: SystemClock()}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.capacity <= 0 {
		cfg.capacity = 4 * window
		if cfg.capacity < 64 {
			cfg.capacity = 64
		}
	}
	if cfg.capacity < window {
		cfg.capacity = window
	}
	if cfg.threadCap <= 0 {
		cfg.threadCap = cfg.capacity
	}
	if cfg.threadCap < 2 {
		cfg.threadCap = 2
	}
	if cfg.shardCap <= 0 {
		cfg.shardCap = cfg.capacity
		if cfg.shardCap < 256 {
			cfg.shardCap = 256
		}
	}
	if cfg.shardCap < 2 {
		cfg.shardCap = 2
	}
	if cfg.clock == nil {
		return nil, errors.New("heartbeat: nil clock")
	}
	h := &Heartbeat{
		window:    window,
		clock:     cfg.clock,
		nowNanos:  nanosFunc(cfg.clock),
		maxEvery:  1,
		sink:      cfg.sink,
		threadCap: cfg.threadCap,
		shardCap:  cfg.shardCap,
	}
	if !cfg.clockSet {
		h.maxEvery = max(1, min(maxReuse, window/2))
	}
	if cfg.locked {
		h.store = newLockedStore(cfg.capacity)
	} else {
		h.store = newLockfreeStore(cfg.capacity)
	}
	h.agg = &aggregator{st: h.store, sink: cfg.sink, sinkErr: &h.sinkErr, subs: &h.subs}
	if cfg.flushEvery > 0 {
		h.flushStop = make(chan struct{})
		h.flushDone = make(chan struct{})
		go h.flusher(cfg.flushEvery)
	}
	return h, nil
}

// flusher merges pending shard records every interval on the heartbeat's
// clock until Close. Its one timer is re-armed as each tick is taken, so
// at most one tick is ever pending and Close leaves none queued.
func (h *Heartbeat) flusher(every time.Duration) {
	defer close(h.flushDone)
	tick := make(chan struct{}, 1)
	t := AfterFunc(h.clock, every, func() { tick <- struct{}{} })
	defer t.Stop()
	for {
		select {
		case <-h.flushStop:
			return
		case <-tick:
			t.Reset(every)
			h.agg.flush()
		}
	}
}

// Window returns the default averaging window in beats.
func (h *Heartbeat) Window() int { return h.window }

// Capacity returns how many global records are retained.
//
//hbvet:api -- user need: compare a consumer's read lag with the history it can still read
func (h *Heartbeat) Capacity() int { return h.store.capacity() }

// Beat registers a global heartbeat with tag 0 (HB_heartbeat, local=false).
func (h *Heartbeat) Beat() { h.beat(0) }

// BeatTag registers a global heartbeat carrying a caller-defined tag, e.g.
// the frame type of a video encoder or a sequence number.
func (h *Heartbeat) BeatTag(tag int64) { h.beat(tag) }

// beat is the direct-beat path; such records carry producer 0
// (thread-attributed beats flow through gshard.beat instead).
func (h *Heartbeat) beat(tag int64) {
	nanos := h.nowNanos()
	for {
		last := h.lastDirect.Load()
		if nanos <= last {
			nanos = last // clock stepped back (or tied): hold the line
			break
		}
		if h.lastDirect.CompareAndSwap(last, nanos) {
			break
		}
	}
	if h.agg.active() && h.agg.hasPending() {
		// Merge pending shard records first so sequence numbers stay
		// ordered, then append and deliver synchronously. With no
		// backlog the beat takes the wait-free append below instead —
		// so direct beats only pay for aggregation when there is
		// something to aggregate. A direct beat racing the very first
		// Thread registration (or a concurrent shard push) may
		// likewise be sequenced before those records — the operations
		// are concurrent, so either order is a valid linearization.
		h.agg.direct(nanos, tag)
		return
	}
	seq := h.store.append(nanos, tag, 0)
	if h.sink != nil {
		r := Record{Seq: seq, Time: time.Unix(0, nanos), Tag: tag, Producer: 0}
		if err := h.sink.WriteRecord(r); err != nil {
			h.sinkErr.Store(&err)
		}
	}
	h.subs.wake()
}

// Flush merges all pending per-thread shard records into the global history
// and delivers them to the sink, if one is attached. Reads flush implicitly;
// Flush exists for callers that need sink delivery bounded without reading.
func (h *Heartbeat) Flush() { h.agg.flush() }

// Count returns the total number of global heartbeats ever registered,
// including per-thread global beats not yet merged into the history. Count
// never blocks behind an in-progress merge: when one is running it falls
// back to a lock-free estimate, clamped so consecutive Counts never go
// backwards; at quiescence it is exact.
func (h *Heartbeat) Count() uint64 {
	if !h.agg.active() {
		return h.store.total()
	}
	var total uint64
	if h.agg.mu.TryLock() {
		total = h.store.total() + h.agg.pendingLocked()
		h.agg.mu.Unlock()
	} else {
		total = h.store.total() + h.agg.pendingEstimate()
	}
	for {
		last := h.lastCount.Load()
		if total <= last {
			return last
		}
		if h.lastCount.CompareAndSwap(last, total) {
			return total
		}
	}
}

// Rate returns the average heart rate over the last window beats
// (HB_current_rate). window == 0 uses the default window; windows larger
// than the retained history are silently clipped. ok is false until at
// least two beats spanning positive time are available.
func (h *Heartbeat) Rate(window int) (perSec float64, ok bool) {
	r, ok := h.RateDetail(window)
	return r.PerSec, ok
}

// RateDetail is Rate with the full measurement (span, window endpoints).
//
//hbvet:api -- user need: the span and endpoints behind HB_current_rate's number
func (h *Heartbeat) RateDetail(window int) (Rate, bool) {
	return rateOf(h.History(h.clipWindow(window)))
}

func (h *Heartbeat) clipWindow(window int) int {
	if window <= 0 {
		return h.window
	}
	if window > h.store.capacity() {
		return h.store.capacity()
	}
	return window
}

// History returns up to n of the most recent global records, oldest to
// newest (HB_get_history). n larger than the retained history is clipped.
// Pending shard records are merged first, so History reflects every beat
// registered before the call — except when another goroutine is already
// mid-merge (or History is invoked from inside a sink callback), in which
// case History reads the store as-is rather than wait: the concurrent merge
// publishes those records for the next read.
func (h *Heartbeat) History(n int) []Record {
	if h.agg.active() && h.agg.mu.TryLock() {
		h.agg.mergeLocked()
		h.agg.mu.Unlock()
	}
	return h.store.last(n)
}

// SetTarget advertises the heart-rate goal [min, max] beats per second
// (HB_set_target_rate) for external observers.
func (h *Heartbeat) SetTarget(min, max float64) error {
	if math.IsNaN(min) || math.IsNaN(max) || min < 0 || max < min {
		return fmt.Errorf("heartbeat: invalid target [%v, %v]", min, max)
	}
	h.targetMin.Store(math.Float64bits(min))
	h.targetMax.Store(math.Float64bits(max))
	h.targetSet.Store(true)
	if h.sink != nil {
		if ts, ok := h.sink.(TargetSink); ok {
			if err := ts.WriteTarget(min, max); err != nil {
				h.sinkErr.Store(&err)
			}
		}
	}
	return nil
}

// Target returns the advertised heart-rate goal (HB_get_target_min/max).
// ok is false if SetTarget was never called.
func (h *Heartbeat) Target() (min, max float64, ok bool) {
	if !h.targetSet.Load() {
		return 0, 0, false
	}
	return math.Float64frombits(h.targetMin.Load()), math.Float64frombits(h.targetMax.Load()), true
}

// Thread registers a per-thread heartbeat handle with a private history and
// a private global shard (the paper's local heartbeats). Each concurrent
// worker should register its own handle; handles remain valid for the life
// of the Heartbeat.
func (h *Heartbeat) Thread(name string) *Thread {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.nextThreadID++
	t := newThread(h, h.nextThreadID, name)
	return t
}

// SinkErr returns the most recent error reported by the sink, if any.
func (h *Heartbeat) SinkErr() error {
	if p := h.sinkErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Close stops the background flusher (if any), merges pending shard records
// so the sink has seen every beat, and releases the sink (if it implements
// io.Closer). Beats after Close still record in memory but sink writes will
// report errors via SinkErr. Close is idempotent.
func (h *Heartbeat) Close() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil
	}
	h.closed = true
	if h.flushStop != nil {
		close(h.flushStop)
		<-h.flushDone
	}
	h.agg.flush()
	h.subs.close()
	if c, ok := h.sink.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
