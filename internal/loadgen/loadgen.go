// Package loadgen is the scale side of the deterministic test harness: a
// synthetic fleet of up to millions of heartbeat producers driven by ONE
// goroutine off a virtual timer queue. Where the scenario matrix (package
// simnet) proves the delivery contract at small scale with goroutine-per-
// producer fidelity, loadgen proves the same contract three orders of
// magnitude up, where per-producer goroutines and per-producer relay state
// are exactly the costs under test.
//
// The shape: a Fleet distributes N producers across A applications by Zipf
// skew (hot apps carry most of the fleet), each application exposes ONE
// observer.Stream (AppStream) that a relay subscribes to, and producers
// exist only as Record.Producer ids and min-heap deadlines inside the
// pump. Membership churn (join/leave mid-run, each incarnation a new
// Life), correlated silence bursts (a contiguous id range going quiet
// together) and per-beat rate jitter are all drawn from one seeded rng, so
// a failing run replays exactly from its seed.
//
// Everything waits on a clock.Clock: under clock.Virtual/AutoAdvance a
// simulated second costs the events in it, and the pump quantizes those
// events to PumpTick — the virtual timer queue sees O(duration/tick)
// registrations however many producers beat.
package loadgen

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/clock"
	"repro/heartbeat"
	"repro/observer"
)

// Config parameterizes a synthetic fleet. Zero values select the noted
// defaults.
type Config struct {
	Seed      int64
	Producers int
	// Apps is how many applications the producers are distributed over —
	// the unit of relay fan-in and rollup state (default 32).
	Apps int
	// BeatEvery is the base inter-beat interval per producer (default 1s);
	// Jitter is the ± fraction of it drawn per beat (default 0.2).
	BeatEvery time.Duration
	Jitter    float64
	// ZipfS is the app-popularity exponent: producers land on apps with
	// P(app) ∝ 1/(app+1)^s (default 1.1; 0 = uniform).
	ZipfS float64
	// Duration is the horizon churn and bursts are scheduled within
	// (default 10s). The pump itself runs until its context ends.
	Duration time.Duration
	// ChurnFrac of the producers leave mid-run; most rejoin as a new Life
	// (default 0 — no churn).
	ChurnFrac float64
	// Bursts correlated silence bursts: each silences a contiguous
	// BurstFrac share of the producer id space for BurstLen (defaults
	// 0 bursts, 0.25, 1s).
	Bursts    int
	BurstFrac float64
	BurstLen  time.Duration
	// PumpTick quantizes the pump's virtual wake-ups (default 10ms): beats
	// due within a tick are emitted together, stamped with their scheduled
	// (un-quantized) times.
	PumpTick time.Duration
}

func (c Config) withDefaults() Config {
	if c.Producers <= 0 {
		c.Producers = 1
	}
	if c.Apps <= 0 {
		c.Apps = 32
	}
	if c.Apps > c.Producers {
		c.Apps = c.Producers
	}
	if c.BeatEvery <= 0 {
		c.BeatEvery = time.Second
	}
	if c.Jitter == 0 {
		c.Jitter = 0.2
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.1
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.BurstFrac == 0 {
		c.BurstFrac = 0.25
	}
	if c.BurstLen <= 0 {
		c.BurstLen = time.Second
	}
	if c.PumpTick <= 0 {
		c.PumpTick = 10 * time.Millisecond
	}
	return c
}

// prod is one simulated producer: 16 bytes of pump state, no goroutine.
type prod struct {
	app      int32
	life     int32
	live     bool
	silentTo time.Duration // beats scheduled before this offset are skipped
}

// beatEntry is one pending deadline in the pump's min-heap. Entries are
// never removed on leave; they are skipped when popped with a stale life —
// which is exactly the no-resurrection guard the churn tests pin down.
type beatEntry struct {
	at   time.Duration
	idx  int32
	life int32
}

type burst struct {
	at       time.Duration
	from, to int // producer id range [from, to)
	until    time.Duration
}

// Fleet drives Config.Producers synthetic producers through Config.Apps
// AppStreams from a single goroutine (Run). Accessors are safe to call
// concurrently with Run.
type Fleet struct {
	cfg   Config
	clk   clock.Clock
	apps  []*AppStream
	byApp []int // producer count per app, fixed at New

	paused atomic.Bool

	mu       sync.Mutex // guards everything below (pump-owned between ticks)
	prods    []prod
	heap     []beatEntry
	churn    []ChurnEvent
	churnAt  int
	bursts   []burst
	burstAt  int
	rng      *rand.Rand
	scratch  [][]heartbeat.Record
	left     int // churn leaves applied
	rejoined int // churn joins applied
	silenced int // producer-bursts applied (Σ burst range sizes)
}

// New builds the fleet: app assignment (Zipf), initial beat stagger, churn
// schedule and burst schedule are all drawn here, in this order, from the
// config seed — New is the whole of a run's randomness.
func New(cfg Config, clk clock.Clock) *Fleet {
	cfg = cfg.withDefaults()
	if clk == nil {
		panic("loadgen: New needs a clock")
	}
	f := &Fleet{
		cfg:     cfg,
		clk:     clk,
		apps:    make([]*AppStream, cfg.Apps),
		byApp:   make([]int, cfg.Apps),
		prods:   make([]prod, cfg.Producers),
		heap:    make([]beatEntry, 0, cfg.Producers),
		scratch: make([][]heartbeat.Record, cfg.Apps),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
	for i := range f.apps {
		f.apps[i] = &AppStream{name: fmt.Sprintf("app%03d", i)}
	}
	z := NewZipf(cfg.Apps, cfg.ZipfS)
	for i := range f.prods {
		app := z.Sample(f.rng)
		f.prods[i] = prod{app: int32(app), life: 1, live: true}
		f.byApp[app]++
	}
	for i := range f.prods {
		f.heap = append(f.heap, beatEntry{
			at:   time.Duration(f.rng.Float64() * float64(cfg.BeatEvery)),
			idx:  int32(i),
			life: 1,
		})
	}
	for i := len(f.heap)/2 - 1; i >= 0; i-- {
		f.siftDown(i)
	}
	f.churn = ChurnSchedule(f.rng, cfg.Producers, cfg.ChurnFrac, cfg.Duration)
	for i := 0; i < cfg.Bursts; i++ {
		width := int(float64(cfg.Producers) * cfg.BurstFrac)
		if width < 1 {
			width = 1
		}
		from := 0
		if cfg.Producers > width {
			from = f.rng.Intn(cfg.Producers - width)
		}
		at := time.Duration((0.2 + 0.5*f.rng.Float64()) * float64(cfg.Duration))
		f.bursts = append(f.bursts, burst{at: at, from: from, to: from + width, until: at + cfg.BurstLen})
	}
	for i := 1; i < len(f.bursts); i++ { // apply in time order
		for j := i; j > 0 && f.bursts[j].at < f.bursts[j-1].at; j-- {
			f.bursts[j], f.bursts[j-1] = f.bursts[j-1], f.bursts[j]
		}
	}
	return f
}

// Apps returns the number of application streams.
func (f *Fleet) Apps() int { return len(f.apps) }

// Stream returns app i's stream — subscribe it to a relay with
// Relay.AddUpstream(f.AppName(i), f.Stream(i)).
func (f *Fleet) Stream(i int) *AppStream { return f.apps[i] }

// AppName returns app i's name ("app000", "app001", ...).
func (f *Fleet) AppName(i int) string { return f.apps[i].name }

// ProducersOf returns how many producers app i carries — the Zipf draw's
// outcome, fixed at New.
func (f *Fleet) ProducersOf(i int) int { return f.byApp[i] }

// AppHead returns app i's published head: records published so far.
func (f *Fleet) AppHead(i int) uint64 { return f.apps[i].Head() }

// TotalPublished sums every app's head — the fleet-wide truth the
// end-to-end conservation check closes against.
func (f *Fleet) TotalPublished() uint64 {
	var n uint64
	for _, s := range f.apps {
		n += s.Head()
	}
	return n
}

// Churned reports the membership changes applied so far.
func (f *Fleet) Churned() (left, rejoined int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.left, f.rejoined
}

// Silenced reports how many producer-burst memberships have been applied
// (the sum of burst range widths) — proof the silence arc ran.
func (f *Fleet) Silenced() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.silenced
}

// Pause stops beat emission (the tick loop keeps running, cheaply): the
// harness pauses the fleet at its horizon and lets the pipeline drain to a
// fixed total.
func (f *Fleet) Pause() { f.paused.Store(true) }

// CloseStreams ends every app stream: subscribers drain and see io.EOF.
func (f *Fleet) CloseStreams() {
	for _, s := range f.apps {
		s.Close()
	}
}

// Run drives the pump until ctx is cancelled: one virtual-clock wait per
// PumpTick, then every beat, churn event and burst due in the elapsed
// quantum is applied. One goroutine, however many producers.
func (f *Fleet) Run(ctx context.Context) {
	start := f.clk.Now()
	for tick := 1; ; tick++ {
		target := start.Add(time.Duration(tick) * f.cfg.PumpTick)
		for {
			d := target.Sub(f.clk.Now())
			if d <= 0 {
				break
			}
			if !clock.SleepCtx(ctx, f.clk, d) {
				return
			}
		}
		if ctx.Err() != nil {
			return
		}
		if !f.paused.Load() {
			f.step(start, time.Duration(tick)*f.cfg.PumpTick)
		}
	}
}

// step applies everything due at or before virtual offset now.
func (f *Fleet) step(start time.Time, now time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.churnAt < len(f.churn) && f.churn[f.churnAt].At <= now {
		ev := f.churn[f.churnAt]
		f.churnAt++
		p := &f.prods[ev.Producer]
		if ev.Join {
			if !p.live && int32(ev.Life) > p.life {
				p.live, p.life = true, int32(ev.Life)
				f.push(beatEntry{at: now, idx: int32(ev.Producer), life: p.life})
				f.rejoined++
			}
		} else if p.live {
			p.live = false
			f.left++
		}
	}
	for f.burstAt < len(f.bursts) && f.bursts[f.burstAt].at <= now {
		b := f.bursts[f.burstAt]
		f.burstAt++
		for i := b.from; i < b.to; i++ {
			if f.prods[i].silentTo < b.until {
				f.prods[i].silentTo = b.until
			}
			f.silenced++
		}
	}
	for len(f.heap) > 0 && f.heap[0].at <= now {
		e := f.pop()
		p := &f.prods[e.idx]
		if !p.live || e.life != p.life {
			continue // left, or a stale life's deadline: never resurrects
		}
		if e.at >= p.silentTo {
			f.scratch[p.app] = append(f.scratch[p.app], heartbeat.Record{
				Time:     start.Add(e.at),
				Tag:      int64(p.life),
				Producer: e.idx,
			})
		}
		iv := time.Duration(float64(f.cfg.BeatEvery) * (1 + f.cfg.Jitter*(2*f.rng.Float64()-1)))
		if iv < f.cfg.PumpTick {
			iv = f.cfg.PumpTick
		}
		f.push(beatEntry{at: e.at + iv, idx: e.idx, life: e.life})
	}
	for app, recs := range f.scratch {
		if len(recs) > 0 {
			f.apps[app].publish(recs)
			f.scratch[app] = recs[:0]
		}
	}
}

// push/pop/siftDown: a hand-rolled binary min-heap over (at, idx) — 16
// bytes per pending producer, no interface boxing, deterministic pop order.
func (f *Fleet) push(e beatEntry) {
	f.heap = append(f.heap, e)
	i := len(f.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !f.less(i, parent) {
			break
		}
		f.heap[i], f.heap[parent] = f.heap[parent], f.heap[i]
		i = parent
	}
}

func (f *Fleet) pop() beatEntry {
	e := f.heap[0]
	last := len(f.heap) - 1
	f.heap[0] = f.heap[last]
	f.heap = f.heap[:last]
	if last > 0 {
		f.siftDown(0)
	}
	return e
}

func (f *Fleet) less(i, j int) bool {
	if f.heap[i].at != f.heap[j].at {
		return f.heap[i].at < f.heap[j].at
	}
	return f.heap[i].idx < f.heap[j].idx
}

func (f *Fleet) siftDown(i int) {
	n := len(f.heap)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && f.less(l, small) {
			small = l
		}
		if r < n && f.less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		f.heap[i], f.heap[small] = f.heap[small], f.heap[i]
		i = small
	}
}

// AppStream is one application's live stream: the fleet publishes into it,
// a relay (or any observer.Stream consumer) drains it. It honors the full
// Stream contract — pending data under an expired ctx, io.EOF after Close
// — and implements the relay's BatchRecycler so delivered slices come back
// for reuse instead of being reallocated every batch.
type AppStream struct {
	name string

	mu      sync.Mutex
	pending []heartbeat.Record
	free    [][]heartbeat.Record
	head    uint64
	notify  chan struct{}
	closed  bool
}

// Name returns the app name.
func (s *AppStream) Name() string { return s.name }

// Head returns the number of records published so far.
func (s *AppStream) Head() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.head
}

// publish appends recs (copied; the caller's slice is scratch) assigning
// dense per-app sequence numbers, and wakes the consumer.
func (s *AppStream) publish(recs []heartbeat.Record) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.pending == nil {
		if n := len(s.free); n > 0 {
			s.pending, s.free = s.free[n-1], s.free[:n-1]
		}
	}
	for _, r := range recs {
		s.head++
		r.Seq = s.head
		s.pending = append(s.pending, r)
	}
	if s.notify != nil {
		close(s.notify)
		s.notify = nil
	}
	s.mu.Unlock()
}

// Next implements observer.Stream.
func (s *AppStream) Next(ctx context.Context) (observer.Batch, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		s.mu.Lock()
		if len(s.pending) > 0 {
			b := observer.Batch{Records: s.pending, Count: s.head}
			s.pending = nil
			s.mu.Unlock()
			return b, nil
		}
		if s.closed {
			s.mu.Unlock()
			return observer.Batch{}, io.EOF
		}
		if s.notify == nil {
			s.notify = make(chan struct{})
		}
		notify := s.notify
		s.mu.Unlock()
		select {
		case <-ctx.Done():
			return observer.Batch{}, ctx.Err()
		case <-notify:
		}
	}
}

// Cursor reports the stream's consumed position in its own sequence space
// — everything published so far minus what still waits undelivered — which
// is what hbnet.CursorSource wants so a relay handoff can report exactly
// where a migration picked the stream up.
func (s *AppStream) Cursor() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.head - uint64(len(s.pending))
}

// Recycle returns a delivered batch's storage for reuse (hbnet's
// BatchRecycler contract — the relay calls it after copying records out).
func (s *AppStream) Recycle(b observer.Batch) {
	if cap(b.Records) == 0 {
		return
	}
	s.mu.Lock()
	if len(s.free) < 4 {
		s.free = append(s.free, b.Records[:0])
	}
	s.mu.Unlock()
}

// Close ends the stream: the consumer drains pending records, then sees
// io.EOF.
func (s *AppStream) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		if s.notify != nil {
			close(s.notify)
			s.notify = nil
		}
	}
	s.mu.Unlock()
	return nil
}
