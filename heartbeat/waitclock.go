package heartbeat

import (
	"context"
	"sync"
	"time"
)

// WaitClock is the unified time interface of the whole stack: a Clock that
// can also schedule waits on its own notion of time. The wall clock
// trivially satisfies it through time.After; a simulated clock (sim.Clock)
// satisfies it by registering virtual timers that fire when the clock is
// advanced. Every long-running loop in the system — observer tickers,
// hbnet backoff and retry pacing, scheduler decision cadences — waits
// through After(clk, d) rather than time.After, which is what lets the
// deterministic simulation harness (package simnet) run the entire stack
// under virtual time: a simulated second costs the number of events in it,
// not a second of anyone's life.
type WaitClock interface {
	Clock
	// After returns a channel that delivers the clock's reading once d has
	// elapsed on this clock. Like time.After, the timer cannot be stopped;
	// use it for waits that are consumed or abandoned wholesale.
	After(d time.Duration) <-chan time.Time
}

// Now reads clk, falling back to the wall clock for nil — the one
// nil-tolerant clock reader every package shares.
func Now(clk Clock) time.Time {
	if clk != nil {
		return clk.Now()
	}
	return time.Now() //hbvet:allow wallclock -- nil-clock fallback: this function is the wall-read seam itself
}

// After waits d on clk's schedule: clocks implementing WaitClock wait in
// their own (possibly virtual) time, everything else — including a nil clk
// — falls back to time.After. This is the one wait primitive the package
// loops share.
func After(clk Clock, d time.Duration) <-chan time.Time {
	if wc, ok := clk.(WaitClock); ok {
		return wc.After(d)
	}
	return time.After(d) //hbvet:allow wallclock -- non-WaitClock fallback: this function is the wall-wait seam itself
}

// SleepCtx blocks for d on clk's schedule or until ctx is cancelled; false
// means cancelled.
func SleepCtx(ctx context.Context, clk Clock, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	select {
	case <-ctx.Done():
		return false
	case <-After(clk, d):
		return true
	}
}

// Ticker delivers one tick per interval on any Clock: wall clocks (nil,
// SystemClock, a ClockFunc — anything without scheduling) reuse a single
// runtime ticker, while WaitClocks re-arm a virtual timer per tick (a
// virtual timer cannot be cancelled, so a long-lived ticker re-arms only
// as it is consumed). Receive from C(), then call Next() to re-arm before
// the next receive:
//
//	tick := heartbeat.NewTicker(clk, interval)
//	defer tick.Stop()
//	for {
//		select {
//		case <-tick.C():
//			tick.Next()
//			...
//		}
//	}
type Ticker struct {
	clk Clock
	d   time.Duration
	t   *time.Ticker // wall path; nil on the virtual path
	ch  <-chan time.Time
}

// NewTicker creates a ticker with period d on clk.
func NewTicker(clk Clock, d time.Duration) *Ticker {
	tk := &Ticker{clk: clk, d: d}
	if _, virtual := clk.(WaitClock); virtual {
		tk.ch = After(clk, d)
	} else {
		tk.t = time.NewTicker(d) //hbvet:allow wallclock,clockthread -- wall-path branch of the clock-dispatching ticker seam
		tk.ch = tk.t.C
	}
	return tk
}

// C returns the channel to receive the next tick from. On the virtual
// path the channel changes after each Next, so re-read C() per wait.
func (t *Ticker) C() <-chan time.Time { return t.ch }

// Next re-arms the ticker after a received tick (no-op on the wall path,
// where the runtime ticker keeps its own cadence).
func (t *Ticker) Next() {
	if t.t == nil {
		t.ch = After(t.clk, t.d)
	}
}

// Stop releases the wall ticker. An outstanding virtual timer cannot be
// removed; it fires into an abandoned channel and is collected.
func (t *Ticker) Stop() {
	if t.t != nil {
		t.t.Stop()
	}
}

// ContextWithTimeout derives a context that expires once d has elapsed on
// clk. For wall clocks (anything not implementing WaitClock, including nil)
// it is exactly context.WithTimeout; for virtual clocks the deadline is a
// virtual-time timer, so a loop bounding its waits with it re-polls on the
// simulation's schedule instead of the host's. The expired context reports
// context.DeadlineExceeded, like a real deadline context, because callers
// distinguish "the interval elapsed" from "cancelled" by exactly that.
//
// Cost note: the virtual path spawns one watcher goroutine per call, and
// the timer it registers cannot be removed by cancel — it stays queued on
// the clock until virtual time sweeps past it. That is fine for the
// interval-bounded loops this serves (one abandoned interval-length timer
// per delivered batch, reclaimed within the interval); don't put it on a
// per-record hot path.
func ContextWithTimeout(parent context.Context, clk Clock, d time.Duration) (context.Context, context.CancelFunc) {
	wc, ok := clk.(WaitClock)
	if !ok {
		return context.WithTimeout(parent, d) //hbvet:allow wallclock -- wall-clock branch of the deadline seam itself
	}
	ctx := &waitClockCtx{parent: parent, done: make(chan struct{})}
	stop := make(chan struct{})
	var stopOnce sync.Once
	cancel := func() { stopOnce.Do(func() { close(stop) }) }
	go func() {
		select {
		case <-parent.Done():
			ctx.expire(parent.Err())
		case <-wc.After(d):
			ctx.expire(context.DeadlineExceeded)
		case <-stop:
			ctx.expire(context.Canceled)
		}
	}()
	return ctx, cancel
}

// waitClockCtx is a context whose deadline lives on a WaitClock. It carries
// no wall-clock Deadline() — the virtual deadline is not comparable to the
// caller's time.Now, and reporting none makes select-based waiters (the
// only consumers) do the right thing.
type waitClockCtx struct {
	parent context.Context
	done   chan struct{}

	mu  sync.Mutex
	err error
}

func (c *waitClockCtx) expire(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
		close(c.done)
	}
	c.mu.Unlock()
}

func (c *waitClockCtx) Deadline() (time.Time, bool)       { return time.Time{}, false }
func (c *waitClockCtx) Done() <-chan struct{}             { return c.done }
func (c *waitClockCtx) Value(key interface{}) interface{} { return c.parent.Value(key) }

func (c *waitClockCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}
