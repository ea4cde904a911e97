package heartbeat

import (
	"sync"
	"sync/atomic"
	"time"
)

// Clock supplies timestamps for heartbeats. The default clock is the wall
// clock (time.Now), which Thread beats read once per several beats (see
// Thread). Deterministic tests and the simulated-machine experiments inject a
// manual clock (see package sim); an injected clock is read on every beat.
type Clock interface {
	Now() time.Time
}

// ClockFunc adapts a function to the Clock interface.
type ClockFunc func() time.Time

// Now implements Clock.
func (f ClockFunc) Now() time.Time { return f() }

// SystemClock returns the wall clock. Timestamps track wall time — external
// observers compare record times against their own clocks to detect
// staleness, so heartbeat timestamps must not drift from the wall across
// suspends or NTP steps. Per-producer monotonicity (never letting a
// thread's beats go backward across a wall step) is enforced by the beat
// paths themselves.
//
// A Heartbeat built without WithClock runs on this clock and lets each Thread
// reuse a reading for a bounded number of beats; passing it explicitly,
// WithClock(SystemClock()), asks for a reading on every beat instead.
func SystemClock() Clock { return systemClock{} }

type systemClock struct{}

func (systemClock) Now() time.Time { return time.Now() }

func (systemClock) NowNanos() int64 { return time.Now().UnixNano() }

// nanoClock is the fast-timestamp interface the beat hot path probes for:
// clocks that can hand out a Unix-nanosecond reading without constructing a
// time.Time.
type nanoClock interface {
	NowNanos() int64
}

// nanosFunc returns the cheapest available Unix-nanosecond reader for clk.
func nanosFunc(clk Clock) func() int64 {
	if nc, ok := clk.(nanoClock); ok {
		return nc.NowNanos
	}
	return func() int64 { return clk.Now().UnixNano() }
}

// CoarseClock is a cached wall clock: a background goroutine refreshes an
// atomic Unix-nanosecond reading at a fixed resolution, and Now/NowNanos
// just load it. It quantizes every reader in the process to the same
// instants, which suits a consumer that wants many heartbeats stamped alike.
// It is not the way to a cheap beat — the default clock already reads the
// wall once per several Thread beats, with no goroutine — and its resolution
// is a request, not a bound: the refresher is an ordinary goroutine, and with
// every P busy beating (GOMAXPROCS 2, two spinning producers, 100 µs
// resolution, 2 s) the reading handed out lagged the wall clock by 1.2 ms at
// the median, 4 ms at p90, 10 ms at p99 and 15 ms at worst, against 1.2 µs,
// 2 µs and 5 µs for the default clock's per-thread reuse in the same
// harness. An idle process pays the refresher's wake-ups all the same.
//
// Stop releases the refresher goroutine; a stopped clock keeps returning
// its last reading.
type CoarseClock struct {
	nanos atomic.Int64
	stop  chan struct{}
	once  sync.Once
}

// NewCoarseClock starts a coarse clock refreshing every resolution
// (non-positive selects 100µs).
func NewCoarseClock(resolution time.Duration) *CoarseClock {
	if resolution <= 0 {
		resolution = 100 * time.Microsecond
	}
	c := &CoarseClock{stop: make(chan struct{})}
	// Track the wall clock (so cross-process observers can judge
	// staleness against their own clocks) but never step backwards: a
	// backward wall adjustment plateaus the reading until the wall
	// catches up.
	last := time.Now().UnixNano()
	c.nanos.Store(last)
	go func() {
		t := time.NewTicker(resolution)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				if now := time.Now().UnixNano(); now > last {
					last = now
					c.nanos.Store(now)
				}
			}
		}
	}()
	return c
}

// Now implements Clock.
func (c *CoarseClock) Now() time.Time { return time.Unix(0, c.nanos.Load()) }

// NowNanos returns the cached Unix-nanosecond reading.
func (c *CoarseClock) NowNanos() int64 { return c.nanos.Load() }

// Stop halts the refresher goroutine. Stop is idempotent.
func (c *CoarseClock) Stop() { c.once.Do(func() { close(c.stop) }) }
