package heartbeat

import (
	"time"

	"repro/clock"
)

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
func SystemClock() clock.Clock { return systemClock{} }

type systemClock struct{}

func (systemClock) Now() time.Time {
	return time.Now() //hbvet:allow wallclock -- the wall clock itself: a direct read keeps the beat path's reading inlinable
}

func (systemClock) NowNanos() int64 {
	return time.Now().UnixNano() //hbvet:allow wallclock -- the wall clock itself: a direct read keeps the beat path's reading inlinable
}

// nanoClock is the fast-timestamp interface the beat hot path probes for:
// clocks that can hand out a Unix-nanosecond reading without constructing a
// time.Time.
type nanoClock interface {
	NowNanos() int64
}

// nanosFunc returns the cheapest available Unix-nanosecond reader for clk.
func nanosFunc(clk clock.Clock) func() int64 {
	if nc, ok := clk.(nanoClock); ok {
		return nc.NowNanos
	}
	return func() int64 { return clk.Now().UnixNano() }
}
