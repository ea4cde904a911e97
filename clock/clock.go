// Package clock is the one time seam of the whole stack: the Clock every
// package reads, the stoppable Timer every long-running loop waits on, and
// Virtual, the manually advanced clock that stands in for the wall.
//
// Observer tickers, hbnet backoff and retry pacing, the pump's read
// deadline and the aggregator's flusher all wait on one Timer from
// AfterFunc(clk, d, f) rather than on the time package. That is what lets
// the deterministic simulation harness (package simnet) run the entire
// stack under virtual time: a simulated second costs the number of events
// in it, not a second of anyone's life. The package imports nothing from
// the rest of the module.
package clock

import (
	"context"
	"time"
)

// Clock supplies timestamps. A nil Clock is the wall clock (see Now).
type Clock interface {
	Now() time.Time
}

// Timer is one scheduled callback — the method set of *time.Timer, so wall
// timers need no wrapper. Stop cancels the callback, Reset re-arms it d
// from the clock's current reading; both report whether it was pending.
type Timer interface {
	Stop() bool
	Reset(d time.Duration) bool
}

// Now reads clk, falling back to the wall clock for nil — the one
// nil-tolerant clock reader every package shares.
func Now(clk Clock) time.Time {
	if clk != nil {
		return clk.Now()
	}
	return time.Now()
}

// AfterFunc runs f once d has elapsed on clk's schedule: on a *Virtual it
// runs in virtual time, as the clock is advanced; every other clock —
// including a nil clk — falls back to time.AfterFunc. This is the one
// scheduling primitive the package loops share.
func AfterFunc(clk Clock, d time.Duration, f func()) Timer {
	if v, ok := clk.(*Virtual); ok {
		return v.afterFunc(d, f)
	}
	return time.AfterFunc(d, f)
}

// SleepCtx blocks for d on clk's schedule or until ctx is cancelled; false
// means cancelled. A sleep on an already-cancelled ctx arms no timer, and
// a cancelled sleep stops its timer, so neither leaves anything queued.
func SleepCtx(ctx context.Context, clk Clock, d time.Duration) bool {
	if ctx.Err() != nil {
		return false
	}
	if d <= 0 {
		return true
	}
	done := make(chan struct{})
	t := AfterFunc(clk, d, func() { close(done) })
	select {
	case <-ctx.Done():
		t.Stop()
		return false
	case <-done:
		return true
	}
}
