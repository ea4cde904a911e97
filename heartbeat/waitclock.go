package heartbeat

import (
	"context"
	"time"
)

// WaitClock is the unified time interface of the whole stack: a Clock that
// can also schedule callbacks on its own notion of time. The wall clock
// trivially satisfies it through time.AfterFunc; a simulated clock
// (sim.Clock) satisfies it with virtual timers that run as the clock is
// advanced. Every long-running loop in the system — observer tickers,
// hbnet backoff and retry pacing, the pump's read deadline — waits on one
// Timer from AfterFunc(clk, d, f) rather than the time package, which is
// what lets the deterministic simulation harness (package simnet) run the
// entire stack under virtual time: a simulated second costs the number of
// events in it, not a second of anyone's life.
type WaitClock interface {
	Clock
	// AfterFunc runs f once d has elapsed on this clock (at once for a
	// non-positive d) and returns the Timer that stops or re-arms it.
	AfterFunc(d time.Duration, f func()) Timer
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
	return time.Now() //hbvet:allow wallclock -- nil-clock fallback: this function is the wall-read seam itself
}

// AfterFunc runs f once d has elapsed on clk's schedule: clocks
// implementing WaitClock run it in their own (possibly virtual) time,
// everything else — including a nil clk — falls back to time.AfterFunc.
// This is the one scheduling primitive the package loops share.
func AfterFunc(clk Clock, d time.Duration, f func()) Timer {
	if wc, ok := clk.(WaitClock); ok {
		return wc.AfterFunc(d, f)
	}
	return time.AfterFunc(d, f) //hbvet:allow wallclock -- non-WaitClock fallback: this function is the wall-timer seam itself
}

// After is AfterFunc's channel form: the channel delivers clk's reading
// once d has elapsed. Like time.After, the timer cannot be stopped; use it
// for waits that are consumed or abandoned wholesale.
func After(clk Clock, d time.Duration) <-chan time.Time {
	wc, ok := clk.(WaitClock)
	if !ok {
		return time.After(d) //hbvet:allow wallclock -- non-WaitClock fallback: this function is the wall-wait seam itself
	}
	ch := make(chan time.Time, 1)
	wc.AfterFunc(d, func() { ch <- wc.Now() })
	return ch
}

// SleepCtx blocks for d on clk's schedule or until ctx is cancelled; false
// means cancelled. A cancelled sleep stops its timer.
func SleepCtx(ctx context.Context, clk Clock, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
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
