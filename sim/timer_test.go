package sim

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/heartbeat"
)

// after is the channel form of AfterFunc the timer tests wait on: the
// channel delivers the clock's reading when the timer runs.
func after(c *Clock, d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	c.AfterFunc(d, func() { ch <- c.Now() })
	return ch
}

func TestAfterFiresOnAdvanceInDeadlineOrder(t *testing.T) {
	c := NewClock(time.Time{})
	a := after(c, 3*time.Second)
	b := after(c, 1*time.Second)
	if got := c.PendingTimers(); got != 2 {
		t.Fatalf("PendingTimers = %d, want 2", got)
	}

	// Nothing fires before its deadline.
	c.Advance(999 * time.Millisecond)
	select {
	case <-a:
		t.Fatal("3s timer fired at 0.999s")
	case <-b:
		t.Fatal("1s timer fired at 0.999s")
	default:
	}

	// One sweep past both deadlines fires both, each stamped with its own
	// deadline, not the sweep target.
	c.Advance(10 * time.Second)
	tb := <-b
	ta := <-a
	if want := Epoch.Add(1 * time.Second); !tb.Equal(want) {
		t.Fatalf("1s timer stamped %v, want %v", tb, want)
	}
	if want := Epoch.Add(3 * time.Second); !ta.Equal(want) {
		t.Fatalf("3s timer stamped %v, want %v", ta, want)
	}
	if got := c.PendingTimers(); got != 0 {
		t.Fatalf("PendingTimers = %d after firing, want 0", got)
	}
}

func TestAfterNonPositiveFiresImmediately(t *testing.T) {
	c := NewClock(time.Time{})
	select {
	case <-after(c, 0):
	default:
		t.Fatal("a timer of 0 did not fire immediately")
	}
}

func TestAdvanceToNext(t *testing.T) {
	c := NewClock(time.Time{})
	if c.AdvanceToNext() {
		t.Fatal("AdvanceToNext with no timers reported true")
	}
	ch := after(c, 5*time.Second)
	later := after(c, 7*time.Second)
	if !c.AdvanceToNext() {
		t.Fatal("AdvanceToNext with a timer reported false")
	}
	if want := Epoch.Add(5 * time.Second); !c.Now().Equal(want) {
		t.Fatalf("Now = %v, want %v", c.Now(), want)
	}
	<-ch
	select {
	case <-later:
		t.Fatal("later timer fired early")
	default:
	}
	if dl, ok := c.NextDeadline(); !ok || !dl.Equal(Epoch.Add(7*time.Second)) {
		t.Fatalf("NextDeadline = %v, %v", dl, ok)
	}
}

// AutoAdvance must drive a ticker-style loop — wait, work, re-arm —
// through many virtual seconds in a few real milliseconds.
func TestAutoAdvanceDrivesRearmedWaits(t *testing.T) {
	c := NewClock(time.Time{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var ticks atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			<-after(c, time.Second)
			ticks.Add(1)
		}
	}()
	go c.AutoAdvance(ctx, 0)

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("loop stalled after %d ticks", ticks.Load())
	}
	if got := ticks.Load(); got != 1000 {
		t.Fatalf("ticks = %d, want 1000", got)
	}
	if elapsed := c.Elapsed(Epoch); elapsed < 1000*time.Second {
		t.Fatalf("virtual elapsed %v, want >= 1000s", elapsed)
	}
}

func TestAutoAdvanceLimitStops(t *testing.T) {
	c := NewClock(time.Time{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { // a loop that would re-arm forever
		for {
			<-after(c, time.Second)
		}
	}()
	done := make(chan struct{})
	go func() { defer close(done); c.AutoAdvance(ctx, 30*time.Second) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("AutoAdvance ignored its limit")
	}
}

func TestAfterFuncStopReset(t *testing.T) {
	c := NewClock(time.Time{})
	var ran atomic.Int64

	// A stopped timer drops out of the queue and never runs.
	stopped := c.AfterFunc(time.Second, func() { ran.Add(1) })
	if !stopped.Stop() {
		t.Fatal("Stop of a pending timer reported false")
	}
	if stopped.Stop() {
		t.Fatal("second Stop reported true")
	}
	if got := c.PendingTimers(); got != 0 {
		t.Fatalf("PendingTimers = %d after Stop, want 0", got)
	}
	c.Advance(time.Hour)
	if ran.Load() != 0 {
		t.Fatal("a stopped timer ran")
	}

	// Reset re-arms from the clock's current reading and reports whether
	// the timer was still pending.
	start := c.Now()
	var at time.Time
	tm := c.AfterFunc(time.Second, func() { at = c.Now() })
	if !tm.Reset(5 * time.Second) {
		t.Fatal("Reset of a pending timer reported false")
	}
	if got := c.PendingTimers(); got != 1 {
		t.Fatalf("PendingTimers = %d after Reset, want 1", got)
	}
	c.Advance(4 * time.Second)
	if !at.IsZero() {
		t.Fatal("reset timer ran at its old deadline")
	}
	c.Advance(time.Second)
	if want := start.Add(5 * time.Second); !at.Equal(want) {
		t.Fatalf("reset timer read %v, want %v", at, want)
	}
	if tm.Reset(time.Second) {
		t.Fatal("Reset of a fired timer reported true")
	}
	if !tm.Stop() {
		t.Fatal("Stop of a re-armed timer reported false")
	}

	// A callback reads its own deadline and re-arms itself without
	// deadlock; one sweep runs every re-armed deadline it passes.
	var stamps []time.Time
	var tick heartbeat.Timer
	tick = c.AfterFunc(time.Second, func() {
		stamps = append(stamps, c.Now())
		if len(stamps) < 3 {
			tick.Reset(time.Second)
		}
	})
	start = c.Now()
	c.Advance(10 * time.Second)
	if len(stamps) != 3 {
		t.Fatalf("re-arming callback ran %d times, want 3", len(stamps))
	}
	for i, st := range stamps {
		if want := start.Add(time.Duration(i+1) * time.Second); !st.Equal(want) {
			t.Fatalf("run %d read %v, want %v", i, st, want)
		}
	}
	if got := c.PendingTimers(); got != 0 {
		t.Fatalf("PendingTimers = %d, want 0", got)
	}

	// A non-positive d runs the callback at once.
	c.AfterFunc(0, func() { ran.Add(1) })
	c.AfterFunc(-time.Second, func() { ran.Add(1) })
	if ran.Load() != 2 {
		t.Fatalf("non-positive timers ran %d times, want 2", ran.Load())
	}
}
