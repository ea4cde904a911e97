package pump

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/clock"
)

// A pump bounds its waits with one reusable context and timer, on the wall
// clock and on a virtual one alike. A wait that ends with a delivery
// allocates nothing, so the per-batch path of every hub and relay pump is
// allocation-free. A wait that times out costs the next wait one fresh
// Done channel (a closed channel cannot be reopened): one allocation per
// idle interval, never per batch.
func TestWallWaitAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		clk  clock.Clock
	}{{"wall", nil}, {"sim", clock.NewVirtual()}} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			w := newWait(ctx, tc.clk)
			defer w.stop()
			w.arm(time.Hour) // the first arm makes the timer
			w.disarm()

			if n := testing.AllocsPerRun(100, func() {
				w.arm(time.Hour)
				if w.Err() != nil {
					t.Fatal("an armed wait expired early")
				}
				w.disarm()
			}); n != 0 {
				t.Fatalf("a delivering wait allocates %v, want 0", n)
			}
			expire := func() {}
			if clk, ok := tc.clk.(*clock.Virtual); ok {
				expire = func() { clk.Advance(time.Microsecond) }
			}
			if n := testing.AllocsPerRun(20, func() {
				w.arm(time.Microsecond)
				expire()
				<-w.Done()
				w.disarm()
			}); n > 1 {
				t.Fatalf("an idle wait allocates %v, want at most the fresh Done channel", n)
			}
			if err := w.Err(); err != context.DeadlineExceeded {
				t.Fatalf("after an idle wait Err = %v, want DeadlineExceeded", err)
			}
		})
	}
}

// On a virtual clock the wait expires only once the clock is advanced past
// it, and the expiry reads as a deadline, not a cancellation: Run tells
// "the interval elapsed" from "cancelled" by exactly this.
func TestWaitVirtualDeadline(t *testing.T) {
	clk := clock.NewVirtual()
	w := newWait(context.Background(), clk)
	defer w.stop()
	w.arm(time.Minute)
	select {
	case <-w.Done():
		t.Fatal("virtual deadline fired without an advance")
	case <-time.After(20 * time.Millisecond):
	}
	if w.Err() != nil {
		t.Fatalf("premature Err: %v", w.Err())
	}
	clk.Advance(2 * time.Minute)
	select {
	case <-w.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("virtual deadline never fired")
	}
	if !errors.Is(w.Err(), context.DeadlineExceeded) {
		t.Fatalf("Err = %v, want DeadlineExceeded", w.Err())
	}
}

// A disarmed wait never expires and leaves no timer queued; cancelling the
// parent ends the wait as Canceled.
func TestWaitDisarmAndParentCancel(t *testing.T) {
	clk := clock.NewVirtual()
	parent, cancel := context.WithCancel(context.Background())
	w := newWait(parent, clk)
	defer w.stop()
	w.arm(time.Minute)
	w.disarm()
	if n := clk.PendingTimers(); n != 0 {
		t.Fatalf("PendingTimers = %d after disarm, want 0", n)
	}
	clk.Advance(2 * time.Minute)
	if w.Err() != nil {
		t.Fatalf("a disarmed wait expired: %v", w.Err())
	}

	w.arm(time.Minute)
	cancel()
	select {
	case <-w.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("parent cancellation never propagated")
	}
	if !errors.Is(w.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want Canceled", w.Err())
	}
}

func TestWaitWallDeadline(t *testing.T) {
	w := newWait(context.Background(), nil)
	defer w.stop()
	w.arm(5 * time.Millisecond)
	select {
	case <-w.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("wall-clock deadline never fired")
	}
	if !errors.Is(w.Err(), context.DeadlineExceeded) {
		t.Fatalf("Err = %v, want DeadlineExceeded", w.Err())
	}
}

// On a virtual clock that never advances, a delivery costs no allocation
// and leaves no timer queued: each wait's timer is stopped and re-armed,
// not abandoned.
func TestRunLeavesNoVirtualTimers(t *testing.T) {
	const deliveries = 10000
	clk := clock.NewVirtual()
	run := func(n int) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		got := 0
		next := func(context.Context) (int, error) { return 1, nil }
		deliver := func(v int) {
			if got += v; got == n {
				cancel()
			}
		}
		Run(ctx, clk, time.Second, next, deliver, func(error) bool { return true })
	}
	// Run's own setup (its wait, the parent watch, the first timer) is a
	// few allocations in all: well under 0.01 per delivery.
	if per := testing.AllocsPerRun(1, func() { run(deliveries) }) / deliveries; per >= 0.01 {
		t.Fatalf("a delivery allocates %.2f, want 0", per)
	}
	if n := clk.PendingTimers(); n != 0 {
		t.Fatalf("PendingTimers = %d after Run returned, want 0", n)
	}
}
