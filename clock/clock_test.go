package clock

import (
	"context"
	"testing"
	"time"
)

// wallClock is a Clock that is not a *Virtual: AfterFunc must fall back to
// the wall for it, as for nil.
type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func TestSleepCtxFallsBackToWallClock(t *testing.T) {
	for _, clk := range []Clock{nil, wallClock{}} {
		start := time.Now()
		if !SleepCtx(context.Background(), clk, time.Millisecond) {
			t.Fatalf("wall-clock SleepCtx on %T reported a cancellation", clk)
		}
		if time.Since(start) < time.Millisecond {
			t.Fatalf("wall-clock SleepCtx on %T returned early", clk)
		}
	}
}

// A virtual sleep ends when the clock is advanced past it, not before.
func TestSleepCtxReturnsOnlyAfterAdvance(t *testing.T) {
	clk := NewVirtual()
	done := make(chan bool, 1)
	go func() { done <- SleepCtx(context.Background(), clk, time.Hour) }()
	for clk.PendingTimers() == 0 {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
		t.Fatal("virtual sleep returned without an advance")
	case <-time.After(20 * time.Millisecond):
	}
	clk.Advance(time.Hour)
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("an uncancelled SleepCtx reported a cancellation")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("virtual sleep never returned after the advance")
	}
}

// A cancelled sleep stops its timer, and a sleep on an already-cancelled
// context arms none, so neither leaves anything queued for a virtual
// clock to leap to.
func TestSleepCtxCancelStopsTimer(t *testing.T) {
	clk := NewVirtual()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan bool)
	go func() { done <- SleepCtx(ctx, clk, time.Hour) }()
	for clk.PendingTimers() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if <-done {
		t.Fatal("a cancelled SleepCtx reported a full sleep")
	}
	if n := clk.PendingTimers(); n != 0 {
		t.Fatalf("PendingTimers = %d after a cancelled sleep, want 0", n)
	}

	for _, d := range []time.Duration{time.Hour, 0} {
		if SleepCtx(ctx, clk, d) {
			t.Fatalf("SleepCtx(%v) on a cancelled context reported a full sleep", d)
		}
		if n := clk.PendingTimers(); n != 0 {
			t.Fatalf("PendingTimers = %d after SleepCtx(%v) on a cancelled context, want 0", n, d)
		}
		// No allocation means no timer was armed, not merely stopped.
		if n := testing.AllocsPerRun(10, func() { SleepCtx(ctx, clk, d) }); n != 0 {
			t.Fatalf("SleepCtx(%v) on a cancelled context allocated %v times, want 0", d, n)
		}
	}
}
