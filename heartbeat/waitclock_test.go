package heartbeat_test

import (
	"context"
	"testing"
	"time"

	"repro/heartbeat"
	"repro/sim"
)

// The waitclock tests live in the external package so they can use
// sim.Clock, the canonical WaitClock implementation.

func TestAfterFallsBackToWallClock(t *testing.T) {
	start := time.Now()
	<-heartbeat.After(nil, time.Millisecond)
	if time.Since(start) < time.Millisecond {
		t.Fatal("wall-clock After returned early")
	}
	<-heartbeat.After(heartbeat.SystemClock(), time.Millisecond)
}

func TestAfterUsesWaitClock(t *testing.T) {
	clk := sim.NewClock(time.Time{})
	ch := heartbeat.After(clk, time.Hour)
	select {
	case <-ch:
		t.Fatal("virtual timer fired without an advance")
	case <-time.After(20 * time.Millisecond):
	}
	clk.Advance(time.Hour)
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("virtual timer never fired after the advance")
	}
}

// A cancelled sleep stops its timer, so it leaves nothing queued for a
// virtual clock to leap to.
func TestSleepCtxCancelStopsTimer(t *testing.T) {
	clk := sim.NewClock(time.Time{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan bool)
	go func() { done <- heartbeat.SleepCtx(ctx, clk, time.Hour) }()
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
}
