package heartbeat_test

import (
	"context"
	"errors"
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

func TestContextWithTimeoutVirtualDeadline(t *testing.T) {
	clk := sim.NewClock(time.Time{})
	ctx, cancel := heartbeat.ContextWithTimeout(context.Background(), clk, time.Minute)
	defer cancel()
	select {
	case <-ctx.Done():
		t.Fatal("virtual deadline fired without an advance")
	case <-time.After(20 * time.Millisecond):
	}
	if ctx.Err() != nil {
		t.Fatalf("premature Err: %v", ctx.Err())
	}
	clk.Advance(2 * time.Minute)
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("virtual deadline never fired")
	}
	// The expiry must read as a deadline, not a cancellation: consumers
	// (internal/pump's read loop) distinguish "interval elapsed" from
	// "cancelled" by exactly this.
	if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
		t.Fatalf("Err = %v, want DeadlineExceeded", ctx.Err())
	}
}

func TestContextWithTimeoutCancelAndParent(t *testing.T) {
	clk := sim.NewClock(time.Time{})
	ctx, cancel := heartbeat.ContextWithTimeout(context.Background(), clk, time.Minute)
	cancel()
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("cancel never propagated")
	}
	if !errors.Is(ctx.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want Canceled", ctx.Err())
	}

	parent, pcancel := context.WithCancel(context.Background())
	ctx2, cancel2 := heartbeat.ContextWithTimeout(parent, clk, time.Minute)
	defer cancel2()
	pcancel()
	select {
	case <-ctx2.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("parent cancellation never propagated")
	}
	if !errors.Is(ctx2.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want Canceled", ctx2.Err())
	}
}

func TestContextWithTimeoutWallFallback(t *testing.T) {
	ctx, cancel := heartbeat.ContextWithTimeout(context.Background(), nil, 5*time.Millisecond)
	defer cancel()
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("wall-clock timeout never fired")
	}
	if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
		t.Fatalf("Err = %v, want DeadlineExceeded", ctx.Err())
	}
}
