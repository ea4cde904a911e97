package observer_test

// The §2.3 monitor is a Hub of one application: these tests drive that
// shape through Run.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/clock"
	"repro/heartbeat"
	"repro/observer"
)

func TestMonitorOnErrorCallback(t *testing.T) {
	boom := errors.New("stream unavailable")
	src := scriptStream(func(context.Context) (observer.Batch, error) { return observer.Batch{}, boom })
	var errs atomic.Int32
	hub := observer.NewHub(time.Millisecond, func(_ string, st observer.Status) {
		if st.Count != 0 {
			t.Errorf("status %+v judged beats a failing stream never delivered", st)
		}
	}, observer.WithHubOnError(func(_ string, err error) {
		if errors.Is(err, boom) {
			errs.Add(1)
		}
	}))
	if err := hub.Add("app", src); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { hub.Run(ctx); close(done) }()
	deadline := time.After(5 * time.Second)
	for errs.Load() < 2 { // the first failure, then a paced retry
		select {
		case <-deadline:
			t.Fatalf("%d error callbacks, want a retry after the first", errs.Load())
		default:
			time.Sleep(time.Millisecond)
		}
	}
	cancel()
	<-done
}

// firstStatus runs a one-application Hub over st, judged by cls (nil: the
// default classifier), until its first judgment — the one made as soon as
// the stream's first batch lands — and returns it once Run has unwound and
// the application is removed, releasing its stream. The hour-long interval
// keeps the periodic judgments out of the way.
func firstStatus(t *testing.T, st observer.Stream, cls *observer.Classifier) observer.Status {
	t.Helper()
	got := make(chan observer.Status, 1)
	hub := observer.NewHub(time.Hour, func(_ string, st observer.Status) {
		select {
		case got <- st:
		default:
		}
	}, observer.WithHubClassifier(func(string) *observer.Classifier { return cls }))
	if err := hub.Add("app", st); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { hub.Run(ctx); close(done) }()
	defer func() { cancel(); <-done; hub.Remove("app") }()
	select {
	case st := <-got:
		return st
	case <-time.After(5 * time.Second):
		t.Fatal("no status delivered")
		return observer.Status{}
	}
}

func TestMonitorMaxRecordsOption(t *testing.T) {
	clk := clock.NewVirtual()
	hb, err := heartbeat.New(10, heartbeat.WithClock(clk), heartbeat.WithCapacity(64))
	if err != nil {
		t.Fatal(err)
	}
	// First 30 beats slow, last 4 fast.
	for i := 0; i < 30; i++ {
		clk.Advance(time.Second)
		hb.Beat()
	}
	for i := 0; i < 4; i++ {
		clk.Advance(10 * time.Millisecond)
		hb.Beat()
	}
	// A classifier windowed to the last 4 records sees only the fast burst.
	st := firstStatus(t, observer.HeartbeatStream(hb), &observer.Classifier{Clock: clk, Window: 4})
	if !st.RateOK || st.Rate < 99 || st.Rate > 101 {
		t.Fatalf("windowed rate = %v, want ~100", st.Rate)
	}
}

func TestMonitorRunWithDefaults(t *testing.T) {
	clk := clock.NewVirtual()
	hb, _ := heartbeat.New(10, heartbeat.WithClock(clk))
	for i := 0; i < 10; i++ {
		clk.Advance(100 * time.Millisecond)
		hb.Beat()
	}
	st := firstStatus(t, observer.HeartbeatStream(hb), nil)
	// Default classifier uses the wall clock; the beats are at simulated
	// epoch so SinceLast is enormous — flatline is the correct judgment,
	// proving defaults engage end to end.
	if st.Count != 10 || st.Health != observer.Flatlined {
		t.Fatalf("status = %+v, want 10 beats judged flatlined", st)
	}
}

// closeCounter is a stream that counts its Closes.
type closeCounter struct {
	observer.Stream
	closes atomic.Int32
}

func (c *closeCounter) Close() error { c.closes.Add(1); return nil }

// One ownership rule: the hub a stream was handed to closes it, once, when
// the application is removed.
func TestMonitorRunClosesStream(t *testing.T) {
	hb, _ := heartbeat.New(10)
	hb.Beat()
	st := &closeCounter{Stream: observer.HeartbeatStream(hb)}
	firstStatus(t, st, nil)
	if n := st.closes.Load(); n != 1 {
		t.Fatalf("Remove closed the stream %d times, want 1", n)
	}
}
