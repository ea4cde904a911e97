package observer_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/heartbeat"
	"repro/observer"
	"repro/sim"
)

func TestMonitorOnErrorCallback(t *testing.T) {
	boom := errors.New("stream unavailable")
	src := scriptStream(func(context.Context) (observer.Batch, error) { return observer.Batch{}, boom })
	var errs atomic.Int32
	m := observer.NewMonitor(src, time.Millisecond, func(observer.Status) {
		t.Error("status delivered from failing stream")
	}, observer.WithOnError(func(err error) {
		if errors.Is(err, boom) {
			errs.Add(1)
		}
	}))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { m.Run(ctx); close(done) }()
	deadline := time.After(5 * time.Second)
	for errs.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("no error callbacks")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	cancel()
	<-done
}

// firstStatus runs a Monitor over st until its first judgment — Run's
// immediate one, from whatever the stream already holds — and returns it
// once Run has unwound.
func firstStatus(t *testing.T, st observer.Stream, opts ...observer.MonitorOption) observer.Status {
	t.Helper()
	got := make(chan observer.Status, 1)
	m := observer.NewMonitor(st, time.Hour, func(st observer.Status) {
		select {
		case got <- st:
		default:
		}
	}, opts...)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { m.Run(ctx); close(done) }()
	defer func() { cancel(); <-done }()
	select {
	case st := <-got:
		return st
	case <-time.After(5 * time.Second):
		t.Fatal("no status delivered")
		return observer.Status{}
	}
}

func TestMonitorMaxRecordsOption(t *testing.T) {
	clk := sim.NewClock(time.Time{})
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
	st := firstStatus(t, observer.HeartbeatStream(hb),
		observer.WithClassifier(&observer.Classifier{Clock: clk, Window: 4}),
		observer.WithMaxRecords(4))
	if !st.RateOK || st.Rate < 99 || st.Rate > 101 {
		t.Fatalf("windowed rate = %v, want ~100", st.Rate)
	}
}

func TestMonitorRunWithDefaults(t *testing.T) {
	clk := sim.NewClock(time.Time{})
	hb, _ := heartbeat.New(10, heartbeat.WithClock(clk))
	for i := 0; i < 10; i++ {
		clk.Advance(100 * time.Millisecond)
		hb.Beat()
	}
	st := firstStatus(t, observer.HeartbeatStream(hb))
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

// One ownership rule: the monitor a stream was handed to closes it, once,
// when Run returns.
func TestMonitorRunClosesStream(t *testing.T) {
	hb, _ := heartbeat.New(10)
	st := &closeCounter{Stream: observer.HeartbeatStream(hb)}
	firstStatus(t, st)
	if n := st.closes.Load(); n != 1 {
		t.Fatalf("Run closed its stream %d times, want 1", n)
	}
}
