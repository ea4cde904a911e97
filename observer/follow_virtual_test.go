package observer_test

// FollowFile under virtual time: the delete/recreate machinery driven by a
// simulated clock (and by expired-context drains), covering the windows
// the wall-clock tests could only reach with real sleeps — the
// deleted-but-not-yet-recreated gap, a recreation that lands between two
// idle ticks, and a recreation whose new file is briefly unopenable.

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/clock"
	"repro/hbfile"
	"repro/heartbeat"
	"repro/internal/simcheck"
	"repro/observer"
)

// virtualRingProducer writes records through an in-process heartbeat
// sinking into a ring file, timestamped by the virtual clock.
func virtualRingProducer(t *testing.T, clk *clock.Virtual, path string, capacity int) *heartbeat.Heartbeat {
	t.Helper()
	w, err := hbfile.Create(path, 10, capacity)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := heartbeat.New(10, heartbeat.WithClock(clk), heartbeat.WithSink(w), heartbeat.WithCapacity(capacity))
	if err != nil {
		t.Fatal(err)
	}
	return hb
}

// TestFollowFileVirtualRecreateBetweenIdleTicks runs a live FollowFile
// tail entirely on a simulated clock: the poll ticks, the
// recreation-detection stats they pace, and the producer all advance in
// virtual time (AutoAdvance), so a scenario that would cost seconds of
// wall-clock sleeping resolves in milliseconds. The file is deleted and
// recreated while the tail is idle — between two virtual ticks — and the
// tail must rotate into the new life, redelivering it from sequence 1.
func TestFollowFileVirtualRecreateBetweenIdleTicks(t *testing.T) {
	clk := clock.NewVirtual()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go clk.AutoAdvance(ctx, 0)

	path := filepath.Join(t.TempDir(), "app.hb")
	hb := virtualRingProducer(t, clk, path, 1024)

	s, err := observer.FollowFile(path, 15*time.Millisecond, 0, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer s.(io.Closer).Close()

	tracker := simcheck.NewTracker("virtual follow", 0)
	batches := make(chan observer.Batch, 64)
	go func() {
		for {
			b, err := s.Next(ctx)
			if err != nil {
				close(batches)
				return
			}
			batches <- b
		}
	}()
	absorb := func(want uint64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for tracker.Delivered() < want {
			select {
			case b, ok := <-batches:
				if !ok {
					t.Fatalf("stream ended at %d of %d records", tracker.Delivered(), want)
				}
				if err := tracker.Absorb(b); err != nil {
					t.Fatal(err)
				}
			case <-time.After(time.Until(deadline)):
				t.Fatalf("stalled at %d of %d records", tracker.Delivered(), want)
			}
		}
	}

	for i := 0; i < 10; i++ {
		hb.Beat()
	}
	absorb(10)

	// Delete, then recreate after a few virtual ticks have passed over the
	// deleted-not-yet-recreated window (the old inode keeps draining: the
	// missing path must not end or break the stream).
	hb.Close()
	os.Remove(path)
	virtualSleep(t, clk, 100*time.Millisecond)
	hb2 := virtualRingProducer(t, clk, path, 1024)
	defer hb2.Close()
	for i := 0; i < 7; i++ {
		hb2.Beat()
	}
	absorb(17)

	if err := tracker.CheckLives(2); err != nil {
		t.Fatal(err)
	}
	// Both lives fully observed: 10 published + 7 published, every one
	// delivered or accounted.
	if err := tracker.CheckConserved(17); err != nil {
		t.Fatal(err)
	}
}

// virtualSleep blocks (in real time) until the virtual clock has advanced
// by d — letting AutoAdvance fire however many poll ticks fit in it.
func virtualSleep(t *testing.T, clk *clock.Virtual, d time.Duration) {
	t.Helper()
	target := clk.Now().Add(d)
	deadline := time.Now().Add(10 * time.Second)
	for clk.Now().Before(target) {
		if time.Now().After(deadline) {
			t.Fatalf("virtual clock stalled at %v short of target", target.Sub(clk.Now()))
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestFollowFileDeletedWindowAndUnopenableSuccessor walks the recreation
// state machine deterministically with expired-context drains (the
// non-blocking form of Next), no clock driver at all: the deleted window
// is an idle tick, a recreated-but-garbage file parks the stream in its
// reopen-retry state, and a later valid successor — in the other variant —
// heals it.
func TestFollowFileDeletedWindowAndUnopenableSuccessor(t *testing.T) {
	clk := clock.NewVirtual()
	path := filepath.Join(t.TempDir(), "app.hb")
	hb := virtualRingProducer(t, clk, path, 1024)

	s, err := observer.FollowFile(path, 10*time.Millisecond, 0, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer s.(io.Closer).Close()

	expired, cancel := context.WithCancel(context.Background())
	cancel()
	drain := func() (observer.Batch, bool) {
		b, err := s.Next(expired)
		if err == nil {
			return b, true
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("drain: %v", err)
		}
		return observer.Batch{}, false
	}

	tracker := simcheck.NewTracker("deleted-window follow", 0)
	for i := 0; i < 5; i++ {
		hb.Beat()
	}
	if b, ok := drain(); !ok {
		t.Fatal("no batch for the first life")
	} else if err := tracker.Absorb(b); err != nil {
		t.Fatal(err)
	}

	// The deleted-not-yet-recreated window: the stream reports idle (a
	// cancelled wait), never an error and never EOF.
	hb.Close()
	os.Remove(path)
	for i := 0; i < 3; i++ {
		if _, ok := drain(); ok {
			t.Fatal("batch delivered from a deleted file")
		}
	}

	// A recreation the open cannot parse yet (a producer mid-write): the
	// stream drops its dead reader, then parks in the reopen-retry state —
	// still only idle ticks outward.
	if err := os.WriteFile(path, []byte("not a heartbeat file"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, ok := drain(); ok {
			t.Fatal("batch delivered from a garbage file")
		}
	}

	// The successor becomes valid — as the other variant (append-only log)
	// — and the tail rotates into it, redelivering from sequence 1.
	os.Remove(path)
	lw, err := hbfile.CreateLog(path, 10)
	if err != nil {
		t.Fatal(err)
	}
	hb2, err := heartbeat.New(10, heartbeat.WithClock(clk), heartbeat.WithSink(lw))
	if err != nil {
		t.Fatal(err)
	}
	defer hb2.Close()
	for i := 0; i < 4; i++ {
		hb2.Beat()
	}
	deadline := time.Now().Add(5 * time.Second)
	for tracker.Delivered() < 9 {
		if b, ok := drain(); ok {
			if err := tracker.Absorb(b); err != nil {
				t.Fatal(err)
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("stalled at %d of 9 records", tracker.Delivered())
		}
	}
	if err := tracker.CheckLives(2); err != nil {
		t.Fatal(err)
	}
	if err := tracker.CheckConserved(9); err != nil {
		t.Fatal(err)
	}
}
