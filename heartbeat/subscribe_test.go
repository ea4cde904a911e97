package heartbeat_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/heartbeat"
	"repro/sim"
)

func TestReadSinceIncremental(t *testing.T) {
	for _, variant := range []struct {
		name string
		opts []heartbeat.Option
	}{
		{"lockfree", nil},
		{"locked", []heartbeat.Option{heartbeat.WithLockedStore()}},
	} {
		t.Run(variant.name, func(t *testing.T) {
			clk := sim.NewClock(time.Time{})
			hb, err := heartbeat.New(10, append(variant.opts, heartbeat.WithClock(clk), heartbeat.WithCapacity(64))...)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				clk.Advance(time.Millisecond)
				hb.BeatTag(int64(i))
			}
			recs, cur := hb.ReadSince(0)
			if len(recs) != 5 || cur != 5 {
				t.Fatalf("ReadSince(0) = %d records, cursor %d; want 5, 5", len(recs), cur)
			}
			for i, r := range recs {
				if r.Seq != uint64(i+1) || r.Tag != int64(i) {
					t.Fatalf("record %d = %+v", i, r)
				}
			}
			// Idle: cursor unchanged, nothing returned.
			recs, cur2 := hb.ReadSince(cur)
			if len(recs) != 0 || cur2 != cur {
				t.Fatalf("idle ReadSince = %d records, cursor %d", len(recs), cur2)
			}
			// Only the delta comes back.
			hb.Beat()
			recs, cur3 := hb.ReadSince(cur2)
			if len(recs) != 1 || recs[0].Seq != 6 || cur3 != 6 {
				t.Fatalf("delta ReadSince = %+v, cursor %d", recs, cur3)
			}
		})
	}
}

func TestReadSinceSeesUnflushedShardBeats(t *testing.T) {
	hb, err := heartbeat.New(10, heartbeat.WithCapacity(64))
	if err != nil {
		t.Fatal(err)
	}
	tr := hb.Thread("w")
	for i := 0; i < 3; i++ {
		tr.GlobalBeat()
	}
	// No explicit Flush: ReadSince merges the pending shard records, like
	// History does.
	recs, cur := hb.ReadSince(0)
	if len(recs) != 3 || cur != 3 {
		t.Fatalf("ReadSince = %d records, cursor %d; want 3, 3", len(recs), cur)
	}
}

func TestReadSinceOverwriteReportsLoss(t *testing.T) {
	clk := sim.NewClock(time.Time{})
	hb, err := heartbeat.New(2, heartbeat.WithClock(clk), heartbeat.WithCapacity(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		clk.Advance(time.Millisecond)
		hb.Beat()
	}
	recs, cur := hb.ReadSince(0)
	if cur != 20 {
		t.Fatalf("cursor = %d, want 20", cur)
	}
	if len(recs) != 8 || recs[0].Seq != 13 || recs[7].Seq != 20 {
		t.Fatalf("retained window = %+v", recs)
	}
}

func TestSubscribeDeliversBacklogThenDeltas(t *testing.T) {
	clk := sim.NewClock(time.Time{})
	hb, err := heartbeat.New(10, heartbeat.WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		clk.Advance(time.Millisecond)
		hb.Beat()
	}
	sub := hb.Subscribe(context.Background())
	defer sub.Close()
	recs, err := sub.Next(context.Background())
	if err != nil || len(recs) != 4 {
		t.Fatalf("backlog batch = %d records, err %v", len(recs), err)
	}
	if recs, ok := sub.PollInto(nil); ok {
		t.Fatalf("Poll after drain returned %d records", len(recs))
	}
	hb.Beat()
	recs, err = sub.Next(context.Background())
	if err != nil || len(recs) != 1 || recs[0].Seq != 5 {
		t.Fatalf("delta batch = %+v, err %v", recs, err)
	}
	if sub.Cursor() != 5 || sub.Missed() != 0 {
		t.Fatalf("cursor %d missed %d", sub.Cursor(), sub.Missed())
	}
}

func TestSubscribeWakesBlockedNextOnDirectBeat(t *testing.T) {
	hb, err := heartbeat.New(10)
	if err != nil {
		t.Fatal(err)
	}
	sub := hb.Subscribe(context.Background())
	defer sub.Close()
	got := make(chan []heartbeat.Record, 1)
	go func() {
		recs, err := sub.Next(context.Background())
		if err != nil {
			t.Error(err)
		}
		got <- recs
	}()
	time.Sleep(10 * time.Millisecond) // let Next block
	hb.Beat()
	select {
	case recs := <-got:
		if len(recs) != 1 {
			t.Fatalf("woke with %d records", len(recs))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next never woke on a direct beat")
	}
}

func TestSubscribeWakesBlockedNextOnFlush(t *testing.T) {
	hb, err := heartbeat.New(10)
	if err != nil {
		t.Fatal(err)
	}
	tr := hb.Thread("w")
	sub := hb.Subscribe(context.Background())
	defer sub.Close()
	got := make(chan int, 1)
	go func() {
		recs, err := sub.Next(context.Background())
		if err != nil {
			t.Error(err)
		}
		got <- len(recs)
	}()
	time.Sleep(10 * time.Millisecond)
	tr.GlobalBeat() // parks in the shard: far below the soft limit
	tr.GlobalBeat()
	hb.Flush() // the flush publishes and must wake the subscriber
	select {
	case n := <-got:
		if n != 2 {
			t.Fatalf("woke with %d records, want 2", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next never woke on Flush")
	}
}

func TestSubscribeNextContextCancel(t *testing.T) {
	hb, err := heartbeat.New(10)
	if err != nil {
		t.Fatal(err)
	}
	sub := hb.Subscribe(context.Background())
	defer sub.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := sub.Next(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestSubscribeNextReturnsPendingDataBeforeCtx(t *testing.T) {
	hb, err := heartbeat.New(10)
	if err != nil {
		t.Fatal(err)
	}
	hb.Beat()
	sub := hb.Subscribe(context.Background())
	defer sub.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already done: pending data must still win
	recs, err := sub.Next(ctx)
	if err != nil || len(recs) != 1 {
		t.Fatalf("Next with cancelled ctx = %d records, err %v; want the pending record", len(recs), err)
	}
	if _, err := sub.Next(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("drained Next err = %v, want canceled", err)
	}
}

func TestSubscribeFromResumesWithoutLossOrDup(t *testing.T) {
	clk := sim.NewClock(time.Time{})
	hb, err := heartbeat.New(10, heartbeat.WithClock(clk), heartbeat.WithCapacity(64))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		clk.Advance(time.Millisecond)
		hb.Beat()
	}
	sub := hb.Subscribe(context.Background())
	first, err := sub.Next(context.Background())
	if err != nil || len(first) != 6 {
		t.Fatalf("first batch %d records, err %v", len(first), err)
	}
	cur := sub.Cursor()
	sub.Close()

	for i := 0; i < 3; i++ {
		clk.Advance(time.Millisecond)
		hb.Beat()
	}
	resumed := hb.SubscribeFrom(context.Background(), cur)
	defer resumed.Close()
	second, err := resumed.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(second) != 3 || second[0].Seq != 7 || second[2].Seq != 9 {
		t.Fatalf("resumed batch = %+v, want seqs 7..9", second)
	}
}

// Regression: a cursor saved from a previous life of the producer (whose
// sequence numbers restarted at 1) used to stall the subscription forever
// — ReadSince's head stayed below the cursor, so Poll never returned
// records, Missed, or an error. The subscription must resynchronize from
// the new history instead, like the stream-side resyncs already do.
func TestSubscribeFromFutureCursorResynchronizes(t *testing.T) {
	clk := sim.NewClock(time.Time{})
	hb, err := heartbeat.New(10, heartbeat.WithClock(clk), heartbeat.WithCapacity(64))
	if err != nil {
		t.Fatal(err)
	}
	// The "restarted producer": this Heartbeat's seqs start at 1, but the
	// consumer resumes with a cursor from before the restart.
	sub := hb.SubscribeFrom(context.Background(), 5000)
	defer sub.Close()
	for i := 0; i < 4; i++ {
		clk.Advance(time.Millisecond)
		hb.Beat()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	recs, err := sub.Next(ctx)
	if err != nil {
		t.Fatalf("resumed-from-future Next stalled: %v", err)
	}
	if len(recs) != 4 || recs[0].Seq != 1 || recs[3].Seq != 4 {
		t.Fatalf("resynchronized batch = %+v, want seqs 1..4", recs)
	}
	if sub.Missed() != 0 {
		t.Fatalf("resync counted %d phantom missed records", sub.Missed())
	}
	if sub.Cursor() != 4 {
		t.Fatalf("cursor = %d after resync", sub.Cursor())
	}
}

func TestSubscribeNextErrClosedAfterDrain(t *testing.T) {
	hb, err := heartbeat.New(10)
	if err != nil {
		t.Fatal(err)
	}
	hb.Beat()
	sub := hb.Subscribe(context.Background())
	defer sub.Close()
	if err := hb.Close(); err != nil {
		t.Fatal(err)
	}
	// The pre-close record is still delivered...
	recs, err := sub.Next(context.Background())
	if err != nil || len(recs) != 1 {
		t.Fatalf("tail batch = %d records, err %v", len(recs), err)
	}
	// ...then the stream ends.
	if _, err := sub.Next(context.Background()); !errors.Is(err, heartbeat.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestSubscribeCloseWakesBlockedNext(t *testing.T) {
	hb, err := heartbeat.New(10)
	if err != nil {
		t.Fatal(err)
	}
	sub := hb.Subscribe(context.Background())
	defer sub.Close()
	got := make(chan error, 1)
	go func() {
		_, err := sub.Next(context.Background())
		got <- err
	}()
	time.Sleep(10 * time.Millisecond)
	hb.Close()
	select {
	case err := <-got:
		if !errors.Is(err, heartbeat.ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next never woke on Close")
	}
}

func TestSubscriptionCloseWakesBlockedNext(t *testing.T) {
	hb, err := heartbeat.New(10)
	if err != nil {
		t.Fatal(err)
	}
	sub := hb.Subscribe(context.Background())
	got := make(chan error, 1)
	go func() {
		_, err := sub.Next(context.Background())
		got <- err
	}()
	time.Sleep(10 * time.Millisecond) // let Next block on an idle heartbeat
	sub.Close()
	select {
	case err := <-got:
		if !errors.Is(err, heartbeat.ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next never woke on Subscription.Close")
	}
	sub.Close() // idempotent
}

func TestSubscriptionMissedCountsOverwrites(t *testing.T) {
	clk := sim.NewClock(time.Time{})
	hb, err := heartbeat.New(2, heartbeat.WithClock(clk), heartbeat.WithCapacity(4))
	if err != nil {
		t.Fatal(err)
	}
	sub := hb.Subscribe(context.Background())
	defer sub.Close()
	for i := 0; i < 12; i++ {
		clk.Advance(time.Millisecond)
		hb.Beat()
	}
	recs, ok := sub.PollInto(nil)
	if !ok {
		t.Fatal("no batch")
	}
	if len(recs) != 4 || sub.Missed() != 8 || sub.Cursor() != 12 {
		t.Fatalf("recs=%d missed=%d cursor=%d; want 4, 8, 12", len(recs), sub.Missed(), sub.Cursor())
	}
}
