package heartbeat_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/clock"
	"repro/heartbeat"
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
			clk := clock.NewVirtual()
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
	clk := clock.NewVirtual()
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

// Regression: a cursor saved from a previous life of the producer (whose
// sequence numbers restarted at 1) used to stall the subscription forever
// — ReadSince's head stayed below the cursor, so Poll never returned
// records, Missed, or an error. The subscription must resynchronize from
// the new history instead, like the stream-side resyncs already do.
func TestSubscribeFromFutureCursorResynchronizes(t *testing.T) {
	clk := clock.NewVirtual()
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
