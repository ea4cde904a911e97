package loadgen

import (
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"repro/clock"
	"repro/heartbeat"
	"repro/internal/simcheck"
)

// drainAll empties a stream without blocking (the Stream contract's
// expired-ctx drain).
func drainAll(t *testing.T, s *AppStream) []heartbeat.Record {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out []heartbeat.Record
	for {
		b, err := s.Next(ctx)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, io.EOF) {
				return out
			}
			t.Fatalf("drain: %v", err)
		}
		if b.Missed != 0 {
			t.Fatalf("AppStream reported Missed=%d; it never drops", b.Missed)
		}
		out = append(out, b.Records...)
	}
}

// TestFleetPump runs a small fleet entirely under virtual time and checks
// the pump's whole contract: dense per-app sequences, conservation of the
// published total, per-producer Life monotonicity (no stale-life
// resurrection), and that churn and silence bursts actually happened.
func TestFleetPump(t *testing.T) {
	cfg := Config{
		Seed:      21,
		Producers: 60,
		Apps:      5,
		BeatEvery: 100 * time.Millisecond,
		Duration:  3 * time.Second,
		ChurnFrac: 0.4,
		Bursts:    1,
		BurstLen:  500 * time.Millisecond,
		PumpTick:  10 * time.Millisecond,
	}
	clk := clock.NewVirtual()
	f := New(cfg, clk)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go clk.AutoAdvance(ctx, 0)
	done := make(chan struct{})
	go func() { defer close(done); f.Run(ctx) }()

	start := clk.Now()
	deadline := time.Now().Add(30 * time.Second)
	for clk.Now().Sub(start) < cfg.Duration {
		if time.Now().After(deadline) {
			t.Fatalf("virtual clock stalled at %v", clk.Now().Sub(start))
		}
		time.Sleep(time.Millisecond)
	}
	f.Pause()
	time.Sleep(20 * time.Millisecond) // let an in-flight step finish
	cancel()
	<-done

	var drained uint64
	lastLife := make(map[int32]int64)
	for i := 0; i < f.Apps(); i++ {
		recs := drainAll(t, f.Stream(i))
		simcheck.RequireDense(t, recs, 0)
		if uint64(len(recs)) != f.AppHead(i) {
			t.Fatalf("app %d: drained %d records, head %d", i, len(recs), f.AppHead(i))
		}
		drained += uint64(len(recs))
		for _, r := range recs {
			if r.Tag < lastLife[r.Producer] {
				t.Fatalf("producer %d: life regressed %d -> %d — a stale life resurrected",
					r.Producer, lastLife[r.Producer], r.Tag)
			}
			lastLife[r.Producer] = r.Tag
			if r.Time.Before(start) || r.Time.After(clk.Now()) {
				t.Fatalf("record stamped %v outside the run", r.Time)
			}
		}
	}
	if drained == 0 || drained != f.TotalPublished() {
		t.Fatalf("drained %d records, fleet published %d", drained, f.TotalPublished())
	}
	left, rejoined := f.Churned()
	if left == 0 || rejoined == 0 {
		t.Fatalf("churn unexercised: left %d rejoined %d", left, rejoined)
	}
	if f.Silenced() == 0 {
		t.Fatal("silence burst unexercised")
	}
	rejoinedLives := 0
	for _, life := range lastLife {
		if life >= 2 {
			rejoinedLives++
		}
	}
	if rejoinedLives == 0 {
		t.Fatal("no record carries a rejoined life's tag")
	}

	producers := 0
	for i := 0; i < f.Apps(); i++ {
		producers += f.ProducersOf(i)
	}
	if producers != cfg.Producers {
		t.Fatalf("app assignment covers %d producers, want %d", producers, cfg.Producers)
	}
}

// TestFleetDeterministicBuild: two fleets from the same seed draw the same
// app assignment and the same churn schedule.
func TestFleetDeterministicBuild(t *testing.T) {
	clk := clock.NewVirtual()
	cfg := Config{Seed: 5, Producers: 300, Apps: 8, ChurnFrac: 0.3}
	a, b := New(cfg, clk), New(cfg, clk)
	for i := 0; i < a.Apps(); i++ {
		if a.ProducersOf(i) != b.ProducersOf(i) {
			t.Fatalf("app %d: %d vs %d producers", i, a.ProducersOf(i), b.ProducersOf(i))
		}
	}
	if len(a.churn) != len(b.churn) {
		t.Fatalf("churn schedules differ in length: %d vs %d", len(a.churn), len(b.churn))
	}
	for i := range a.churn {
		if a.churn[i] != b.churn[i] {
			t.Fatalf("churn event %d differs: %+v vs %+v", i, a.churn[i], b.churn[i])
		}
	}
	if err := ValidateChurn(a.churn, cfg.Producers); err != nil {
		t.Fatal(err)
	}
}

// TestAppStreamContract: pending data wins over an expired context; Close
// yields EOF after the drain; Recycle feeds the publish free-list.
func TestAppStreamContract(t *testing.T) {
	s := &AppStream{name: "app"}
	s.publish([]heartbeat.Record{{Time: time.Unix(1, 0)}, {Time: time.Unix(2, 0)}})
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	b, err := s.Next(expired)
	if err != nil || len(b.Records) != 2 || b.Count != 2 {
		t.Fatalf("Next(expired) = %d records, Count %d, err %v; want the pending 2", len(b.Records), b.Count, err)
	}
	simcheck.RequireDense(t, b.Records, 0)
	if _, err := s.Next(expired); !errors.Is(err, context.Canceled) {
		t.Fatalf("idle Next(expired) = %v, want context.Canceled", err)
	}
	s.Recycle(b)
	s.publish([]heartbeat.Record{{Time: time.Unix(3, 0)}})
	s.Close()
	b, err = s.Next(context.Background())
	if err != nil || len(b.Records) != 1 || b.Records[0].Seq != 3 {
		t.Fatalf("post-Close drain = %+v, %v", b, err)
	}
	if _, err := s.Next(context.Background()); !errors.Is(err, io.EOF) {
		t.Fatalf("drained closed stream returns %v, want io.EOF", err)
	}
}
