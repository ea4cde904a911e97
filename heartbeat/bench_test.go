package heartbeat_test

import (
	"context"
	"testing"

	"repro/heartbeat"
)

// BenchmarkBeat is the paper's per-beat cost, one beat per op, on the
// wall clock with the default window and a 1<<16-record history:
//
//   - direct: BeatTag on one heartbeat (the tree workloads' producers);
//   - direct-rr256: BeatTag round-robin over 256 heartbeats in 38-beat
//     bursts, so each burst lands on a history that has gone cold (the
//     fleet-rollup workload's producers);
//   - thread: Thread.GlobalBeatTag on one producer's shard, merged when the
//     shard is half full (the beat_hot workload's producers);
//   - subscribed: direct BeatTag with one Subscription registered whose
//     reader is parked elsewhere and never drains it, so every beat pays
//     the wake path's non-blocking send to a full channel.
//
// On a 2-vCPU Xeon guest a direct beat read 104–109 ns/op over five runs,
// of which reading the wall clock (time.Now alone, benchmarked the same
// way) was 61 ns.
func BenchmarkBeat(b *testing.B) {
	newHB := func(b *testing.B) *heartbeat.Heartbeat {
		hb, err := heartbeat.New(0, heartbeat.WithCapacity(1<<16))
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { hb.Close() })
		return hb
	}
	b.Run("direct", func(b *testing.B) {
		hb := newHB(b)
		for i := 0; i < b.N; i++ {
			hb.BeatTag(int64(i))
		}
	})
	b.Run("direct-rr256", func(b *testing.B) {
		const apps, burst = 256, 38
		hbs := make([]*heartbeat.Heartbeat, apps)
		for a := range hbs {
			hbs[a] = newHB(b)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hbs[i/burst%apps].BeatTag(int64(i))
		}
	})
	b.Run("thread", func(b *testing.B) {
		t := newHB(b).Thread("bench")
		for i := 0; i < b.N; i++ {
			t.GlobalBeatTag(int64(i))
		}
	})
	b.Run("subscribed", func(b *testing.B) {
		hb := newHB(b)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		sub := hb.Subscribe(ctx)
		defer sub.Close()
		for i := 0; i < b.N; i++ {
			hb.BeatTag(int64(i))
		}
	})
}
