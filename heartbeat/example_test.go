package heartbeat_test

import (
	"fmt"
	"time"

	"repro/clock"
	"repro/heartbeat"
)

// The basic instrumentation pattern: initialize, advertise a goal, beat at
// significant points, observe the rate. (A manual clock stands in for real
// time so the output is deterministic.)
func Example() {
	clk := clock.NewVirtual()
	hb, _ := heartbeat.New(10, heartbeat.WithClock(clk))
	hb.SetTarget(30, 35)

	for frame := 0; frame < 40; frame++ {
		clk.Advance(25 * time.Millisecond) // encode one frame
		hb.Beat()
	}
	rate, _ := hb.Rate(0)
	min, max, _ := hb.Target()
	fmt.Printf("rate %.0f beats/s, goal [%g, %g], met: %v\n", rate, min, max, rate >= min)
	// Output:
	// rate 40 beats/s, goal [30, 35], met: true
}

// Tags carry application meaning — here a video encoder marks frame types
// and asks for the I-frame rate separately.
func ExampleHeartbeat_RateByTag() {
	const tagI, tagP = 1, 2
	clk := clock.NewVirtual()
	hb, _ := heartbeat.New(20, heartbeat.WithClock(clk))

	for frame := 0; frame < 20; frame++ {
		clk.Advance(50 * time.Millisecond)
		if frame%5 == 0 {
			hb.BeatTag(tagI) // keyframe every 5th frame
		} else {
			hb.BeatTag(tagP)
		}
	}
	all, _ := hb.Rate(0)
	iOnly, _ := hb.RateByTag(20, tagI)
	fmt.Printf("all frames %.0f beats/s, I-frames %.0f beats/s\n", all, iOnly.PerSec)
	// Output:
	// all frames 20 beats/s, I-frames 4 beats/s
}

// Per-thread ("local") heartbeats give observers per-worker visibility
// while the global history tracks whole-application progress.
func ExampleHeartbeat_Thread() {
	clk := clock.NewVirtual()
	hb, _ := heartbeat.New(10, heartbeat.WithClock(clk))
	fast := hb.Thread("fast-worker")
	slow := hb.Thread("slow-worker")

	for i := 0; i < 12; i++ {
		clk.Advance(50 * time.Millisecond)
		fast.Beat()
		if i%3 == 0 {
			slow.Beat()
		}
	}
	fr, _ := fast.Rate(0)
	sr, _ := slow.Rate(0)
	fmt.Printf("fast %.0f beats/s, slow %.1f beats/s, global beats %d\n", fr, sr, hb.Count())
	// Output:
	// fast 20 beats/s, slow 6.7 beats/s, global beats 0
}

// A Subscription is a cursor over the history: each record is delivered
// exactly once, and a consumer that disconnects resumes from its saved
// cursor — the contract every observation backend (files, network,
// relays) extends across process and machine boundaries.
func ExampleHeartbeat_SubscribeFrom() {
	hb, _ := heartbeat.New(10)
	for i := 0; i < 3; i++ {
		hb.Beat()
	}

	sub := hb.Subscribe(nil)
	recs, _ := sub.Next(nil)
	fmt.Printf("first batch: seqs 1..%d\n", recs[len(recs)-1].Seq)
	cursor := sub.Cursor()
	sub.Close() // the consumer goes away, keeping its cursor

	for i := 0; i < 2; i++ {
		hb.Beat()
	}
	resumed := hb.SubscribeFrom(nil, cursor)
	defer resumed.Close()
	recs, _ = resumed.Next(nil)
	fmt.Printf("resumed after %d: seqs %d..%d, nothing twice\n",
		cursor, recs[0].Seq, recs[len(recs)-1].Seq)
	// Output:
	// first batch: seqs 1..3
	// resumed after 3: seqs 4..5, nothing twice
}

// History returns the recent records for in-depth analysis.
func ExampleHeartbeat_History() {
	clk := clock.NewVirtual()
	hb, _ := heartbeat.New(10, heartbeat.WithClock(clk))
	for i := 1; i <= 3; i++ {
		clk.Advance(time.Second)
		hb.BeatTag(int64(i * 100))
	}
	for _, r := range hb.History(2) {
		fmt.Printf("seq %d tag %d\n", r.Seq, r.Tag)
	}
	// Output:
	// seq 2 tag 200
	// seq 3 tag 300
}
