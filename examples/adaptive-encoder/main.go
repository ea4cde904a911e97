// Adaptive encoder (§5.2): a video encoder observes its own heartbeats and
// sheds quality — weaker motion search, fewer reference frames — until it
// sustains its real-time frame-rate goal. This is Figure 1(a) of the
// paper: self-optimization through the Heartbeats API, no external help.
//
//	go run ./examples/adaptive-encoder
package main

import (
	"fmt"
	"log"

	"repro/clock"
	"repro/control"
	"repro/heartbeat"
	"repro/internal/video"
	"repro/internal/x264"
	"repro/sim"
)

func main() {
	const (
		targetRate = 30.0 // frames per second
		checkEvery = 40   // paper: "checks its heart rate every 40 frames"
		frames     = 400
	)
	ladder := x264.Ladder()

	// Simulated eight-core machine; the per-core rate is chosen so the
	// launch configuration manages only ~9 frames/s, like the paper's
	// demanding Main-profile parameters.
	clk := clock.NewVirtual()
	machine := sim.NewMachine(clk, 8, 1.14e7)

	hb, err := heartbeat.New(checkEvery, heartbeat.WithClock(clk))
	if err != nil {
		log.Fatal(err)
	}
	if err := hb.SetTarget(targetRate, 4*targetRate); err != nil {
		log.Fatal(err)
	}

	src := video.NewSource(160, 96, 7, video.Uniform(video.Complexity{Motion: 2.5, Detail: 14, Noise: 3}))
	enc := x264.NewEncoder(ladder[0])
	policy := &control.Ladder{MaxLevel: len(ladder) - 1, TargetMin: targetRate}

	fmt.Printf("goal: >= %.0f frames/s | launch config: %v\n\n", targetRate, ladder[0])
	for i := 1; i <= frames; i++ {
		frame, _ := src.Next()
		st, err := enc.Encode(frame)
		if err != nil {
			log.Fatal(err)
		}
		machine.Execute(sim.Work{Ops: st.Ops, ParallelFrac: x264.ParallelFrac})
		hb.Beat()

		if i%checkEvery == 0 {
			rate, ok := hb.Rate(0)
			before := policy.Level()
			after := policy.Decide(rate, ok)
			if after != before {
				enc.SetConfig(ladder[after])
			}
			marker := ""
			if after != before {
				marker = fmt.Sprintf("  -> stepping to level %d: %v", after, ladder[after])
			}
			fmt.Printf("frame %3d: %5.1f beats/s, PSNR %5.2f dB%s\n", i, rate, st.PSNR, marker)
		}
	}
	rate, _ := hb.Rate(0)
	fmt.Printf("\nfinal: %.1f beats/s at %v\n", rate, enc.Config())
	if rate >= targetRate {
		fmt.Println("goal met: quality was traded for throughput, frames were not dropped")
	}
}
