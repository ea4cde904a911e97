// Fault tolerance (§5.4): the adaptive encoder never detects which core
// died — it only notices its heart rate sagging and sheds quality until
// the rate recovers. Any event that alters performance (core death, a
// failed fan forcing a voltage drop, a noisy neighbour) is handled by the
// same loop, which is the paper's point.
//
//	go run ./examples/fault-tolerance
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
		targetRate = 30.0
		frames     = 480
		checkEvery = 20
	)
	ladder := x264.Ladder()
	startLevel := len(ladder) - 2

	clk := clock.NewVirtual()
	machine := sim.NewMachine(clk, 8, 1.31e7)

	hb, err := heartbeat.New(20, heartbeat.WithClock(clk))
	if err != nil {
		log.Fatal(err)
	}
	hb.SetTarget(targetRate, 4*targetRate)

	// Cores die at these beats; the encoder is never told.
	injector := sim.NewFaultInjector(
		sim.FaultEvent{AtBeat: 120, FailCores: 1},
		sim.FaultEvent{AtBeat: 240, FailCores: 1},
		sim.FaultEvent{AtBeat: 360, FailCores: 1},
	)

	src := video.NewSource(160, 96, 3, video.Uniform(video.Complexity{Motion: 2.5, Detail: 14, Noise: 3}))
	enc := x264.NewEncoder(ladder[startLevel])
	policy := &control.Ladder{MaxLevel: len(ladder) - 1, TargetMin: targetRate}
	policy.SetLevel(startLevel)

	fmt.Printf("goal: >= %.0f beats/s; cores will fail at beats 120, 240, 360\n\n", targetRate)
	for beat := 1; beat <= frames; beat++ {
		if injector.Step(uint64(beat), machine) > 0 {
			fmt.Printf("beat %3d: *** a core died (machine now has %d healthy cores; the encoder is not told)\n",
				beat, machine.MaxCores())
		}
		frame, _ := src.Next()
		st, err := enc.Encode(frame)
		if err != nil {
			log.Fatal(err)
		}
		machine.Execute(sim.Work{Ops: st.Ops, ParallelFrac: x264.ParallelFrac})
		hb.Beat()

		if beat%checkEvery == 0 {
			rate, ok := hb.Rate(0)
			before := policy.Level()
			after := policy.Decide(rate, ok)
			note := ""
			if after != before {
				enc.SetConfig(ladder[after])
				note = fmt.Sprintf("  -> heart rate sagged; shedding quality to level %d (%v)", after, ladder[after])
			}
			fmt.Printf("beat %3d: %5.1f beats/s%s\n", beat, rate, note)
		}
	}
	rate, _ := hb.Rate(0)
	fmt.Printf("\nfinal: %.1f beats/s on %d of 8 cores — target held through 3 core failures\n",
		rate, machine.MaxCores())
}
