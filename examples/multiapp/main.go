// Multi-application scheduling (§1, §2.4): two heartbeat-enabled
// applications with different goals share one eight-core machine. The
// partitioner sees nothing but heartbeats and advertised target windows,
// yet keeps both applications on goal while one's load shifts — the
// "best global outcome" the paper argues registered goals enable, and the
// scheduling behaviour an "organic OS" would build in.
//
// An observer.Hub consumes the applications as incremental streams: each
// of its steps reads only the beats registered since the last one, and
// multiplexes every application's stream into one loop with
// per-application status fan-out. The partitioner holds no stream; it
// decides from the hub's judgments.
//
//	go run ./examples/multiapp
package main

import (
	"fmt"
	"log"
	"time"

	"repro/clock"
	"repro/heartbeat"
	"repro/observer"
	"repro/scheduler"
	"repro/sim"
)

func main() {
	clk := clock.NewVirtual()
	cluster := sim.NewCluster(clk, 8, 1e6)

	mkApp := func(name string, min, max float64, opsFn func(beat uint64) float64, pf float64) (*heartbeat.Heartbeat, *sim.Proc) {
		hb, err := heartbeat.New(10, heartbeat.WithClock(clk))
		if err != nil {
			log.Fatal(err)
		}
		if err := hb.SetTarget(min, max); err != nil {
			log.Fatal(err)
		}
		beat := uint64(0)
		proc := cluster.AddProc(name, 1, func() (sim.Work, bool) {
			if beat > 0 {
				hb.Beat()
			}
			beat++
			return sim.Work{Ops: opsFn(beat), ParallelFrac: pf}, true
		})
		return hb, proc
	}

	// "video": an interactive app that wants 8-10 beats/s; its content
	// gets harder halfway through. "indexer": a background job content
	// with 2-3 beats/s.
	harder := uint64(0)
	videoHB, videoProc := mkApp("video", 8, 10, func(beat uint64) float64 {
		if harder > 0 && beat > harder {
			return 0.58e6
		}
		return 0.42e6
	}, 0.95)
	indexHB, indexProc := mkApp("indexer", 2, 3, func(uint64) float64 { return 0.8e6 }, 0.90)

	part, err := scheduler.NewPartitioner(8)
	if err != nil {
		log.Fatal(err)
	}
	if err := part.Add("video", videoProc.SetCores, 1); err != nil {
		log.Fatal(err)
	}
	if err := part.Add("indexer", indexProc.SetCores, 1); err != nil {
		log.Fatal(err)
	}

	// The hub multiplexes every application's health into one place; here
	// it reports health transitions as they happen, and hands its
	// judgments to the partitioner.
	health := map[string]observer.Health{}
	hub := observer.NewHub(0, func(name string, st observer.Status) {
		if st.Health != health[name] {
			fmt.Printf("          hub: %s -> %s (%.2f beats/s)\n", name, st.Health, st.Rate)
			health[name] = st.Health
		}
	}, observer.WithHubClassifier(func(string) *observer.Classifier {
		return &observer.Classifier{Window: 10, Clock: clk}
	}))
	if err := hub.Add("video", observer.HeartbeatStream(videoHB)); err != nil {
		log.Fatal(err)
	}
	defer hub.Remove("video")
	if err := hub.Add("indexer", observer.HeartbeatStream(indexHB)); err != nil {
		log.Fatal(err)
	}
	defer hub.Remove("indexer")

	fmt.Println("decision  video: rate cores [goal 8-10]   indexer: rate cores [goal 2-3]   free")
	for step := 1; step <= 200; step++ {
		if step == 80 {
			harder = videoHB.Count()
			fmt.Println("-- video content becomes ~1.4x harder --")
		}
		cluster.RunUntil(clk.Now().Add(2 * time.Second))
		sts := part.Step(hub.Step())
		if step%20 == 0 || step == 81 || step == 82 {
			fmt.Printf("%8d  %12.2f %5d   %18.2f %5d   %4d\n",
				step, sts[0].Rate, sts[0].Cores, sts[1].Rate, sts[1].Cores, part.Free())
		}
	}
	fmt.Println("\nboth goals held through the load shift; unused cores stay free for other work")
}
