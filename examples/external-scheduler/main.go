// External scheduler (§5.3) across a process boundary: the application
// publishes heartbeats into a ring file; a scheduler that knows nothing
// about the application reads the file, compares the heart rate to the
// advertised target window, and adjusts the core allocation. This is
// Figure 1(b) of the paper.
//
// For a true two-process demonstration, run the application half with an
// -hbfile flag (see cmd/hbparsec) and watch it with cmd/hbmon; here both
// roles run in one process for a self-contained example, but they share
// nothing except the file.
//
//	go run ./examples/external-scheduler
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/clock"
	"repro/control"
	"repro/hbfile"
	"repro/heartbeat"
	"repro/observer"
	"repro/scheduler"
	"repro/sim"
)

func main() {
	dir, err := os.MkdirTemp("", "external-scheduler-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "app.hb")

	// ---- Application side: beats into the file, knows nothing about
	// schedulers.
	writer, err := hbfile.Create(path, 10, 4096)
	if err != nil {
		log.Fatal(err)
	}
	clk := clock.NewVirtual()
	machine := sim.NewMachine(clk, 8, 1e6)
	machine.SetCores(1)
	hb, err := heartbeat.New(10, heartbeat.WithClock(clk), heartbeat.WithSink(writer))
	if err != nil {
		log.Fatal(err)
	}
	defer hb.Close()
	if err := hb.SetTarget(8, 10); err != nil { // goal: 8-10 beats/s
		log.Fatal(err)
	}

	// ---- Scheduler side: reads ONLY the file, and incrementally — a hub
	// owns the file's stream (observer.ReaderStream), and each of its steps
	// consumes just the records the application published since the
	// previous one, through the file's cursor. The scheduler decides from
	// the hub's judgment.
	reader, err := hbfile.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer reader.Close()
	hub := observer.NewHub(0, nil, observer.WithHubClassifier(func(string) *observer.Classifier {
		return &observer.Classifier{Window: 10, Clock: clk}
	}))
	if err := hub.Add("app", observer.ReaderStream(reader, 0, 0, nil)); err != nil {
		log.Fatal(err)
	}
	defer hub.Remove("app")
	sched, err := scheduler.New(machine,
		scheduler.StepperPolicy{Stepper: &control.Stepper{TargetMin: 8, TargetMax: 10}})
	if err != nil {
		log.Fatal(err)
	}

	// The application works: heavy at first, then the load halves.
	work := func(beat int) sim.Work {
		ops := 0.5e6
		if beat > 250 {
			ops = 0.22e6
		}
		return sim.Work{Ops: ops, ParallelFrac: 0.95}
	}
	fmt.Println("beat  rate(beats/s)  cores  decision source: heartbeat file only")
	peak := 1
	for beat := 1; beat <= 500; beat++ {
		machine.Execute(work(beat))
		hb.Beat()
		if beat%10 == 0 {
			s := sched.Step(hub.Step()[0].Status)
			if s.Cores > peak {
				peak = s.Cores
			}
			if beat%50 == 0 {
				fmt.Printf("%4d  %13.2f  %5d\n", beat, s.Rate, s.Cores)
			}
		}
	}
	if err := hb.SinkErr(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nload halved at beat 250; final allocation %d cores (peak was %d)\n",
		machine.Cores(), peak)
	fmt.Println("the scheduler used the minimum cores that kept the rate in [8, 10]")
}
