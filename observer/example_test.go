package observer_test

import (
	"fmt"
	"time"

	"repro/clock"
	"repro/heartbeat"
	"repro/observer"
)

// An external observer classifies an application's health purely from its
// heartbeats: a healthy app, then the same app after it stops beating.
func ExampleClassifier_ClassifyWindow() {
	clk := clock.NewVirtual()
	hb, _ := heartbeat.New(10, heartbeat.WithClock(clk))
	hb.SetTarget(8, 12)
	for i := 0; i < 20; i++ {
		clk.Advance(100 * time.Millisecond) // 10 beats/s
		hb.Beat()
	}

	// The observer's side: a stream of the application's beats, absorbed
	// into a window, judged by a classifier.
	classifier := &observer.Classifier{Clock: clk}
	stream, window := observer.HeartbeatStream(hb), observer.NewWindow(0)

	observer.DrainInto(stream, window)
	fmt.Println("while beating:", classifier.ClassifyWindow(window).Health)

	clk.Advance(30 * time.Second) // the application hangs: nothing new to absorb
	observer.DrainInto(stream, window)
	fmt.Println("after hanging:", classifier.ClassifyWindow(window).Health)
	// Output:
	// while beating: healthy
	// after hanging: flatlined
}

// A Hub multiplexes many named applications into one control loop: each
// gets its own incremental window and classifier, and judgments fan out
// per application. Step() drives it deterministically (simulated clock);
// Run(ctx) is the wall-clock equivalent.
func ExampleHub() {
	clk := clock.NewVirtual()
	video, _ := heartbeat.New(10, heartbeat.WithClock(clk))
	indexer, _ := heartbeat.New(10, heartbeat.WithClock(clk))

	hub := observer.NewHub(time.Second, nil,
		observer.WithHubClassifier(func(string) *observer.Classifier {
			return &observer.Classifier{Clock: clk}
		}))
	hub.Add("video", observer.HeartbeatStream(video))
	hub.Add("indexer", observer.HeartbeatStream(indexer))

	for i := 0; i < 20; i++ {
		clk.Advance(100 * time.Millisecond) // both beat at 10/s
		video.Beat()
		indexer.Beat()
	}
	// The indexer hangs; video keeps beating.
	for i := 0; i < 300; i++ {
		clk.Advance(100 * time.Millisecond)
		video.Beat()
	}

	for _, ns := range hub.Step() {
		fmt.Printf("%s: %s after %d beats\n", ns.Name, ns.Status.Health, ns.Status.Count)
	}
	// Output:
	// video: healthy after 320 beats
	// indexer: flatlined after 20 beats
}
