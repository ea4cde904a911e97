package experiments

import (
	"fmt"

	"repro/clock"
	"repro/control"
	"repro/heartbeat"
	"repro/internal/parsec"
	"repro/internal/plot"
	"repro/observer"
	"repro/scheduler"
	"repro/sim"
)

// schedExperiment runs one §5.3 external-scheduler experiment: the
// instrumented application beats as it works, and the scheduler — observing
// only heartbeats and the advertised target window — grows and shrinks the
// core allocation.
func schedExperiment(id string, w parsec.SchedWorkload, paperNote string) Result {
	clk := clock.NewVirtual()
	m := sim.NewMachine(clk, 8, refCoreRate)
	hb, err := heartbeat.New(w.Window, heartbeat.WithClock(clk))
	if err != nil {
		panic(err)
	}
	if err := hb.SetTarget(w.TargetMin, w.TargetMax); err != nil {
		panic(err)
	}
	m.SetCores(1) // the paper's scheduler starts every application on one core
	sched, err := scheduler.New(m,
		scheduler.StepperPolicy{Stepper: &control.Stepper{TargetMin: w.TargetMin, TargetMax: w.TargetMax}})
	if err != nil {
		panic(err)
	}
	hub := observer.NewHub(0, nil, observer.WithHubClassifier(func(string) *observer.Classifier {
		return &observer.Classifier{Window: w.Window, Clock: clk}
	}))
	if err := hub.Add(w.Name, observer.HeartbeatStream(hb)); err != nil {
		panic(err)
	}
	defer hub.Remove(w.Name)

	series := &plot.Series{
		Title:  fmt.Sprintf("%s: %s under the external scheduler", id, w.Name),
		XLabel: "heartbeat",
		Cols:   []string{"rate", "cores", "target_min", "target_max"},
	}
	enteredAt := -1
	maxCores, finalCores := 1, 1
	for beat := 1; beat <= w.Beats; beat++ {
		m.Execute(w.Work(refCoreRate, beat))
		hb.Beat()
		rate, ok := hb.Rate(0)
		if !ok {
			rate = 0
		}
		series.Add(float64(beat), rate, float64(m.Cores()), w.TargetMin, w.TargetMax)
		if ok && enteredAt == -1 && rate >= w.TargetMin && rate <= w.TargetMax {
			enteredAt = beat
		}
		if beat%w.CheckEvery == 0 {
			s := sched.Step(hub.Step()[0].Status)
			if s.Cores > maxCores {
				maxCores = s.Cores
			}
			finalCores = s.Cores
		}
	}
	return Result{
		ID: id, Title: series.Title, Series: series,
		Notes: []string{
			fmt.Sprintf("target window [%g, %g] beats/s entered at heartbeat %d", w.TargetMin, w.TargetMax, enteredAt),
			fmt.Sprintf("peak cores %d, final cores %d", maxCores, finalCores),
			paperNote,
		},
	}
}

// Fig5 reproduces Figure 5: bodytrack, target 2.5-3.5 beats/s — ramp to
// seven cores, an eighth under the load bump, then reclamation down to a
// single core when the load collapses.
func Fig5(Options) Result {
	return schedExperiment("fig5", parsec.BodytrackSched(),
		"paper: 7 cores to enter window, 8th at beat ~102, reclaimed to 1 core after beat 141")
}

// Fig6 reproduces Figure 6: streamcluster held inside the narrow 0.50-0.55
// beats/s window from roughly the twenty-second heartbeat.
func Fig6(Options) Result {
	return schedExperiment("fig6", parsec.StreamclusterSched(),
		"paper: target window reached by heartbeat ~22 and held")
}

// Fig7 reproduces Figure 7: x264 held at 30-35 beats/s with a mid-size core
// allocation, absorbing two spikes where easy content drives the rate past
// 45 beats/s.
func Fig7(Options) Result {
	return schedExperiment("fig7", parsec.X264Sched(),
		"paper: window held with 4-6 cores; two transient spikes above 45 beats/s absorbed")
}
