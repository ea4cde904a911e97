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

// SchedBeat is one heartbeat of a scheduling run: the windowed heart rate
// after it (0 until the window has a rate) and the cores its work ran on.
type SchedBeat struct {
	Rate  float64
	OK    bool
	Cores int
}

// SchedRun is the trace of one §5.3 scheduling run: every heartbeat, and
// every scheduler decision (one per CheckEvery beats).
type SchedRun struct {
	Beats     []SchedBeat
	Decisions []scheduler.Sample
}

// RunSched runs one §5.3 external-scheduler loop, the one every scheduling
// experiment, command and benchmark shares: w's application beats as it
// works on the simulated eight-core reference machine, starting on one
// core as the paper's scheduler starts every application, and every
// CheckEvery beats the named policy — "stepper" (the paper's), "pi" or
// "planner" (extensions) — decides from the observer hub's judgment of
// its heartbeats and advertised target window alone.
func RunSched(w parsec.SchedWorkload, policy string) (SchedRun, error) {
	pol, err := schedPolicy(w, policy)
	if err != nil {
		return SchedRun{}, err
	}
	clk := clock.NewVirtual()
	m := sim.NewMachine(clk, 8, refCoreRate)
	hb, err := heartbeat.New(w.Window, heartbeat.WithClock(clk))
	if err != nil {
		return SchedRun{}, err
	}
	if err := hb.SetTarget(w.TargetMin, w.TargetMax); err != nil {
		return SchedRun{}, err
	}
	m.SetCores(1)
	sched, err := scheduler.New(m, pol)
	if err != nil {
		return SchedRun{}, err
	}
	hub := observer.NewHub(0, nil, observer.WithHubClassifier(func(string) *observer.Classifier {
		return &observer.Classifier{Window: w.Window, Clock: clk}
	}))
	if err := hub.Add(w.Name, observer.HeartbeatStream(hb)); err != nil {
		return SchedRun{}, err
	}
	defer hub.Remove(w.Name)

	run := SchedRun{Beats: make([]SchedBeat, 0, w.Beats)}
	for beat := 1; beat <= w.Beats; beat++ {
		m.Execute(w.Work(refCoreRate, beat))
		hb.Beat()
		rate, ok := hb.Rate(0)
		if !ok {
			rate = 0
		}
		run.Beats = append(run.Beats, SchedBeat{Rate: rate, OK: ok, Cores: m.Cores()})
		if beat%w.CheckEvery == 0 {
			run.Decisions = append(run.Decisions, sched.Step(hub.Step()[0].Status))
		}
	}
	return run, nil
}

// schedPolicy builds the named policy for w. The PI controller aims at
// the window's middle, with gains scaled to it and one step per
// CheckEvery beats at that rate.
func schedPolicy(w parsec.SchedWorkload, name string) (scheduler.Policy, error) {
	switch name {
	case "stepper":
		return scheduler.StepperPolicy{Stepper: &control.Stepper{TargetMin: w.TargetMin, TargetMax: w.TargetMax}}, nil
	case "pi":
		set := (w.TargetMin + w.TargetMax) / 2
		return scheduler.PIPolicy{
			PI: &control.PI{Kp: 0.5 / set, Ki: 1.5 / set, Setpoint: set, MinOutput: 1, MaxOutput: 8},
			Dt: float64(w.CheckEvery) / set,
		}, nil
	case "planner":
		return &control.AmdahlPlanner{ParallelFrac: w.ParallelFrac, TargetMin: w.TargetMin, TargetMax: w.TargetMax}, nil
	}
	return nil, fmt.Errorf("unknown policy %q (have stepper, pi, planner)", name)
}

// schedExperiment runs one §5.3 experiment under the paper's stepper: the
// scheduler, observing only heartbeats and the advertised target window,
// grows and shrinks the core allocation.
func schedExperiment(id string, w parsec.SchedWorkload, paperNote string) Result {
	run, err := RunSched(w, "stepper")
	if err != nil {
		panic(err)
	}
	series := &plot.Series{
		Title:  fmt.Sprintf("%s: %s under the external scheduler", id, w.Name),
		XLabel: "heartbeat",
		Cols:   []string{"rate", "cores", "target_min", "target_max"},
	}
	enteredAt := -1
	for i, b := range run.Beats {
		series.Add(float64(i+1), b.Rate, float64(b.Cores), w.TargetMin, w.TargetMax)
		if b.OK && enteredAt == -1 && b.Rate >= w.TargetMin && b.Rate <= w.TargetMax {
			enteredAt = i + 1
		}
	}
	maxCores, finalCores := 1, 1
	for _, s := range run.Decisions {
		maxCores, finalCores = max(maxCores, s.Cores), s.Cores
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
