// Command hbsched runs the external-scheduler experiments of §5.3: an
// instrumented application advertises a target heart-rate window, and a
// scheduler that sees only heartbeats grows and shrinks its core
// allocation (Figures 5, 6 and 7).
//
// Usage:
//
//	hbsched [-workload bodytrack|streamcluster|x264|all]
//	        [-policy stepper|pi] [-chart-width W] [-chart-height H]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/clock"
	"repro/control"
	"repro/heartbeat"
	"repro/internal/parsec"
	"repro/internal/plot"
	"repro/observer"
	"repro/scheduler"
	"repro/sim"
)

func main() {
	workload := flag.String("workload", "all", "bodytrack, streamcluster, x264, or all")
	policy := flag.String("policy", "stepper", "'stepper' (the paper's) or 'pi' (extension)")
	cw := flag.Int("chart-width", 72, "ASCII chart width")
	ch := flag.Int("chart-height", 16, "ASCII chart height")
	flag.Parse()

	for _, w := range parsec.SchedWorkloads() {
		if *workload != "all" && w.Name != *workload {
			continue
		}
		if err := runWorkload(w, *policy, *cw, *ch); err != nil {
			fmt.Fprintln(os.Stderr, "hbsched:", err)
			os.Exit(1)
		}
	}
}

func runWorkload(w parsec.SchedWorkload, policyName string, cw, ch int) error {
	const coreRate = 1e9
	clk := clock.NewVirtual()
	m := sim.NewMachine(clk, 8, coreRate)
	hb, err := heartbeat.New(w.Window, heartbeat.WithClock(clk))
	if err != nil {
		return err
	}
	if err := hb.SetTarget(w.TargetMin, w.TargetMax); err != nil {
		return err
	}
	m.SetCores(1)

	var pol scheduler.Policy
	switch policyName {
	case "stepper":
		pol = scheduler.StepperPolicy{Stepper: &control.Stepper{TargetMin: w.TargetMin, TargetMax: w.TargetMax}}
	case "pi":
		setpoint := (w.TargetMin + w.TargetMax) / 2
		pol = scheduler.PIPolicy{
			PI: &control.PI{Kp: 0.5 / setpoint, Ki: 1.5 / setpoint, Setpoint: setpoint, MinOutput: 1, MaxOutput: 8},
			Dt: float64(w.CheckEvery) / setpoint,
		}
	default:
		return fmt.Errorf("unknown policy %q", policyName)
	}
	sched, err := scheduler.New(m, pol)
	if err != nil {
		return err
	}
	hub := observer.NewHub(0, nil, observer.WithHubClassifier(func(string) *observer.Classifier {
		return &observer.Classifier{Window: w.Window, Clock: clk}
	}))
	if err := hub.Add(w.Name, observer.HeartbeatStream(hb)); err != nil {
		return err
	}
	defer hub.Remove(w.Name)

	series := &plot.Series{
		Title:  fmt.Sprintf("%s under the external %s scheduler (target %g-%g beats/s)", w.Name, policyName, w.TargetMin, w.TargetMax),
		XLabel: "heartbeat",
		Cols:   []string{"rate", "cores"},
	}
	for beat := 1; beat <= w.Beats; beat++ {
		m.Execute(w.Work(coreRate, beat))
		hb.Beat()
		rate, ok := hb.Rate(0)
		if !ok {
			rate = 0
		}
		series.Add(float64(beat), rate, float64(m.Cores()))
		if beat%w.CheckEvery == 0 {
			sched.Step(hub.Step()[0].Status)
		}
	}
	series.Chart(os.Stdout, cw, ch)
	fmt.Println()
	return nil
}
