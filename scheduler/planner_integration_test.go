package scheduler_test

import (
	"testing"

	"repro/control"
	"repro/observer"
	"repro/scheduler"
	"repro/sim"
)

// The model-based planner satisfies the scheduler Policy interface
// structurally and converges in far fewer decisions than the paper's
// one-core-at-a-time stepper — the design-choice ablation DESIGN.md calls
// out (threshold vs model-based control).
func TestPlannerPolicyConvergesFasterThanStepper(t *testing.T) {
	run := func(pol scheduler.Policy) (decisionsToWindow int) {
		const window = 10
		hb, m := newSim(t, window)
		hb.SetTarget(8, 10)
		m.SetCores(1)
		sched, err := scheduler.New(m, pol)
		if err != nil {
			t.Fatal(err)
		}
		hub := watch(t, 0, map[string]observer.Stream{"app": observer.HeartbeatStream(hb)})
		work := func(int) sim.Work { return sim.Work{Ops: 0.5e6, ParallelFrac: 0.95} }
		decisions := 0
		for b := 1; b <= 600; b++ {
			m.Execute(work(b))
			hb.Beat()
			if b%window == 0 {
				s := sched.Step(hub.Step()[0].Status)
				decisions++
				if s.RateOK && s.Rate >= 8 && s.Rate <= 10 {
					return decisions
				}
			}
		}
		t.Fatal("never reached window")
		return 0
	}

	stepperDecisions := run(scheduler.StepperPolicy{Stepper: &control.Stepper{TargetMin: 8, TargetMax: 10}})
	plannerDecisions := run(&control.AmdahlPlanner{ParallelFrac: 0.95, TargetMin: 8, TargetMax: 10})

	if plannerDecisions >= stepperDecisions {
		t.Fatalf("planner took %d decisions, stepper %d; planner should jump directly",
			plannerDecisions, stepperDecisions)
	}
	if plannerDecisions > 2 {
		t.Fatalf("planner took %d decisions, want <= 2 on an Amdahl plant", plannerDecisions)
	}
}
