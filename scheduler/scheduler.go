// Package scheduler implements the paper's external observer (§5.3): a
// service that reads an application's heart rate and target window through
// the Heartbeats interface and adjusts the number of cores allocated to the
// application, using the minimum resources that keep performance inside the
// window. The scheduler never inspects the application itself — only its
// heartbeats — which is the paper's central argument: decisions are based
// directly on application-defined performance, not on proxies like priority
// or utilization.
package scheduler

import (
	"fmt"
	"math"

	"repro/control"
	"repro/observer"
)

// CoreMachine is the resource actuator: something that can grant cores to
// the observed application. sim.Machine implements it; a real deployment
// would wrap CPU-affinity syscalls.
type CoreMachine interface {
	// SetCores grants n cores, clamped to the machine's limits, and
	// returns the effective allocation.
	SetCores(n int) int
	// Cores returns the current effective allocation.
	Cores() int
	// MaxCores returns the largest grantable allocation.
	MaxCores() int
}

// Policy maps one heart-rate observation to a desired core count.
type Policy interface {
	DesiredCores(rate float64, rateOK bool, current, max int) int
}

// StepperPolicy adapts the paper's threshold stepper: one core up when the
// rate is below the window, one down when above.
type StepperPolicy struct {
	Stepper *control.Stepper
}

// DesiredCores implements Policy.
func (p StepperPolicy) DesiredCores(rate float64, rateOK bool, current, max int) int {
	switch p.Stepper.Decide(rate, rateOK) {
	case control.StepUp:
		return current + 1
	case control.StepDown:
		return current - 1
	default:
		return current
	}
}

// PIPolicy adapts a PI controller whose output is interpreted as a
// fractional core count; the extension ablated against the stepper.
type PIPolicy struct {
	PI *control.PI
	// Dt is the assumed seconds between observations (e.g. the polling
	// interval or the expected window duration).
	Dt float64
}

// DesiredCores implements Policy.
func (p PIPolicy) DesiredCores(rate float64, rateOK bool, current, max int) int {
	if !rateOK {
		return current
	}
	return int(math.Round(p.PI.Update(rate, p.Dt)))
}

// Sample records one scheduling decision, for experiment traces.
type Sample struct {
	Beat      uint64  // application beat count at decision time
	Rate      float64 // observed heart rate (beats/s)
	RateOK    bool
	Cores     int // allocation after the decision
	TargetMin float64
	TargetMax float64
}

// CoreScheduler couples an application's judged heart rate to a
// CoreMachine through a Policy. It holds no stream: an observer.Hub owns
// the application's stream and judges it, and each call to Step decides
// from one such judgment — at decision points of the caller's choosing
// (the deterministic experiment harness steps once per heartbeat window),
// or from the hub's onStatus callback for a wall-clock loop.
type CoreScheduler struct {
	machine CoreMachine
	policy  Policy
}

// New creates a scheduler actuating machine through policy. A nil machine
// or policy is an error.
func New(machine CoreMachine, policy Policy) (*CoreScheduler, error) {
	if machine == nil || policy == nil {
		return nil, fmt.Errorf("scheduler: nil machine or policy")
	}
	return &CoreScheduler{machine: machine, policy: policy}, nil
}

// Step performs one decide–actuate cycle on the application's judged
// state: the policy maps st's rate to a core count, which is granted.
func (s *CoreScheduler) Step(st observer.Status) Sample {
	cur, max := s.machine.Cores(), s.machine.MaxCores()
	desired := s.policy.DesiredCores(st.Rate, st.RateOK, cur, max)
	granted := cur
	if desired != cur {
		granted = s.machine.SetCores(desired)
	}
	return Sample{
		Beat:      st.Count,
		Rate:      st.Rate,
		RateOK:    st.RateOK,
		Cores:     granted,
		TargetMin: st.TargetMin,
		TargetMax: st.TargetMax,
	}
}
