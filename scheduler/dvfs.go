package scheduler

import (
	"fmt"

	"repro/observer"
)

// FrequencyMachine is the DVFS actuator: something whose clock frequency
// can be scaled as a fraction of nominal. sim.Machine implements it.
type FrequencyMachine interface {
	// SetFrequency scales the machine, clamped to its supported range,
	// and returns the effective setting.
	SetFrequency(f float64) float64
	// Frequency returns the current setting.
	Frequency() float64
}

// DVFSGovernor holds an application inside its target heart-rate window
// using the minimum clock frequency — the paper's §2.1 vision of hardware
// "where decisions about dynamic frequency and voltage scaling are driven
// by the performance measurements and target heart rate mechanisms of the
// Heartbeats framework". Below the window it raises frequency one step;
// above it, it lowers one step, cutting dynamic power cubically. Like
// CoreScheduler it holds no stream: it decides from a hub's judgment.
type DVFSGovernor struct {
	machine FrequencyMachine
}

// governorStep is the frequency step per decision: eight P-state-like
// levels across the DVFS range.
const governorStep = 0.125

// NewDVFSGovernor creates a governor over the machine's frequency control.
func NewDVFSGovernor(machine FrequencyMachine) (*DVFSGovernor, error) {
	if machine == nil {
		return nil, fmt.Errorf("scheduler: nil machine")
	}
	return &DVFSGovernor{machine: machine}, nil
}

// GovernorSample records one governor decision.
type GovernorSample struct {
	Beat      uint64
	Rate      float64
	RateOK    bool
	Frequency float64
	TargetMin float64
	TargetMax float64
}

// Step performs one decide–actuate cycle on the application's judged
// state: raise frequency when the application misses its minimum target,
// lower it when the application exceeds its maximum (wasting energy on
// unneeded speed).
func (g *DVFSGovernor) Step(st observer.Status) GovernorSample {
	f := g.machine.Frequency()
	if st.RateOK && st.TargetSet {
		switch {
		case st.Rate < st.TargetMin:
			f = g.machine.SetFrequency(f + governorStep)
		case st.Rate > st.TargetMax:
			f = g.machine.SetFrequency(f - governorStep)
		}
	}
	return GovernorSample{
		Beat: st.Count, Rate: st.Rate, RateOK: st.RateOK, Frequency: f,
		TargetMin: st.TargetMin, TargetMax: st.TargetMax,
	}
}
