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
// CoreScheduler it observes incrementally and owns its stream; Close
// releases it.
type DVFSGovernor struct {
	observed
	machine FrequencyMachine
	window  int
	step    float64
}

// GovernorOption configures NewDVFSGovernor.
type GovernorOption func(*DVFSGovernor)

// WithGovernorWindow sets the observation window in beats.
func WithGovernorWindow(n int) GovernorOption {
	return func(g *DVFSGovernor) { g.window = n }
}

// WithGovernorStep sets the frequency step per decision (default 0.125 —
// eight P-state-like levels across the range).
func WithGovernorStep(s float64) GovernorOption {
	return func(g *DVFSGovernor) { g.step = s }
}

// NewDVFSGovernor creates a governor over the application's heartbeat
// stream and the machine's frequency control.
func NewDVFSGovernor(stream observer.Stream, machine FrequencyMachine, opts ...GovernorOption) (*DVFSGovernor, error) {
	if stream == nil || machine == nil {
		return nil, fmt.Errorf("scheduler: nil stream or machine")
	}
	g := &DVFSGovernor{machine: machine, step: 0.125}
	for _, o := range opts {
		o(g)
	}
	g.observed = observe(stream, g.window)
	return g, nil
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

// Step performs one observe–decide–actuate cycle: raise frequency when the
// application misses its minimum target, lower it when the application
// exceeds its maximum (wasting energy on unneeded speed).
func (g *DVFSGovernor) Step() (GovernorSample, error) {
	if err := g.drain(); err != nil {
		return GovernorSample{}, fmt.Errorf("scheduler: %w", err)
	}
	r, ok := g.win.RateOver(g.window)
	tmin, tmax, tset := g.win.Target()
	f := g.machine.Frequency()
	if ok && tset {
		switch {
		case r.PerSec < tmin:
			f = g.machine.SetFrequency(f + g.step)
		case r.PerSec > tmax:
			f = g.machine.SetFrequency(f - g.step)
		}
	}
	return GovernorSample{
		Beat: g.win.Count(), Rate: r.PerSec, RateOK: ok, Frequency: f,
		TargetMin: tmin, TargetMax: tmax,
	}, nil
}
