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
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"repro/control"
	"repro/heartbeat"
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

// observed is the consumer half every controller in this package shares:
// one application's stream, drained without blocking into a private window
// at each decision point, so a decision reads only the records published
// since the previous one and a decision point at which the application made
// no progress costs no per-record work.
//
// It carries the package's one ownership rule: a controller owns the stream
// it was handed and releases it in Close.
type observed struct {
	stream observer.Stream // nil once closed
	win    *observer.Window
	eof    bool
}

func observe(stream observer.Stream, window int) observed {
	return observed{stream: stream, win: observer.NewWindow(window)}
}

// drain absorbs the records published since the last drain. Once the
// stream ends (the observed Heartbeat was closed) the window keeps its
// final state.
func (o *observed) drain() error {
	if o.eof {
		return nil
	}
	eof, err := observer.DrainInto(o.stream, o.win)
	o.eof = eof
	return err
}

// Close releases the observed stream: it is closed, once, if it is an
// io.Closer (in-process streams hold a subscription on the observed
// Heartbeat, remote ones a connection, for as long as they live). Call it
// once no Step or Run is active; a later Step decides from the final
// window.
func (o *observed) Close() error {
	c, ok := o.stream.(io.Closer)
	o.stream, o.eof = nil, true
	if !ok {
		return nil
	}
	return c.Close()
}

// CoreScheduler couples an application's heartbeat stream to a CoreMachine
// through a Policy. Drive it either by calling Step at decision points
// (the deterministic experiment harness does this once per heartbeat
// window) or with Run for a wall-clock loop; Close releases the stream.
type CoreScheduler struct {
	observed
	machine CoreMachine
	policy  Policy
	window  int             // observation window in beats (0: the application's default)
	clk     heartbeat.Clock // nil = wall clock; paces Run's decision cadence
}

// Option configures New.
type Option func(*CoreScheduler)

// WithWindow sets the observation window in beats used for rate
// measurements (default: the application's default window).
func WithWindow(n int) Option { return func(s *CoreScheduler) { s.window = n } }

// WithClock runs the decision loop on an explicit clock: Run's intervals
// follow clk (virtual for a sim.Clock), so a simulated scheduler decides
// on the simulation's schedule instead of the host's. A nil clk is the
// wall clock. Step is unaffected — it is already clock-free.
//
//hbvet:api -- user need: run the decision loop on a virtual clock, in tests and simulations
func WithClock(clk heartbeat.Clock) Option { return func(s *CoreScheduler) { s.clk = clk } }

// New creates a scheduler observing stream, which it owns from here on
// (see Close). A nil stream, machine or policy is an error.
func New(stream observer.Stream, machine CoreMachine, policy Policy, opts ...Option) (*CoreScheduler, error) {
	if stream == nil || machine == nil || policy == nil {
		return nil, fmt.Errorf("scheduler: nil stream, machine, or policy")
	}
	s := &CoreScheduler{machine: machine, policy: policy}
	for _, o := range opts {
		o(s)
	}
	s.observed = observe(stream, s.window)
	return s, nil
}

// Step performs one observe–decide–actuate cycle: absorb the records
// published since the last cycle, then decide from the accumulated window.
// Once the stream ends (the observed Heartbeat was closed) the scheduler
// keeps deciding from the final window.
func (s *CoreScheduler) Step() (Sample, error) {
	if err := s.drain(); err != nil {
		return Sample{}, fmt.Errorf("scheduler: %w", err)
	}
	return s.decide(), nil
}

// decide runs the policy against the current window state.
func (s *CoreScheduler) decide() Sample {
	r, ok := s.win.RateOver(s.window)
	cur, max := s.machine.Cores(), s.machine.MaxCores()
	desired := s.policy.DesiredCores(r.PerSec, ok, cur, max)
	granted := cur
	if desired != cur {
		granted = s.machine.SetCores(desired)
	}
	tmin, tmax, _ := s.win.Target()
	return Sample{
		Beat:      s.win.Count(),
		Rate:      r.PerSec,
		RateOK:    ok,
		Cores:     granted,
		TargetMin: tmin,
		TargetMax: tmax,
	}
}

// Run calls Step every interval on the scheduler's clock until ctx is
// cancelled, invoking onSample (if non-nil) after each cycle and onError
// (if non-nil) on failures. The first decision is immediate. Step drains
// everything published before each decision, so the stream is read only
// at decision points and an idle application costs one cursor read per
// tick. A non-positive interval is clamped to a 100ms decision cadence
// (the loop would busy-spin on one).
//
//hbvet:api -- paper §5.3: the external scheduler's wall-clock loop around Step
func (s *CoreScheduler) Run(ctx context.Context, interval time.Duration, onSample func(Sample), onError func(error)) {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	tick := heartbeat.NewTicker(s.clk, interval)
	defer tick.Stop()
	for {
		if sample, err := s.Step(); err != nil {
			if onError != nil {
				onError(err)
			}
		} else if onSample != nil {
			onSample(sample)
		}
		select {
		case <-ctx.Done():
			return
		case <-tick.C():
			tick.Next()
		}
	}
}
