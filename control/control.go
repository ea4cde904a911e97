// Package control provides the adaptation policies used with Application
// Heartbeats: the threshold stepper the paper's external scheduler uses
// (§5.3: add a core when the heart rate is below the target window, reclaim
// one when above), the quality ladder its adaptive H.264 encoder uses (§5.2:
// step to cheaper algorithms until the target frame rate is met), and a PI
// controller as the natural control-theoretic extension explored by the
// authors' follow-on work.
//
// Policies are pure decision logic: they consume heart-rate measurements
// and emit resource or quality adjustments; actuation (granting cores,
// reconfiguring an encoder) belongs to the caller. All policies are
// single-goroutine state machines; wrap them if shared.
package control

import "math"

// Decision is a discrete adaptation step.
type Decision int

//hbvet:api -- paper §5.2, §5.3: the three decisions of the threshold policies
const (
	// StepDown releases resources or raises quality (rate above target).
	StepDown Decision = -1
	// Hold keeps the current configuration.
	Hold Decision = 0
	// StepUp adds resources or lowers quality (rate below target).
	StepUp Decision = 1
)

// String names the decision.
func (d Decision) String() string {
	switch {
	case d > 0:
		return "step-up"
	case d < 0:
		return "step-down"
	default:
		return "hold"
	}
}

// Stepper is the paper's threshold policy: one step toward the target
// window per decision, with an optional settle period after each change so
// the plant's heart-rate window can refill with post-change beats before
// the next judgment.
type Stepper struct {
	// TargetMin and TargetMax delimit the goal window in beats/s.
	TargetMin, TargetMax float64
	// Settle is how many decisions to hold after a change (default 0).
	Settle int

	cooldown int
}

// Decide returns the step for the given measured rate. ok == false (no
// measurable rate yet) holds.
func (s *Stepper) Decide(rate float64, ok bool) Decision {
	if !ok {
		return Hold
	}
	if s.cooldown > 0 {
		s.cooldown--
		return Hold
	}
	var d Decision
	switch {
	case rate < s.TargetMin:
		d = StepUp
	case rate > s.TargetMax:
		d = StepDown
	default:
		d = Hold
	}
	if d != Hold {
		s.cooldown = s.Settle
	}
	return d
}

// Reset clears the settle cooldown.
//
//hbvet:api -- user need: re-arm a controller when the goal or the workload's phase changes
func (s *Stepper) Reset() { s.cooldown = 0 }

// PI is a proportional-integral controller mapping a heart-rate error to a
// continuous actuator value (e.g. desired core count before rounding).
// Anti-windup clamps the integral term so the output respects
// [MinOutput, MaxOutput].
//
// Non-finite measurements (NaN, ±Inf — a lossy or garbled remote signal)
// never reach the actuator: the controller holds its last good output (or
// MinOutput before any good measurement) and leaves the integral untouched.
type PI struct {
	// Kp and Ki are the proportional and integral gains.
	Kp, Ki float64
	// Setpoint is the desired heart rate in beats/s.
	Setpoint float64
	// MinOutput and MaxOutput clamp the actuator value.
	MinOutput, MaxOutput float64

	integral float64
	lastOut  float64
	haveOut  bool
}

// Update folds one measurement taken dt seconds after the previous one and
// returns the clamped actuator value.
func (c *PI) Update(measured, dt float64) float64 {
	if math.IsNaN(measured) || math.IsInf(measured, 0) {
		return c.hold()
	}
	if dt <= 0 || math.IsNaN(dt) || math.IsInf(dt, 0) {
		// No usable time step (an infinite one would poison the integral
		// with 0·Inf = NaN): respond proportionally but do not integrate
		// (the stale integral still contributes its term).
		return c.output(c.Kp * (c.Setpoint - measured))
	}
	err := c.Setpoint - measured
	c.integral += err * dt
	c.clampIntegral()
	return c.output(c.Kp * err)
}

// hold returns the last actuator value without folding anything in — the
// safe response to a measurement that cannot be trusted.
func (c *PI) hold() float64 {
	if c.haveOut {
		return c.lastOut
	}
	return c.MinOutput
}

func (c *PI) output(p float64) float64 {
	out := p + c.Ki*c.integral
	// NaN compares false against both clamp bounds, so an unsanitized NaN
	// would fall straight through to the actuator.
	if math.IsNaN(out) {
		return c.hold()
	}
	if out < c.MinOutput {
		out = c.MinOutput
	} else if c.MaxOutput > c.MinOutput && out > c.MaxOutput {
		out = c.MaxOutput
	}
	c.lastOut, c.haveOut = out, true
	return out
}

// clampIntegral implements anti-windup: the integral contribution alone is
// kept within the output range.
func (c *PI) clampIntegral() {
	if c.Ki == 0 {
		return
	}
	lo, hi := c.MinOutput/c.Ki, c.MaxOutput/c.Ki
	if lo > hi {
		lo, hi = hi, lo
	}
	if c.integral < lo {
		c.integral = lo
	}
	if c.integral > hi {
		c.integral = hi
	}
}

// Reset clears the accumulated integral and the held last output.
//
//hbvet:api -- user need: re-arm a controller when the goal or the workload's phase changes
func (c *PI) Reset() {
	c.integral = 0
	c.lastOut, c.haveOut = 0, false
}

// Ladder walks an ordered list of configurations from slowest/highest
// quality (level 0) to fastest/lowest quality (MaxLevel) — the paper's
// adaptive encoder behaviour: while the heart rate is below the minimum
// target, step to the next cheaper configuration; optionally step back
// toward quality when the rate comfortably exceeds the maximum target.
type Ladder struct {
	// MaxLevel is the cheapest configuration index (levels are
	// 0..MaxLevel).
	MaxLevel int
	// TargetMin is the rate below which the ladder steps toward speed.
	TargetMin float64
	// TargetMax, when > 0 with Recover set, is the rate above which the
	// ladder steps back toward quality.
	TargetMax float64
	// Recover enables stepping back toward quality. The paper's encoder
	// never steps back (it only speeds up); recovery is the natural
	// extension and is exercised in the fault-tolerance experiment when
	// failed resources return.
	Recover bool
	// Settle is how many decisions to hold after a change.
	Settle int

	level    int
	cooldown int
}

// Level returns the current configuration index.
func (l *Ladder) Level() int { return l.level }

// SetLevel forces the configuration index, clamped to [0, MaxLevel].
func (l *Ladder) SetLevel(level int) {
	if level < 0 {
		level = 0
	}
	if level > l.MaxLevel {
		level = l.MaxLevel
	}
	l.level = level
}

// Decide consumes one rate measurement and returns the (possibly changed)
// level. ok == false holds.
func (l *Ladder) Decide(rate float64, ok bool) int {
	if !ok {
		return l.level
	}
	if l.cooldown > 0 {
		l.cooldown--
		return l.level
	}
	switch {
	case rate < l.TargetMin && l.level < l.MaxLevel:
		l.level++
		l.cooldown = l.Settle
	case l.Recover && l.TargetMax > 0 && rate > l.TargetMax && l.level > 0:
		l.level--
		l.cooldown = l.Settle
	}
	return l.level
}
