package sim

import (
	"sync"
	"time"
)

// Dynamic frequency/voltage scaling support — the §2.1 vision: "a
// multicore microarchitecture where decisions about dynamic frequency and
// voltage scaling are driven by the performance measurements and target
// heart rate mechanisms of the Heartbeats framework" (the paper cites
// Govil'95 and Pering'98 as the energy motivation).
//
// The machine executes at coreRate × frequency; per-core power follows the
// classic cubic model P = Pstatic + Pdyn·f³ (voltage tracks frequency, and
// dynamic power ∝ V²f). Executing work integrates energy over the active
// cores, so a governor that holds an application just above its target
// rate at reduced frequency measurably saves energy versus racing at full
// speed.

// Frequency bounds of the simulated DVFS range, as a fraction of nominal.
//
//hbvet:api -- paper §2.1: the DVFS range a frequency governor steers within
const (
	MinFrequency = 0.25
	MaxFrequency = 1.0
)

// Power-model coefficients, normalized so one core at full frequency
// draws 1.0 power unit.
const (
	staticPower  = 0.3
	dynamicPower = 0.7
)

// corePower returns the power draw of one core at frequency f (clamped to
// the DVFS range), in normalized units.
func corePower(f float64) float64 {
	f = clampFreq(f)
	return staticPower + dynamicPower*f*f*f
}

func clampFreq(f float64) float64 {
	if f < MinFrequency {
		return MinFrequency
	}
	if f > MaxFrequency {
		return MaxFrequency
	}
	return f
}

// dvfsState holds the mutable frequency/energy state of a Machine.
type dvfsState struct {
	mu     sync.Mutex
	freq   float64
	energy float64 // accumulated, in power-units × seconds
}

func (d *dvfsState) frequency() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.freq == 0 {
		return MaxFrequency
	}
	return d.freq
}

func (d *dvfsState) setFrequency(f float64) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.freq = clampFreq(f)
	return d.freq
}

func (d *dvfsState) addEnergy(e float64) {
	d.mu.Lock()
	d.energy += e
	d.mu.Unlock()
}

func (d *dvfsState) energyTotal() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.energy
}

func (d *dvfsState) resetEnergy() {
	d.mu.Lock()
	d.energy = 0
	d.mu.Unlock()
}

// Frequency returns the machine's current frequency as a fraction of
// nominal (1.0 unless SetFrequency lowered it).
func (m *Machine) Frequency() float64 { return m.dvfs.frequency() }

// SetFrequency scales the machine, clamped to [MinFrequency,
// MaxFrequency], and returns the effective setting. Lower frequencies
// execute work proportionally slower and draw cubically less dynamic
// power.
func (m *Machine) SetFrequency(f float64) float64 { return m.dvfs.setFrequency(f) }

// Energy returns the energy consumed by all Execute calls so far, in
// normalized power-units × seconds.
func (m *Machine) Energy() float64 { return m.dvfs.energyTotal() }

// ResetEnergy zeroes the energy accumulator.
func (m *Machine) ResetEnergy() { m.dvfs.resetEnergy() }

// idleCorePower is the per-core power draw while idle (clock-gated
// between paced work items): static leakage only.
const idleCorePower = staticPower

// Idle advances the clock by d while the allocated cores draw only static
// power — the state a paced application sits in between work-item
// arrivals. Racing at full frequency and idling afterwards therefore
// still pays leakage, which is exactly the trade DVFS exploits.
func (m *Machine) Idle(d time.Duration) {
	if d <= 0 {
		return
	}
	m.mu.Lock()
	cores := m.effectiveLocked()
	m.mu.Unlock()
	m.dvfs.addEnergy(float64(cores) * idleCorePower * d.Seconds())
	m.clock.Advance(d)
}

// executeDVFS computes the duration of w at the current frequency and
// integrates the energy drawn by the allocated cores over it.
func (m *Machine) executeDVFS(w Work) time.Duration {
	m.mu.Lock()
	cores := m.effectiveLocked()
	rate := m.coreRate
	m.mu.Unlock()
	f := m.dvfs.frequency()
	d := workDuration(w, cores, rate*f)
	if d > 0 && d < time.Hour*24*365 {
		m.dvfs.addEnergy(float64(cores) * corePower(f) * d.Seconds())
	}
	return d
}
