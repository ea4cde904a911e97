package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/clock"
)

func TestFrequencyDefaultsAndClamping(t *testing.T) {
	m := NewMachine(clock.NewVirtual(), 4, 1000)
	if m.Frequency() != MaxFrequency {
		t.Fatalf("default frequency = %v", m.Frequency())
	}
	if got := m.SetFrequency(0.5); got != 0.5 {
		t.Fatalf("SetFrequency(0.5) = %v", got)
	}
	if got := m.SetFrequency(2); got != MaxFrequency {
		t.Fatalf("SetFrequency(2) = %v", got)
	}
	if got := m.SetFrequency(0); got != MinFrequency {
		t.Fatalf("SetFrequency(0) = %v", got)
	}
}

func TestFrequencyScalesDuration(t *testing.T) {
	clk := clock.NewVirtual()
	m := NewMachine(clk, 1, 1000)
	w := Work{Ops: 1000, ParallelFrac: 1}
	if d := m.Duration(w); d != time.Second {
		t.Fatalf("full-frequency duration = %v", d)
	}
	m.SetFrequency(0.5)
	if d := m.Duration(w); d != 2*time.Second {
		t.Fatalf("half-frequency duration = %v", d)
	}
}

func TestEnergyAccounting(t *testing.T) {
	clk := clock.NewVirtual()
	m := NewMachine(clk, 4, 1000)
	if m.Energy() != 0 {
		t.Fatal("fresh machine has energy")
	}
	// 4 cores, full frequency, 1 second of work: 4 × corePower(1) = 4.
	m.Execute(Work{Ops: 4000, ParallelFrac: 1})
	if e := m.Energy(); math.Abs(e-4*corePower(1)) > 1e-9 {
		t.Fatalf("energy = %v, want %v", e, 4*corePower(1))
	}
	m.ResetEnergy()
	// Half frequency: the same work takes 2s but draws corePower(0.5).
	m.SetFrequency(0.5)
	start := clk.Now()
	m.Execute(Work{Ops: 4000, ParallelFrac: 1})
	if d := clk.Now().Sub(start); d != 2*time.Second {
		t.Fatalf("elapsed = %v", d)
	}
	want := 4 * corePower(0.5) * 2
	if e := m.Energy(); math.Abs(e-want) > 1e-9 {
		t.Fatalf("energy = %v, want %v", e, want)
	}
}

func TestIdleChargesStaticPowerOnly(t *testing.T) {
	clk := clock.NewVirtual()
	start := clk.Now()
	m := NewMachine(clk, 2, 1000)
	m.Idle(3 * time.Second)
	if got := clk.Now().Sub(start); got != 3*time.Second {
		t.Fatalf("idle did not advance clock: %v", got)
	}
	want := 2 * idleCorePower * 3
	if e := m.Energy(); math.Abs(e-want) > 1e-9 {
		t.Fatalf("idle energy = %v, want %v", e, want)
	}
	m.Idle(-time.Second) // no-op
	if e := m.Energy(); math.Abs(e-want) > 1e-9 {
		t.Fatal("negative idle changed energy")
	}
}

// The core DVFS economics: completing the same work slower at lower
// frequency costs less energy than racing and idling until the same
// deadline — because P(f) is convex (cubic) while time is only 1/f.
func TestDVFSBeatsRaceToIdle(t *testing.T) {
	run := func(freq float64) float64 {
		clk := clock.NewVirtual()
		m := NewMachine(clk, 8, 1000)
		m.SetFrequency(freq)
		deadline := clk.Now().Add(10 * time.Second)
		m.Execute(Work{Ops: 8000 * 5, ParallelFrac: 1}) // half the budget at f=1
		if wait := deadline.Sub(clk.Now()); wait > 0 {
			m.Idle(wait)
		}
		if clk.Now().Before(deadline) {
			t.Fatal("deadline not reached")
		}
		return m.Energy()
	}
	race := run(1.0)
	dvfs := run(0.5)
	if dvfs >= race {
		t.Fatalf("DVFS energy %v >= race-to-idle %v", dvfs, race)
	}
}

// Property: corePower is monotone in frequency and bounded by the static
// and full-power extremes.
func TestCorePowerMonotoneProperty(t *testing.T) {
	f := func(aRaw, bRaw uint8) bool {
		a := MinFrequency + (MaxFrequency-MinFrequency)*float64(aRaw)/255
		b := MinFrequency + (MaxFrequency-MinFrequency)*float64(bRaw)/255
		pa, pb := corePower(a), corePower(b)
		if a > b && pa < pb {
			return false
		}
		return pa >= idleCorePower && pa <= corePower(MaxFrequency)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
