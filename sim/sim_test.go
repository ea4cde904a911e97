package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestClockAdvances(t *testing.T) {
	c := NewClock(time.Time{})
	if !c.Now().Equal(Epoch) {
		t.Fatalf("zero start != Epoch: %v", c.Now())
	}
	start := c.Now()
	c.Advance(3 * time.Second)
	c.Advance(500 * time.Millisecond)
	if got := c.Elapsed(start); got != 3500*time.Millisecond {
		t.Fatalf("Elapsed = %v", got)
	}
}

func TestClockRejectsNegativeAdvance(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative advance did not panic")
		}
	}()
	NewClock(time.Time{}).Advance(-time.Second)
}

func TestSpeedupKnownValues(t *testing.T) {
	cases := []struct {
		cores int
		p     float64
		want  float64
	}{
		{1, 0.9, 1},
		{2, 1.0, 2},
		{8, 1.0, 8},
		{8, 0.9, 1 / (0.1 + 0.9/8)},
		{4, 0.0, 1},
		{0, 0.5, 0},
		{-3, 0.5, 0},
	}
	for _, c := range cases {
		if got := Speedup(c.cores, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Speedup(%d, %v) = %v, want %v", c.cores, c.p, got, c.want)
		}
	}
}

// Property: speedup is monotone in core count and bounded by both the core
// count and the Amdahl limit 1/(1-p).
func TestSpeedupMonotoneBoundedProperty(t *testing.T) {
	f := func(pRaw uint8, coresRaw uint8) bool {
		p := float64(pRaw) / 255
		cores := int(coresRaw)%64 + 1
		s := Speedup(cores, p)
		if s < 1-1e-12 || s > float64(cores)+1e-12 {
			return false
		}
		if cores > 1 && Speedup(cores-1, p) > s+1e-12 {
			return false
		}
		if p < 1 && s > 1/(1-p)+1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMachineExecuteAdvancesClock(t *testing.T) {
	clk := NewClock(time.Time{})
	m := NewMachine(clk, 8, 1000) // 1000 ops/s per core
	start := clk.Now()
	m.Execute(Work{Ops: 8000, ParallelFrac: 1}) // full speedup: 1s
	if got := clk.Elapsed(start); got != time.Second {
		t.Fatalf("Elapsed = %v, want 1s", got)
	}
	m.SetCores(1)
	start = clk.Now()
	m.Execute(Work{Ops: 1000, ParallelFrac: 1})
	if got := clk.Elapsed(start); got != time.Second {
		t.Fatalf("Elapsed on 1 core = %v, want 1s", got)
	}
}

func TestMachineCoreAccounting(t *testing.T) {
	m := NewMachine(NewClock(time.Time{}), 8, 1)
	if m.Cores() != 8 || m.MaxCores() != 8 || m.TotalCores() != 8 {
		t.Fatal("fresh machine core counts wrong")
	}
	if got := m.SetCores(3); got != 3 {
		t.Fatalf("SetCores(3) = %d", got)
	}
	if got := m.SetCores(0); got != 1 {
		t.Fatalf("SetCores(0) = %d, want clamp to 1", got)
	}
	if got := m.SetCores(100); got != 8 {
		t.Fatalf("SetCores(100) = %d, want clamp to 8", got)
	}
}

func TestMachineFailures(t *testing.T) {
	m := NewMachine(NewClock(time.Time{}), 8, 1)
	m.SetCores(8)
	m.FailCores(2)
	if m.MaxCores() != 6 || m.Cores() != 6 || m.FailedCores() != 2 {
		t.Fatalf("after 2 failures: max=%d cores=%d failed=%d", m.MaxCores(), m.Cores(), m.FailedCores())
	}
	m.FailCores(100)
	if m.MaxCores() != 0 || m.Cores() != 0 {
		t.Fatalf("after total failure: max=%d cores=%d", m.MaxCores(), m.Cores())
	}
	// Work on a dead machine takes effectively forever, not zero time.
	if d := m.Duration(Work{Ops: 1, ParallelFrac: 1}); d < time.Hour {
		t.Fatalf("dead machine Duration = %v", d)
	}
	m.Restore()
	if m.MaxCores() != 8 {
		t.Fatalf("Restore: max=%d", m.MaxCores())
	}
}

// Property: execution time is monotone non-increasing in granted cores.
func TestDurationMonotoneInCoresProperty(t *testing.T) {
	f := func(opsRaw uint16, pRaw uint8) bool {
		ops := float64(opsRaw) + 1
		p := float64(pRaw) / 255
		m := NewMachine(NewClock(time.Time{}), 16, 100)
		prev := time.Duration(math.MaxInt64)
		for c := 1; c <= 16; c++ {
			m.SetCores(c)
			d := m.Duration(Work{Ops: ops, ParallelFrac: p})
			if d > prev {
				return false
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroOpsWork(t *testing.T) {
	m := NewMachine(NewClock(time.Time{}), 4, 10)
	if d := m.Duration(Work{Ops: 0}); d != 0 {
		t.Fatalf("zero work Duration = %v", d)
	}
}

func TestFaultInjector(t *testing.T) {
	m := NewMachine(NewClock(time.Time{}), 8, 1)
	inj := NewFaultInjector(
		FaultEvent{AtBeat: 320, FailCores: 1}, // out of order on purpose
		FaultEvent{AtBeat: 160, FailCores: 2},
		FaultEvent{AtBeat: 480, FailCores: 1},
	)
	pending := func() int { return len(inj.events) - inj.next }
	if pending() != 3 {
		t.Fatalf("pending = %d", pending())
	}
	if n := inj.Step(100, m); n != 0 {
		t.Fatalf("Step(100) failed %d cores", n)
	}
	if n := inj.Step(160, m); n != 2 || m.MaxCores() != 6 {
		t.Fatalf("Step(160): n=%d max=%d", n, m.MaxCores())
	}
	// Jumping past several events applies all of them.
	if n := inj.Step(500, m); n != 2 || m.MaxCores() != 4 {
		t.Fatalf("Step(500): n=%d max=%d", n, m.MaxCores())
	}
	if pending() != 0 {
		t.Fatalf("pending = %d at end", pending())
	}
	// Re-stepping is a no-op.
	if n := inj.Step(1000, m); n != 0 {
		t.Fatalf("re-Step failed %d cores", n)
	}
}

// Regression: Step used to report the requested FailCores sum, not what
// Machine.FailCores actually failed — a machine with fewer healthy cores
// than the event demands over-reported the damage.
func TestFaultInjectorReportsActualFailures(t *testing.T) {
	m := NewMachine(NewClock(time.Time{}), 4, 1)
	inj := NewFaultInjector(
		FaultEvent{AtBeat: 10, FailCores: 3},
		FaultEvent{AtBeat: 20, FailCores: 3}, // only 1 healthy core left
		FaultEvent{AtBeat: 30, FailCores: 2}, // machine already dead
	)
	if n := inj.Step(10, m); n != 3 || m.MaxCores() != 1 {
		t.Fatalf("Step(10): n=%d max=%d, want 3 failed", n, m.MaxCores())
	}
	if n := inj.Step(20, m); n != 1 || m.MaxCores() != 0 {
		t.Fatalf("Step(20): n=%d max=%d, want 1 actually failed of 3 requested", n, m.MaxCores())
	}
	if n := inj.Step(30, m); n != 0 {
		t.Fatalf("Step(30) on a dead machine reported %d failures", n)
	}
	// FailCores itself reports the clamp.
	m2 := NewMachine(NewClock(time.Time{}), 2, 1)
	if n := m2.FailCores(5); n != 2 {
		t.Fatalf("FailCores(5) on 2-core machine = %d", n)
	}
	if n := m2.FailCores(1); n != 0 {
		t.Fatalf("FailCores on dead machine = %d", n)
	}
}

func TestMachineValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewMachine(nil, 8, 1) },
		func() { NewMachine(NewClock(time.Time{}), 0, 1) },
		func() { NewMachine(NewClock(time.Time{}), 8, 0) },
		func() { NewMachine(NewClock(time.Time{}), 8, -2) },
		func() { NewMachine(NewClock(time.Time{}), 8, 1).FailCores(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
