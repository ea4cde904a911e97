package sim

import (
	"fmt"
	"sync"
	"time"
)

// Work is one unit of application work to execute on a Machine.
type Work struct {
	// Ops is the abstract operation count of the unit. For the real
	// computational kernels in this repository, Ops is derived from the
	// kernel's actual inner-loop counts (e.g. SAD evaluations for the
	// video encoder), so heavier configurations really cost more.
	Ops float64
	// ParallelFrac is the Amdahl-law parallel fraction of the unit in
	// [0, 1]: the share of its operations that scales with core count.
	ParallelFrac float64
}

// Speedup returns the Amdahl-law speedup of a workload with the given
// parallel fraction on the given number of cores: 1/((1-p) + p/c).
// Non-positive core counts yield 0.
func Speedup(cores int, parallelFrac float64) float64 {
	if cores <= 0 {
		return 0
	}
	p := parallelFrac
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return 1 / ((1 - p) + p/float64(cores))
}

// Machine is a simulated multicore processor. An external scheduler grants
// it between 1 and MaxCores cores via SetCores; fault injection removes
// cores from the pool entirely via FailCores (the paper's "core death").
// Executing work advances the machine's clock by the modeled duration.
// All methods are safe for concurrent use.
//
//hbvet:api -- paper §5.3, §5.4: the machine the scheduler and fault experiments drive; its accessors are the model's state
type Machine struct {
	clock *Clock

	mu         sync.Mutex
	totalCores int
	failed     int
	granted    int     // cores granted by the scheduler (before failures)
	coreRate   float64 // ops per second per core at nominal frequency

	dvfs dvfsState
}

// NewMachine returns a Machine with the given physical core count and
// per-core execution rate in ops/second. All cores start granted and
// healthy. It panics on non-positive arguments.
func NewMachine(clock *Clock, cores int, coreRate float64) *Machine {
	if clock == nil {
		panic("sim: nil clock")
	}
	if cores <= 0 || coreRate <= 0 {
		panic(fmt.Sprintf("sim: invalid machine (cores=%d, coreRate=%g)", cores, coreRate))
	}
	return &Machine{clock: clock, totalCores: cores, granted: cores, coreRate: coreRate}
}

// Clock returns the machine's clock.
func (m *Machine) Clock() *Clock { return m.clock }

// TotalCores returns the physical core count, including failed cores.
func (m *Machine) TotalCores() int { return m.totalCores }

// MaxCores returns the number of currently healthy cores — the most a
// scheduler can usefully grant.
func (m *Machine) MaxCores() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.totalCores - m.failed
}

// Cores returns the effective core count: the granted cores that are still
// healthy, at least 1 while any core is healthy.
func (m *Machine) Cores() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.effectiveLocked()
}

func (m *Machine) effectiveLocked() int {
	avail := m.totalCores - m.failed
	if avail <= 0 {
		return 0
	}
	eff := m.granted
	if eff > avail {
		eff = avail
	}
	if eff < 1 {
		eff = 1
	}
	return eff
}

// SetCores grants n cores to the application, clamped to [1, MaxCores].
// It returns the effective allocation.
func (m *Machine) SetCores(n int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	avail := m.totalCores - m.failed
	if n < 1 {
		n = 1
	}
	if n > avail && avail > 0 {
		n = avail
	}
	m.granted = n
	return m.effectiveLocked()
}

// FailCores removes n cores from the healthy pool, simulating core death,
// and returns how many cores actually failed: failing more cores than
// remain healthy clamps, so the return value can be less than n (zero on a
// fully dead machine).
func (m *Machine) FailCores(n int) int {
	if n < 0 {
		panic("sim: negative core failure count")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	before := m.failed
	m.failed += n
	if m.failed > m.totalCores {
		m.failed = m.totalCores
	}
	return m.failed - before
}

// Restore heals all failed cores.
func (m *Machine) Restore() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failed = 0
}

// FailedCores returns how many cores have failed.
func (m *Machine) FailedCores() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.failed
}

// Duration returns the modeled execution time of w on the current
// effective core allocation and frequency, without executing it.
func (m *Machine) Duration(w Work) time.Duration {
	m.mu.Lock()
	cores := m.effectiveLocked()
	rate := m.coreRate
	m.mu.Unlock()
	return workDuration(w, cores, rate*m.dvfs.frequency())
}

func workDuration(w Work, cores int, coreRate float64) time.Duration {
	if w.Ops <= 0 {
		return 0
	}
	s := Speedup(cores, w.ParallelFrac)
	if s <= 0 {
		// No healthy cores: the work never completes. Model as an
		// effectively infinite stall; callers detect it via heart-rate
		// flatline, exactly as the paper's health monitors would.
		return time.Hour * 24 * 365
	}
	secs := w.Ops / (coreRate * s)
	return time.Duration(secs * float64(time.Second))
}

// Execute runs w to completion: the clock advances by the modeled
// duration, and the energy drawn by the active cores is accumulated (see
// Energy).
func (m *Machine) Execute(w Work) {
	m.clock.Advance(m.executeDVFS(w))
}
