// Package sim provides a deterministic simulated multicore machine: a
// manually advanced clock, an Amdahl-law execution-time model with dynamic
// core allocation, and core-failure injection.
//
// The paper evaluates Application Heartbeats on an eight-core x86 server by
// measuring heart rate while an external scheduler grants and revokes cores
// (and, in the fault-tolerance study, while cores "die"). This package is
// the substitute substrate for that testbed: every work item carries an
// abstract operation count and a parallel fraction, and executing it
// advances the simulated clock by ops / (coreRate × speedup(cores)). The
// feedback loop the paper studies — work → elapsed time → heart rate →
// adaptation → resources → work — is preserved exactly, but runs
// deterministically and in microseconds of host time, independent of host
// core count.
package sim

import (
	"sync"
	"time"
)

// Epoch is the default simulation start time. Any fixed instant works; this
// one makes timestamps easy to read in dumps.
var Epoch = time.Date(2009, time.August, 7, 0, 0, 0, 0, time.UTC)

// Clock is a manually advanced clock. It implements heartbeat.Clock — and
// heartbeat.WaitClock: AfterFunc queues a stoppable timer (see timer.go),
// and Advance, AdvanceToNext and AutoAdvance run the due callbacks one at a
// time, in deadline order, on the advancing goroutine. The zero value is
// invalid; use NewClock.
//
//hbvet:api -- ARCHITECTURE simulated layer: the virtual clock tests and simulations advance by hand
type Clock struct {
	adv      sync.Mutex // held by each advancer for its whole sweep
	mu       sync.Mutex
	now      time.Time
	timers   timerHeap
	timerSeq uint64
	armed    chan struct{} // non-nil while awaitTimer waits for a registration
}

// NewClock returns a Clock reading start. A zero start uses Epoch.
func NewClock(start time.Time) *Clock {
	if start.IsZero() {
		start = Epoch
	}
	return &Clock{now: start}
}

// Now returns the current simulated time.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d, running every timer whose deadline
// the sweep passes — each at its own deadline, in order. Negative d panics:
// simulated time, like real time, never runs backwards.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic("sim: negative clock advance")
	}
	c.adv.Lock()
	defer c.adv.Unlock()
	c.runDue(c.Now().Add(d))
}

// Elapsed returns the time elapsed since start.
func (c *Clock) Elapsed(start time.Time) time.Duration {
	return c.Now().Sub(start)
}
