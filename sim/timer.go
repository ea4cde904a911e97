package sim

import (
	"container/heap"
	"context"
	"runtime"
	"time"

	"repro/heartbeat"
)

// This file gives the simulated clock a queue of stoppable timers, which
// is what turns it from a readable counter into a schedulable one:
// AfterFunc queues a callback and the clock runs it, in deadline order, as
// it is advanced. Together with heartbeat.WaitClock (which Clock
// satisfies) this lets the whole stack — observer tickers, hbnet backoff,
// the pump's read deadline — run under virtual time: a blocked loop costs
// nothing until the clock sweeps past its deadline, a wait that ends early
// stops its timer, and a simulated minute takes the real time of its
// events, not a minute.

// timer is one queued callback; c.mu guards when, seq and idx.
type timer struct {
	c    *Clock
	f    func()
	when time.Time
	seq  uint64 // registration order breaks deadline ties deterministically
	idx  int    // position in c.timers; -1 while not pending
}

// timerHeap orders timers by deadline, then registration.
type timerHeap []*timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if !h[i].when.Equal(h[j].when) {
		return h[i].when.Before(h[j].when)
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *timerHeap) Push(x interface{}) {
	t := x.(*timer)
	t.idx = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() interface{} {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.idx = -1
	*h = old[:n-1]
	return t
}

// AfterFunc implements heartbeat.WaitClock: f runs on the goroutine
// advancing the clock once it sweeps past now+d, or at once on the
// caller's goroutine for a non-positive d. While f runs, Now reads its
// timer's deadline and the clock is unlocked, so f may read the clock and
// arm, stop or reset timers (one due by the sweep's target runs in the
// same sweep). f must not block or advance the clock: every later timer,
// and every other advancer, waits for it.
func (c *Clock) AfterFunc(d time.Duration, f func()) heartbeat.Timer {
	t := &timer{c: c, f: f, idx: -1}
	t.Reset(d)
	return t
}

// Stop removes the timer from the queue; see heartbeat.Timer.
func (t *timer) Stop() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	if t.idx < 0 {
		return false
	}
	heap.Remove(&t.c.timers, t.idx)
	return true
}

// Reset re-arms the timer d after the clock's current reading (a
// non-positive d runs the callback at once); see heartbeat.Timer.
func (t *timer) Reset(d time.Duration) bool {
	c := t.c
	c.mu.Lock()
	pending := t.idx >= 0
	if d <= 0 {
		if pending {
			heap.Remove(&c.timers, t.idx)
		}
		c.mu.Unlock()
		t.f()
		return pending
	}
	t.when = c.now.Add(d)
	c.timerSeq++
	t.seq = c.timerSeq
	if pending {
		heap.Fix(&c.timers, t.idx)
	} else {
		heap.Push(&c.timers, t)
		if c.armed != nil {
			close(c.armed)
			c.armed = nil
		}
	}
	c.mu.Unlock()
	return pending
}

// runDue runs, one at a time and in deadline order, every timer due by
// target, stepping now to each deadline so a callback never observes a
// clock that has not reached it, then moves now to target. Callers hold
// c.adv, so two advancers' callbacks never interleave out of order.
func (c *Clock) runDue(target time.Time) {
	c.mu.Lock()
	for len(c.timers) > 0 && !c.timers[0].when.After(target) {
		t := heap.Pop(&c.timers).(*timer)
		if c.now.Before(t.when) {
			c.now = t.when
		}
		c.mu.Unlock()
		t.f()
		c.mu.Lock()
	}
	if c.now.Before(target) {
		c.now = target
	}
	c.mu.Unlock()
}

// NextDeadline returns the earliest pending timer deadline, if any.
func (c *Clock) NextDeadline() (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.timers) == 0 {
		return time.Time{}, false
	}
	return c.timers[0].when, true
}

// PendingTimers returns how many timers are queued on the clock.
func (c *Clock) PendingTimers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.timers)
}

// AdvanceToNext advances the clock exactly to the earliest pending timer
// deadline, running every timer due by then. It reports whether a timer
// was pending; a false return leaves the clock untouched.
func (c *Clock) AdvanceToNext() bool {
	pending, _ := c.advanceNext(time.Time{})
	return pending
}

// advanceNext advances to the earliest pending deadline, or only to end
// when that deadline lies beyond a non-zero end (capped). pending reports
// whether a timer was queued; without one the clock stays put.
func (c *Clock) advanceNext(end time.Time) (pending, capped bool) {
	c.adv.Lock()
	defer c.adv.Unlock()
	target, pending := c.NextDeadline()
	if !pending {
		return false, false
	}
	if !end.IsZero() && target.After(end) {
		target, capped = end, true
	}
	c.runDue(target)
	return true, capped
}

// awaitTimer blocks until at least one timer is pending or ctx is done;
// false means cancelled.
func (c *Clock) awaitTimer(ctx context.Context) bool {
	for {
		c.mu.Lock()
		if len(c.timers) > 0 {
			c.mu.Unlock()
			return true
		}
		if c.armed == nil {
			c.armed = make(chan struct{})
		}
		armed := c.armed
		c.mu.Unlock()
		select {
		case <-ctx.Done():
			return false
		case <-armed:
		}
	}
}

// settleRounds is how many scheduler yields AutoAdvance grants the
// goroutines woken by one advance before the next: enough for a woken loop
// to consume its event and re-arm its next wait in the common case, cheap
// enough that a simulated second still costs microseconds.
const settleRounds = 16

// AutoAdvance drives the clock until ctx is cancelled: whenever any
// timer is queued on the clock, it yields briefly (letting goroutines
// woken by the previous step run and arm their next waits) and then
// advances to the earliest pending deadline. With every loop in the system
// blocked on clock waits, this turns the program into an event-driven
// simulation — virtual time leaps from deadline to deadline at whatever
// rate the host executes the events in between.
//
// The yield is a heuristic, not a quiescence handshake: under host load a
// woken goroutine may re-arm its next wait only after the clock has moved
// past further deadlines, so exact event interleavings can vary between
// runs (the clock can overshoot — a wait lands relative to a later "now").
// What stays reproducible is everything derived from a seed (the simnet
// scenario configurations), and simulation assertions should therefore be
// interleaving-insensitive invariants (conservation, exactly-once), not
// exact timelines.
//
// Run it on its own goroutine; it returns when ctx is cancelled. Limit, if
// positive, stops the driver once the clock passes start+limit — a
// backstop against a runaway simulation. The backstop is exact: the clock
// never sweeps past it, even when the next deadline lies beyond it (e.g.
// one far-future backoff wait).
func (c *Clock) AutoAdvance(ctx context.Context, limit time.Duration) {
	var end time.Time
	if limit > 0 {
		end = c.Now().Add(limit)
	}
	for ctx.Err() == nil {
		if !c.awaitTimer(ctx) {
			return
		}
		for i := 0; i < settleRounds; i++ {
			runtime.Gosched()
		}
		if ctx.Err() != nil {
			return
		}
		if _, capped := c.advanceNext(end); capped {
			return
		}
	}
}
