package scheduler

import (
	"fmt"

	"repro/observer"
)

// Partitioner divides a fixed pool of cores among several heartbeat-
// enabled applications to keep each inside its own advertised target
// window — the paper's multi-application scenario (§1: resources
// "reallocated to provide the best global outcome", §2.4's organic OS).
// Like the single-application scheduler it observes nothing but
// heartbeats; each decision moves at most one core, taken from the idle
// pool, or from the application most above its window, and given to the
// application furthest below its own.
//
// Each application is consumed as an incremental stream: a Step reads
// only the records published since the previous Step, per application,
// instead of re-fetching every window every decision.
//
// Partitioner is not safe for concurrent use.
type Partitioner struct {
	total  int
	window int
	apps   []*partApp
}

type partApp struct {
	observed
	name  string
	set   func(int) int
	cores int
}

// AppStatus reports one application's state at a partitioning decision.
type AppStatus struct {
	Name      string
	Rate      float64
	RateOK    bool
	Cores     int
	TargetMin float64
	TargetMax float64
	// Need is the relative shortfall below the window minimum (> 0 when
	// starved), Surplus the relative excess above the maximum.
	Need, Surplus float64
}

// NewPartitioner creates a partitioner over a pool of total cores.
// window sets the rate-averaging window in beats (0: each application's
// default).
func NewPartitioner(total, window int) (*Partitioner, error) {
	if total < 1 {
		return nil, fmt.Errorf("scheduler: partitioner needs at least 1 core, got %d", total)
	}
	return &Partitioner{total: total, window: window}, nil
}

// Add registers an application: its heartbeat stream and its core
// actuator (which must clamp and return the effective grant, e.g.
// (*sim.Proc).SetCores). The initial grant is applied immediately.
// Add fails if the pool cannot hold one core per registered application;
// on success the partitioner owns the stream (see Close). The partitioner
// is Step-driven — Step drains every stream without blocking, so a polled
// stream's pacing is never waited on and no clock threading is needed
// (callers on a virtual clock call Step from their own clocked loop;
// contrast CoreScheduler.Run, which waits and therefore takes WithClock).
func (p *Partitioner) Add(name string, stream observer.Stream, set func(int) int, initial int) error {
	if stream == nil || set == nil {
		return fmt.Errorf("scheduler: nil stream or actuator for %q", name)
	}
	if len(p.apps)+1 > p.total {
		return fmt.Errorf("scheduler: %d apps cannot share %d cores (1 core per app minimum)", len(p.apps)+1, p.total)
	}
	if initial < 1 {
		initial = 1
	}
	if used := p.used() + initial; used > p.total {
		initial = p.total - p.used()
	}
	a := &partApp{observed: observe(stream, p.window), name: name, set: set}
	a.cores = set(initial)
	p.apps = append(p.apps, a)
	return nil
}

func (p *Partitioner) used() int {
	used := 0
	for _, a := range p.apps {
		used += a.cores
	}
	return used
}

// Free returns the number of unallocated cores.
func (p *Partitioner) Free() int { return p.total - p.used() }

// Close releases every registered application's stream (see
// CoreScheduler.Close). Close the partitioner once no Step is active.
func (p *Partitioner) Close() error {
	var first error
	for _, a := range p.apps {
		if err := a.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Step performs one observe–decide–actuate cycle over all applications
// and returns their statuses after actuation.
func (p *Partitioner) Step() ([]AppStatus, error) {
	statuses := make([]AppStatus, len(p.apps))
	for i, a := range p.apps {
		if err := a.drain(); err != nil {
			return nil, fmt.Errorf("scheduler: observing %q: %w", a.name, err)
		}
		r, ok := a.win.RateOver(p.window)
		rate := r.PerSec
		targetMin, targetMax, targetSet := a.win.Target()
		st := AppStatus{
			Name: a.name, Rate: rate, RateOK: ok, Cores: a.cores,
			TargetMin: targetMin, TargetMax: targetMax,
		}
		if ok && targetSet {
			if rate < targetMin && targetMin > 0 {
				st.Need = (targetMin - rate) / targetMin
			}
			if rate > targetMax && targetMax > 0 {
				st.Surplus = (rate - targetMax) / targetMax
			}
		}
		statuses[i] = st
	}

	// Who is starving most, and who has the most headroom to give?
	needy, donor := -1, -1
	for i, st := range statuses {
		if st.Need > 0 && (needy == -1 || st.Need > statuses[needy].Need) {
			needy = i
		}
		if st.Surplus > 0 && statuses[i].Cores > 1 &&
			(donor == -1 || st.Surplus > statuses[donor].Surplus) {
			donor = i
		}
	}

	switch {
	case needy >= 0 && p.Free() > 0:
		// Grant from the idle pool first.
		p.grant(needy, statuses)
	case needy >= 0 && donor >= 0:
		// Rob the most-over app for the most-under one.
		p.revoke(donor, statuses)
		p.grant(needy, statuses)
	case needy < 0 && donor >= 0:
		// Nobody starves: release surplus back to the pool (the paper's
		// minimum-resource goal — reclaimed cores could be powered down
		// or given to non-heartbeat work).
		p.revoke(donor, statuses)
	}
	return statuses, nil
}

func (p *Partitioner) grant(i int, statuses []AppStatus) {
	a := p.apps[i]
	a.cores = a.set(a.cores + 1)
	statuses[i].Cores = a.cores
}

func (p *Partitioner) revoke(i int, statuses []AppStatus) {
	a := p.apps[i]
	if a.cores <= 1 {
		return
	}
	a.cores = a.set(a.cores - 1)
	statuses[i].Cores = a.cores
}
