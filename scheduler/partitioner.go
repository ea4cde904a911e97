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
// heartbeats, as an observer.Hub judges them; each decision moves at most
// one core, taken from the idle pool, or from the application most above
// its window, and given to the application furthest below its own.
//
// Partitioner is not safe for concurrent use.
type Partitioner struct {
	total int
	apps  []*partApp
}

type partApp struct {
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
func NewPartitioner(total int) (*Partitioner, error) {
	if total < 1 {
		return nil, fmt.Errorf("scheduler: partitioner needs at least 1 core, got %d", total)
	}
	return &Partitioner{total: total}, nil
}

// Add registers an application under the name its statuses carry, with
// its core actuator (which must clamp and return the effective grant, e.g.
// (*sim.Proc).SetCores). The initial grant is applied immediately, capped
// by the free cores; when none is free, the new application's one core is
// taken from the application holding the most. Add fails on a duplicate
// name, and if the pool cannot hold one core per registered application.
func (p *Partitioner) Add(name string, set func(int) int, initial int) error {
	if set == nil {
		return fmt.Errorf("scheduler: nil actuator for %q", name)
	}
	for _, a := range p.apps {
		if a.name == name {
			return fmt.Errorf("scheduler: duplicate app %q", name)
		}
	}
	if len(p.apps)+1 > p.total {
		return fmt.Errorf("scheduler: %d apps cannot share %d cores (1 core per app minimum)", len(p.apps)+1, p.total)
	}
	if p.free() < 1 {
		// The pool is full: the new application's core comes from the one
		// holding the most, as a revocation in Step would take it.
		richest := p.apps[0]
		for _, a := range p.apps {
			if a.cores > richest.cores {
				richest = a
			}
		}
		richest.resize(-1)
	}
	initial = min(max(initial, 1), p.free())
	a := &partApp{name: name, set: set}
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

// free returns the number of unallocated cores.
func (p *Partitioner) free() int { return p.total - p.used() }

// Step performs one decide–actuate cycle over all applications, each
// judged by the status of its name in sts (as observer.Hub.Step returns
// them; an application missing from sts counts as unobserved), and returns
// their statuses after actuation, in registration order.
func (p *Partitioner) Step(sts []observer.NamedStatus) []AppStatus {
	judged := make(map[string]observer.Status, len(sts))
	for _, ns := range sts {
		judged[ns.Name] = ns.Status
	}
	statuses := make([]AppStatus, len(p.apps))
	for i, a := range p.apps {
		obs := judged[a.name]
		st := AppStatus{
			Name: a.name, Rate: obs.Rate, RateOK: obs.RateOK, Cores: a.cores,
			TargetMin: obs.TargetMin, TargetMax: obs.TargetMax,
		}
		if obs.RateOK && obs.TargetSet {
			if obs.Rate < obs.TargetMin && obs.TargetMin > 0 {
				st.Need = (obs.TargetMin - obs.Rate) / obs.TargetMin
			}
			if obs.Rate > obs.TargetMax && obs.TargetMax > 0 {
				st.Surplus = (obs.Rate - obs.TargetMax) / obs.TargetMax
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
	case needy >= 0 && p.free() > 0:
		// Grant from the idle pool first.
		p.apps[needy].resize(+1)
	case needy >= 0 && donor >= 0:
		// Rob the most-over app for the most-under one.
		p.apps[donor].resize(-1)
		p.apps[needy].resize(+1)
	case needy < 0 && donor >= 0:
		// Nobody starves: release surplus back to the pool (the paper's
		// minimum-resource goal — reclaimed cores could be powered down
		// or given to non-heartbeat work).
		p.apps[donor].resize(-1)
	}
	for i, a := range p.apps {
		statuses[i].Cores = a.cores
	}
	return statuses
}

// resize moves a's grant by delta cores through its actuator, never below
// one core.
func (a *partApp) resize(delta int) {
	if a.cores+delta >= 1 {
		a.cores = a.set(a.cores + delta)
	}
}
