package sim

import (
	"fmt"
	"time"

	"repro/clock"
)

// Cluster is a discrete-event co-simulator for several applications
// sharing one multicore machine — the substrate for the paper's
// multi-application claim (§1: "when running multiple Heartbeat-enabled
// applications, it allows system resources to be reallocated to provide
// the best global outcome"). Each Proc executes a stream of work items on
// its granted cores; the cluster advances the shared clock from one item
// completion to the next, so concurrently running applications progress at
// rates determined by their allocations.
//
// Cluster and Proc are not safe for concurrent use; drive them from one
// experiment loop.
//
//hbvet:api -- paper §1's multi-application claim: the shared machine the multiapp experiment partitions; its accessors are the model's state
type Cluster struct {
	clock    *clock.Virtual
	coreRate float64
	total    int
	procs    []*Proc
}

// Proc is one application's execution context in a Cluster.
//
//hbvet:api -- paper §1's multi-application claim: one application on the shared machine; its accessors are the model's state
type Proc struct {
	cluster   *Cluster
	name      string
	cores     int
	pf        float64
	remaining float64 // ops left in the current item
	idle      bool
	next      func() (Work, bool)
	completed uint64
}

// NewCluster creates a cluster with the given shared core count and
// per-core op rate.
func NewCluster(clk *clock.Virtual, totalCores int, coreRate float64) *Cluster {
	if clk == nil {
		panic("sim: nil clock")
	}
	if totalCores <= 0 || coreRate <= 0 {
		panic(fmt.Sprintf("sim: invalid cluster (cores=%d, coreRate=%g)", totalCores, coreRate))
	}
	return &Cluster{clock: clk, coreRate: coreRate, total: totalCores}
}

// TotalCores returns the shared core count.
func (c *Cluster) TotalCores() int { return c.total }

// UsedCores returns the sum of all current grants.
func (c *Cluster) UsedCores() int {
	used := 0
	for _, p := range c.procs {
		used += p.cores
	}
	return used
}

// AddProc registers an application. next supplies its successive work
// items; returning false parks the proc idle (it can be resumed with
// Resume). The initial allocation is clamped to [1, TotalCores]; keeping
// the sum of grants within TotalCores is the caller's (scheduler's)
// responsibility, checked at every Step.
func (c *Cluster) AddProc(name string, initialCores int, next func() (Work, bool)) *Proc {
	p := &Proc{cluster: c, name: name, pf: 1, next: next}
	p.setCoresClamped(initialCores)
	c.procs = append(c.procs, p)
	p.fetch()
	return p
}

// Name returns the proc's label.
func (p *Proc) Name() string { return p.name }

// Cores returns the proc's current grant.
func (p *Proc) Cores() int { return p.cores }

// Completed returns how many work items the proc has finished.
func (p *Proc) Completed() uint64 { return p.completed }

// Idle reports whether the proc has no work.
func (p *Proc) Idle() bool { return p.idle }

// SetCores grants n cores, clamped to [1, cluster total], and returns the
// effective grant.
func (p *Proc) SetCores(n int) int {
	p.setCoresClamped(n)
	return p.cores
}

func (p *Proc) setCoresClamped(n int) {
	if n < 1 {
		n = 1
	}
	if n > p.cluster.total {
		n = p.cluster.total
	}
	p.cores = n
}

// Resume re-arms an idle proc (its next function will be consulted again).
func (p *Proc) Resume() {
	if p.idle {
		p.idle = false
		p.fetch()
	}
}

// fetch pulls the next work item.
func (p *Proc) fetch() {
	w, ok := p.next()
	if !ok || w.Ops <= 0 {
		p.idle = true
		p.remaining = 0
		return
	}
	p.pf = w.ParallelFrac
	p.remaining = w.Ops
}

// rate returns the proc's current execution speed in ops/second.
func (p *Proc) rate() float64 {
	return p.cluster.coreRate * Speedup(p.cores, p.pf)
}

// Step advances the cluster to the next item completion: every running
// proc progresses for the elapsed interval, and exactly the finishing
// proc(s) fetch new work. It returns false when every proc is idle.
// Step panics if the grants oversubscribe the machine — a scheduler bug.
func (c *Cluster) Step() bool {
	if used := c.UsedCores(); used > c.total {
		panic(fmt.Sprintf("sim: cluster oversubscribed (%d granted, %d cores)", used, c.total))
	}
	// Find the earliest completion among running procs.
	first := time.Duration(-1)
	for _, p := range c.procs {
		if p.idle {
			continue
		}
		d := time.Duration(p.remaining / p.rate() * float64(time.Second))
		if first < 0 || d < first {
			first = d
		}
	}
	if first < 0 {
		return false // all idle
	}
	c.clock.Advance(first)
	dt := first.Seconds()
	for _, p := range c.procs {
		if p.idle {
			continue
		}
		p.remaining -= p.rate() * dt
		// Anything within a nanosecond of done is done (quantization).
		if p.remaining <= p.rate()*1e-9 {
			p.completed++
			p.fetch()
		}
	}
	return true
}

// RunUntil steps until the clock reaches deadline or all procs are idle.
func (c *Cluster) RunUntil(deadline time.Time) {
	for c.clock.Now().Before(deadline) {
		if !c.Step() {
			return
		}
	}
}
