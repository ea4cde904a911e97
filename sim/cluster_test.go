package sim

import (
	"testing"
	"time"

	"repro/clock"
)

func TestClusterSingleProcMatchesMachine(t *testing.T) {
	clk := clock.NewVirtual()
	c := NewCluster(clk, 8, 1000)
	items := 0
	p := c.AddProc("app", 8, func() (Work, bool) {
		if items >= 5 {
			return Work{}, false
		}
		items++
		return Work{Ops: 8000, ParallelFrac: 1}, true
	})
	start := clk.Now()
	for c.Step() {
	}
	// 5 items × 8000 ops at 8×1000 ops/s = 5 seconds.
	if got := clk.Now().Sub(start); got != 5*time.Second {
		t.Fatalf("elapsed = %v, want 5s", got)
	}
	if p.Completed() != 5 || !p.Idle() {
		t.Fatalf("completed=%d idle=%v", p.Completed(), p.Idle())
	}
}

func TestClusterTwoProcsShareTime(t *testing.T) {
	clk := clock.NewVirtual()
	c := NewCluster(clk, 8, 1000)
	mk := func(n *int, limit int, ops float64) func() (Work, bool) {
		return func() (Work, bool) {
			if *n >= limit {
				return Work{}, false
			}
			*n++
			return Work{Ops: ops, ParallelFrac: 1}, true
		}
	}
	var na, nb int
	// A on 6 cores (6000 ops/s), B on 2 cores (2000 ops/s), same item size.
	a := c.AddProc("a", 6, mk(&na, 100, 6000))
	b := c.AddProc("b", 2, mk(&nb, 100, 2000))
	// Run 10 simulated seconds: both complete one item per second,
	// concurrently.
	c.RunUntil(clk.Now().Add(10 * time.Second))
	if a.Completed() != 10 || b.Completed() != 10 {
		t.Fatalf("completed a=%d b=%d, want 10 each", a.Completed(), b.Completed())
	}
}

func TestClusterProportionalProgress(t *testing.T) {
	clk := clock.NewVirtual()
	c := NewCluster(clk, 8, 1000)
	mk := func() func() (Work, bool) {
		return func() (Work, bool) { return Work{Ops: 1000, ParallelFrac: 1}, true }
	}
	fast := c.AddProc("fast", 6, mk())
	slow := c.AddProc("slow", 2, mk())
	c.RunUntil(clk.Now().Add(30 * time.Second))
	ratio := float64(fast.Completed()) / float64(slow.Completed())
	if ratio < 2.8 || ratio > 3.2 {
		t.Fatalf("completion ratio = %.2f (fast=%d slow=%d), want ~3",
			ratio, fast.Completed(), slow.Completed())
	}
}

func TestClusterReallocationChangesRates(t *testing.T) {
	clk := clock.NewVirtual()
	c := NewCluster(clk, 8, 1000)
	p := c.AddProc("app", 2, func() (Work, bool) { return Work{Ops: 1000, ParallelFrac: 1}, true })
	c.RunUntil(clk.Now().Add(10 * time.Second))
	before := p.Completed() // 2 cores: 2 items/s → ~20
	p.SetCores(8)
	c.RunUntil(clk.Now().Add(10 * time.Second))
	after := p.Completed() - before // 8 cores: 8 items/s → ~80
	if before < 19 || before > 21 {
		t.Fatalf("before = %d, want ~20", before)
	}
	if after < 76 || after > 84 {
		t.Fatalf("after = %d, want ~80", after)
	}
}

func TestClusterOversubscriptionPanics(t *testing.T) {
	clk := clock.NewVirtual()
	c := NewCluster(clk, 4, 1000)
	c.AddProc("a", 3, func() (Work, bool) { return Work{Ops: 1, ParallelFrac: 1}, true })
	c.AddProc("b", 3, func() (Work, bool) { return Work{Ops: 1, ParallelFrac: 1}, true })
	defer func() {
		if recover() == nil {
			t.Fatal("oversubscribed Step did not panic")
		}
	}()
	c.Step()
}

func TestClusterIdleAndResume(t *testing.T) {
	clk := clock.NewVirtual()
	c := NewCluster(clk, 2, 1000)
	served := 0
	budget := 3
	p := c.AddProc("app", 1, func() (Work, bool) {
		if served >= budget {
			return Work{}, false
		}
		served++
		return Work{Ops: 100, ParallelFrac: 1}, true
	})
	for c.Step() {
	}
	if !p.Idle() || p.Completed() != 3 {
		t.Fatalf("idle=%v completed=%d", p.Idle(), p.Completed())
	}
	if c.Step() {
		t.Fatal("Step on all-idle cluster returned true")
	}
	budget = 5
	p.Resume()
	for c.Step() {
	}
	if p.Completed() != 5 {
		t.Fatalf("completed after resume = %d", p.Completed())
	}
}

func TestClusterProcCoreClamping(t *testing.T) {
	clk := clock.NewVirtual()
	c := NewCluster(clk, 4, 1000)
	p := c.AddProc("app", 99, func() (Work, bool) { return Work{}, false })
	if p.Cores() != 4 {
		t.Fatalf("initial grant = %d, want clamp to 4", p.Cores())
	}
	if got := p.SetCores(0); got != 1 {
		t.Fatalf("SetCores(0) = %d, want 1", got)
	}
	if c.UsedCores() != 1 || c.TotalCores() != 4 {
		t.Fatalf("used=%d total=%d", c.UsedCores(), c.TotalCores())
	}
}

func TestClusterValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewCluster(nil, 4, 1) },
		func() { NewCluster(clock.NewVirtual(), 0, 1) },
		func() { NewCluster(clock.NewVirtual(), 4, 0) },
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
