package balance

import (
	"testing"
	"time"

	"repro/heartbeat"
	"repro/observer"
)

func live(app string, perSec float64) observer.Rollup {
	r := observer.Rollup{App: app, Records: 10}
	if perSec > 0 {
		r.Rate = heartbeat.Rate{PerSec: perSec, Beats: 10, Span: time.Second}
		r.RateOK = true
	}
	return r
}

func silent(app string) observer.Rollup { return observer.Rollup{App: app} }

func lapped(app string, missed uint64) observer.Rollup {
	return observer.Rollup{App: app, Missed: missed}
}

func newTestUpdater(p Policy) (*Updater, *[]Swap) {
	swaps := &[]Swap{}
	u := NewUpdater(New(WithBuckets(64)), p, WithOnSwap(func(s Swap) {
		*swaps = append(*swaps, s)
	}))
	return u, swaps
}

func TestSingleSilentWindowDoesNotFlap(t *testing.T) {
	u, swaps := newTestUpdater(DefaultPolicy())
	u.Absorb(live("a", 0), live("b", 0))
	if w := u.Weight("a"); w != 1 {
		t.Fatalf("fresh live node weight = %v, want 1", w)
	}
	before := len(*swaps)

	u.Absorb(silent("a")) // one bad window
	if w := u.Weight("a"); w != 1 {
		t.Fatalf("weight after one silent window = %v, want 1 (hysteresis)", w)
	}
	if len(*swaps) != before {
		t.Fatalf("one silent window caused a table swap: %+v", (*swaps)[before:])
	}

	u.Absorb(live("a", 0)) // recovers; still no swap needed
	if w := u.Weight("a"); w != 1 {
		t.Fatalf("weight after recovery = %v, want 1", w)
	}
	if len(*swaps) != before {
		t.Fatalf("a one-window blip churned the table: %+v", (*swaps)[before:])
	}
}

func TestSustainedFlatlineDrains(t *testing.T) {
	u, _ := newTestUpdater(DefaultPolicy()) // DrainAfter: 2
	u.Absorb(live("a", 0))
	u.Absorb(silent("a"))
	if w := u.Weight("a"); w != 1 {
		t.Fatalf("drained after a single silent window: weight %v", w)
	}
	u.Absorb(silent("a"))
	if w := u.Weight("a"); w != 0 {
		t.Fatalf("still weighted %v after DrainAfter silent windows, want 0", w)
	}
	// Traffic must stop flowing to the drained node.
	if _, ok := u.table.Pick(99); ok {
		t.Fatalf("all nodes drained but Pick still routes")
	}
}

func TestReclaimRampAfterRecovery(t *testing.T) {
	u, _ := newTestUpdater(DefaultPolicy()) // ReclaimAfter: 2, start 0.25
	u.Absorb(live("a", 0))
	u.Absorb(silent("a"), silent("a")) // hold, then drain — separate windows
	u.Absorb(silent("a"))
	if w := u.Weight("a"); w != 0 {
		t.Fatalf("weight = %v, want drained", w)
	}

	u.Absorb(live("a", 0)) // 1st good window: not yet
	if w := u.Weight("a"); w != 0 {
		t.Fatalf("reclaimed after one good window: %v", w)
	}
	want := []float64{0.25, 0.5, 1, 1}
	for i, exp := range want {
		u.Absorb(live("a", 0))
		if w := u.Weight("a"); w != exp {
			t.Fatalf("ramp step %d: weight = %v, want %v", i, w, exp)
		}
	}
}

func TestRampRestartsOnFlapDuringReclaim(t *testing.T) {
	u, _ := newTestUpdater(DefaultPolicy())
	u.Absorb(live("a", 0))
	u.Absorb(silent("a"), silent("a"), silent("a"))
	u.Absorb(live("a", 0), live("a", 0), live("a", 0)) // -> 0, 0.25, 0.5
	if w := u.Weight("a"); w != 0.5 {
		t.Fatalf("mid-ramp weight = %v, want 0.5", w)
	}
	u.Absorb(silent("a")) // flap mid-ramp
	if w := u.Weight("a"); w != 0.5 {
		t.Fatalf("one silent window mid-ramp dropped weight to %v", w)
	}
	u.Absorb(live("a", 0)) // good run broke; must re-confirm, not jump
	if w := u.Weight("a"); w != 0.5 {
		t.Fatalf("weight = %v right after mid-ramp flap, want held 0.5", w)
	}
	u.Absorb(live("a", 0), live("a", 0))
	if w := u.Weight("a"); w != 1 {
		t.Fatalf("ramp did not resume: weight %v, want 1", w)
	}
}

// TestRestartResyncKeepsWeight is the Life-rotation edge: a producer
// restart shows up as windows whose records were lapped before delivery
// (Records == 0, Missed > 0) and cumulative Count regressing — evidence
// the producer is ALIVE. Its weight must not move.
func TestRestartResyncKeepsWeight(t *testing.T) {
	u, swaps := newTestUpdater(DefaultPolicy())
	u.Absorb(live("a", 0))
	before := len(*swaps)

	r := lapped("a", 500) // reconnect gap: everything lapped, nothing silent
	u.Absorb(r)
	if w := u.Weight("a"); w != 1 {
		t.Fatalf("lapped-but-alive window moved weight to %v", w)
	}

	resync := live("a", 0)
	resync.Count = 3 // cumulative count regressed: new life
	u.Absorb(resync)
	if w := u.Weight("a"); w != 1 {
		t.Fatalf("restart resync moved weight to %v", w)
	}
	if len(*swaps) != before {
		t.Fatalf("restart resync churned the table: %+v", (*swaps)[before:])
	}
}

func TestStatusFlatlineDrainsImmediately(t *testing.T) {
	u, _ := newTestUpdater(DefaultPolicy())
	u.Absorb(live("a", 0))
	u.applyStatus("a", observer.Status{Health: observer.Flatlined})
	if w := u.Weight("a"); w != 0 {
		t.Fatalf("Flatlined status left weight %v", w)
	}
	// A single live window must not snap it back: the reclaim ramp owns
	// recovery even when the drain came from the classifier.
	u.Absorb(live("a", 0))
	if w := u.Weight("a"); w != 0 {
		t.Fatalf("weight %v after one post-flatline window, want 0", w)
	}
	u.Absorb(live("a", 0))
	if w := u.Weight("a"); w != 0.25 {
		t.Fatalf("weight %v, want reclaim ramp at 0.25", w)
	}
}

func TestStatusSlowCapsWeight(t *testing.T) {
	u, _ := newTestUpdater(DefaultPolicy())
	u.Absorb(live("a", 0))
	u.applyStatus("a", observer.Status{Health: observer.Slow})
	if w := u.Weight("a"); w != 0.5 {
		t.Fatalf("Slow status left weight %v, want capped 0.5", w)
	}
	// Rollups while still Slow must not push past the cap.
	u.Absorb(live("a", 0))
	if w := u.Weight("a"); w != 0.5 {
		t.Fatalf("rollup pushed a Slow node to %v, want 0.5", w)
	}
	// Healthy clears the cap; the next rollup restores full weight.
	u.applyStatus("a", observer.Status{Health: observer.Healthy})
	if w := u.Weight("a"); w != 0.5 {
		t.Fatalf("Healthy status alone moved weight to %v (rollups own upward moves)", w)
	}
	u.Absorb(live("a", 0))
	if w := u.Weight("a"); w != 1 {
		t.Fatalf("weight %v after cap cleared, want 1", w)
	}
}

func TestMinDeltaSuppressesJitter(t *testing.T) {
	p := DefaultPolicy()
	p.ExpectedRate = 100
	u, swaps := newTestUpdater(p)
	u.Absorb(live("a", 100))
	if w := u.Weight("a"); w != 1 {
		t.Fatalf("on-rate node weight = %v", w)
	}
	base := len(*swaps)
	u.Absorb(live("a", 97), live("a", 102), live("a", 95))
	if len(*swaps) != base {
		t.Fatalf("±5%% rate jitter swapped the table: %+v", (*swaps)[base:])
	}
	// A real degradation (half rate) exceeds MinDelta and applies.
	u.Absorb(live("a", 50))
	if w := u.Weight("a"); w != 0.5 {
		t.Fatalf("half-rate node weight = %v, want 0.5", w)
	}
}

func TestFreshSilentNodeStaysOut(t *testing.T) {
	u, _ := newTestUpdater(DefaultPolicy())
	u.Absorb(live("a", 0))
	u.Absorb(silent("ghost")) // tracked but never alive
	if w := u.Weight("ghost"); w != 0 {
		t.Fatalf("never-alive node admitted at weight %v", w)
	}
	for k := uint64(0); k < 256; k++ {
		if n, _ := u.table.Pick(k); n == "ghost" {
			t.Fatalf("traffic routed to a never-alive node")
		}
	}
}
