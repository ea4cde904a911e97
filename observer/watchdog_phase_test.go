package observer_test

import (
	"testing"
	"time"

	"repro/heartbeat"
	"repro/internal/experiments"
	"repro/observer"
	"repro/sim"
)

func TestWatchdogDebounces(t *testing.T) {
	fired := 0
	w := &observer.Watchdog{Threshold: 3, OnRestart: func(observer.Status) { fired++ }}
	flat := observer.Status{Health: observer.Flatlined}
	ok := observer.Status{Health: observer.Healthy}

	// Two stalls then recovery: no restart.
	if w.Observe(flat) || w.Observe(flat) {
		t.Fatal("fired before threshold")
	}
	w.Observe(ok)
	if w.Observe(flat) || w.Observe(flat) {
		t.Fatal("counter not reset by healthy judgment")
	}
	// Third consecutive stall fires.
	if !w.Observe(flat) {
		t.Fatal("did not fire at threshold")
	}
	if fired != 1 || w.Restarts() != 1 {
		t.Fatalf("fired=%d restarts=%d", fired, w.Restarts())
	}
	// Still hung: fires again only after another full threshold.
	if w.Observe(flat) || w.Observe(flat) {
		t.Fatal("fired too soon after restart")
	}
	if !w.Observe(flat) {
		t.Fatal("did not fire on sustained hang")
	}
	if w.Restarts() != 2 {
		t.Fatalf("restarts = %d", w.Restarts())
	}
}

// Re-fire semantics under alternating judgments: a watchdog that has fired
// must re-arm from zero, count only consecutive bad judgments toward the
// next fire, and never fire while healthy judgments keep interleaving —
// however long the alternation runs.
func TestWatchdogRefireAlternating(t *testing.T) {
	flat := observer.Status{Health: observer.Flatlined}
	dead := observer.Status{Health: observer.Dead}
	ok := observer.Status{Health: observer.Healthy}
	slow := observer.Status{Health: observer.Slow}

	w := &observer.Watchdog{Threshold: 2}
	// Strict bad/good alternation never reaches the threshold.
	for i := 0; i < 100; i++ {
		if w.Observe(flat) {
			t.Fatalf("fired on alternation at %d", i)
		}
		good := ok
		if i%2 == 1 {
			good = slow // any non-flatlined, non-dead health resets
		}
		if w.Observe(good) {
			t.Fatalf("fired on healthy judgment at %d", i)
		}
	}
	if w.Restarts() != 0 {
		t.Fatalf("alternation accumulated %d restarts", w.Restarts())
	}

	// A sustained hang fires on every full threshold, mixing flatlined and
	// dead judgments: 10 bad judgments at threshold 2 = 5 fires.
	for i := 0; i < 10; i++ {
		bad := flat
		if i%2 == 1 {
			bad = dead
		}
		fired := w.Observe(bad)
		if want := i%2 == 1; fired != want {
			t.Fatalf("judgment %d: fired=%v, want %v", i, fired, want)
		}
	}
	if w.Restarts() != 5 {
		t.Fatalf("sustained hang fired %d times, want 5", w.Restarts())
	}

	// Recovery one judgment short of a re-fire discards the partial count.
	w.Observe(flat)
	w.Observe(ok)
	if w.Observe(flat) {
		t.Fatal("partial count survived a healthy judgment")
	}
	if !w.Observe(flat) {
		t.Fatal("did not re-fire after a fresh full threshold")
	}
}

func TestWatchdogCountsDeadToo(t *testing.T) {
	w := &observer.Watchdog{Threshold: 2}
	if w.Observe(observer.Status{Health: observer.Dead}) {
		t.Fatal("fired at 1")
	}
	if !w.Observe(observer.Status{Health: observer.Flatlined}) {
		t.Fatal("mixed dead/flatlined did not fire")
	}
}

// End-to-end: a worker that hangs is detected and "restarted" through the
// heartbeat alone.
func TestWatchdogEndToEnd(t *testing.T) {
	clk := sim.NewClock(time.Time{})
	hb, err := heartbeat.New(10, heartbeat.WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	hb.SetTarget(10, 100)
	classifier := &observer.Classifier{Clock: clk, FlatlineFactor: 5}
	stream, win := observer.HeartbeatStream(hb), observer.NewWindow(0)
	restarted := false
	dog := &observer.Watchdog{Threshold: 2, OnRestart: func(observer.Status) { restarted = true }}

	poll := func() bool {
		if _, err := observer.DrainInto(stream, win); err != nil {
			t.Fatal(err)
		}
		return dog.Observe(classifier.ClassifyWindow(win))
	}

	// Healthy operation: beat at 20/s, poll every 10 beats.
	for i := 0; i < 50; i++ {
		clk.Advance(50 * time.Millisecond)
		hb.Beat()
		if i%10 == 0 && poll() {
			t.Fatal("restart fired while healthy")
		}
	}
	// The application hangs; the observer keeps polling on its own clock.
	for i := 0; i < 5; i++ {
		clk.Advance(2 * time.Second)
		poll()
	}
	if !restarted {
		t.Fatal("hang not detected")
	}
}

func TestPhaseDetectorSegmentsFig2(t *testing.T) {
	d := &observer.PhaseDetector{RelThreshold: 0.25, MinSamples: 3}
	// Synthetic Figure 2: 13 beats/s, then 24, then 13, with small noise.
	rate := func(beat int) float64 {
		base := 13.0
		if beat >= 100 && beat < 330 {
			base = 24
		}
		if beat%2 == 0 {
			return base + 0.4
		}
		return base - 0.4
	}
	for beat := 1; beat <= 500; beat++ {
		d.Observe(uint64(beat), rate(beat))
	}
	phases := d.Phases()
	if len(phases) != 3 {
		t.Fatalf("detected %d phases, want 3: %+v", len(phases), phases)
	}
	if phases[0].MeanRate < 12 || phases[0].MeanRate > 14 {
		t.Errorf("phase 0 mean = %v", phases[0].MeanRate)
	}
	if phases[1].MeanRate < 23 || phases[1].MeanRate > 25 {
		t.Errorf("phase 1 mean = %v", phases[1].MeanRate)
	}
	if phases[2].MeanRate < 12 || phases[2].MeanRate > 14 {
		t.Errorf("phase 2 mean = %v", phases[2].MeanRate)
	}
	// Boundaries near the true transitions.
	if b := phases[1].StartBeat; b < 100 || b > 110 {
		t.Errorf("phase 1 starts at %d, want ~100", b)
	}
	if b := phases[2].StartBeat; b < 330 || b > 340 {
		t.Errorf("phase 2 starts at %d, want ~330", b)
	}
}

func TestPhaseDetectorIgnoresBlips(t *testing.T) {
	d := &observer.PhaseDetector{MinSamples: 3}
	for beat := 1; beat <= 100; beat++ {
		r := 10.0
		if beat == 50 || beat == 51 {
			r = 30 // two-beat blip, below MinSamples
		}
		d.Observe(uint64(beat), r)
	}
	if got := len(d.Phases()); got != 1 {
		t.Fatalf("blip split phases: %d", got)
	}
}

// The detector finds the three regions in the real Figure 2 series, not
// just an idealized one.
func TestPhaseDetectorOnRealFig2(t *testing.T) {
	r := experiments.Fig2(experiments.Options{EncoderFrames: 300})
	d := &observer.PhaseDetector{RelThreshold: 0.25, MinSamples: 8}
	for i, x := range r.Series.X {
		d.Observe(uint64(x), r.Series.Y[0][i])
	}
	// The 20-beat moving average ramps between regimes, so the detector
	// may report short transitional phases; the sustained phases (>=30
	// beats) must be exactly the paper's three, slow/fast/slow.
	var sustained []observer.Phase
	for _, p := range d.Phases() {
		if p.Beats >= 30 {
			sustained = append(sustained, p)
		}
	}
	if len(sustained) != 3 {
		t.Fatalf("sustained phases = %+v", sustained)
	}
	if sustained[1].MeanRate < 1.4*sustained[0].MeanRate {
		t.Errorf("middle phase %v not clearly faster than first %v", sustained[1].MeanRate, sustained[0].MeanRate)
	}
	if sustained[2].MeanRate > 1.2*sustained[0].MeanRate {
		t.Errorf("final phase %v did not return to the slow regime %v", sustained[2].MeanRate, sustained[0].MeanRate)
	}
}
