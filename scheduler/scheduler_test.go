package scheduler_test

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"repro/clock"
	"repro/control"
	"repro/hbfile"
	"repro/heartbeat"
	"repro/observer"
	"repro/scheduler"
	"repro/sim"
)

// watch registers each named stream with a fresh hub judging over window
// beats (0: each application's default); the test's cleanup removes them,
// releasing the streams.
func watch(t testing.TB, window int, streams map[string]observer.Stream) *observer.Hub {
	t.Helper()
	hub := observer.NewHub(0, nil, observer.WithHubClassifier(func(string) *observer.Classifier {
		return &observer.Classifier{Window: window}
	}))
	for name, st := range streams {
		if err := hub.Add(name, st); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { hub.Remove(name) })
	}
	return hub
}

// runApp simulates an instrumented application: each beat costs work ops,
// executed on the machine; the scheduler steps on the hub's judgment once
// every window beats.
func runApp(t *testing.T, hb *heartbeat.Heartbeat, m *sim.Machine, sched *scheduler.CoreScheduler,
	hub *observer.Hub, beats int, window int, cost func(beat int) sim.Work) []scheduler.Sample {
	t.Helper()
	var samples []scheduler.Sample
	for b := 1; b <= beats; b++ {
		m.Execute(cost(b))
		hb.Beat()
		if b%window == 0 {
			samples = append(samples, sched.Step(hub.Step()[0].Status))
		}
	}
	return samples
}

func newSim(t *testing.T, window int) (*heartbeat.Heartbeat, *sim.Machine) {
	t.Helper()
	clk := clock.NewVirtual()
	m := sim.NewMachine(clk, 8, 1e6) // 1M ops/s per core
	hb, err := heartbeat.New(window, heartbeat.WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	return hb, m
}

func TestNewValidation(t *testing.T) {
	_, m := newSim(t, 10)
	pol := scheduler.StepperPolicy{Stepper: &control.Stepper{TargetMin: 1, TargetMax: 2}}
	if _, err := scheduler.New(nil, pol); err == nil {
		t.Fatal("nil machine accepted")
	}
	if _, err := scheduler.New(m, nil); err == nil {
		t.Fatal("nil policy accepted")
	}
}

// The scheduler must ramp cores up until the rate enters the target window
// and keep it there — the shape of the paper's Figures 5-7.
func TestStepperSchedulerReachesWindow(t *testing.T) {
	const window = 10
	hb, m := newSim(t, window)
	// Work sized so 1 core gives 2 beats/s and 8 cores ~13.1 beats/s
	// (p = 0.95); target 8-10 beats/s needs ~4-5 cores.
	work := func(int) sim.Work { return sim.Work{Ops: 0.5e6, ParallelFrac: 0.95} }
	hb.SetTarget(8, 10)
	m.SetCores(1)
	sched, err := scheduler.New(m, scheduler.StepperPolicy{Stepper: &control.Stepper{TargetMin: 8, TargetMax: 10}})
	if err != nil {
		t.Fatal(err)
	}
	hub := watch(t, 0, map[string]observer.Stream{"app": observer.HeartbeatStream(hb)})
	samples := runApp(t, hb, m, sched, hub, 400, window, work)

	// Once in the window, it must stay (deterministic plant).
	entered := -1
	for i, s := range samples {
		if s.RateOK && s.Rate >= 8 && s.Rate <= 10 {
			entered = i
			break
		}
	}
	if entered == -1 {
		t.Fatalf("never entered target window; last=%+v", samples[len(samples)-1])
	}
	for _, s := range samples[entered+1:] {
		if s.Rate < 7.5 || s.Rate > 10.5 {
			t.Fatalf("left window after entering: %+v", s)
		}
	}
	final := samples[len(samples)-1]
	if final.Cores < 4 || final.Cores > 5 {
		t.Fatalf("final cores = %d, want 4-5", final.Cores)
	}
}

// When the computational load drops, the scheduler must reclaim cores while
// holding the window (Figure 5's second half).
func TestSchedulerReclaimsCoresOnLoadDrop(t *testing.T) {
	const window = 10
	hb, m := newSim(t, window)
	hb.SetTarget(8, 10)
	m.SetCores(1)
	sched, err := scheduler.New(m, scheduler.StepperPolicy{Stepper: &control.Stepper{TargetMin: 8, TargetMax: 10}})
	if err != nil {
		t.Fatal(err)
	}
	hub := watch(t, 0, map[string]observer.Stream{"app": observer.HeartbeatStream(hb)})
	work := func(beat int) sim.Work {
		if beat <= 300 {
			return sim.Work{Ops: 0.5e6, ParallelFrac: 0.95}
		}
		return sim.Work{Ops: 0.1e6, ParallelFrac: 0.95} // 5x lighter
	}
	samples := runApp(t, hb, m, sched, hub, 700, window, work)

	heavyCores := 0
	for _, s := range samples {
		if s.Beat == 300 {
			heavyCores = s.Cores
		}
	}
	final := samples[len(samples)-1]
	if final.Cores >= heavyCores {
		t.Fatalf("cores not reclaimed: heavy=%d final=%d", heavyCores, final.Cores)
	}
	if final.Cores != 1 {
		t.Fatalf("final cores = %d, want 1 (light load achieves target on one core)", final.Cores)
	}
	if final.Rate < 8 {
		t.Fatalf("final rate = %v below target", final.Rate)
	}
}

// The PI policy must also settle the plant into the target region.
func TestPIPolicyScheduler(t *testing.T) {
	const window = 10
	hb, m := newSim(t, window)
	hb.SetTarget(8, 10)
	m.SetCores(1)
	pi := &control.PI{Kp: 0.15, Ki: 0.4, Setpoint: 9, MinOutput: 1, MaxOutput: 8}
	sched, err := scheduler.New(m, scheduler.PIPolicy{PI: pi, Dt: 1})
	if err != nil {
		t.Fatal(err)
	}
	hub := watch(t, 0, map[string]observer.Stream{"app": observer.HeartbeatStream(hb)})
	work := func(int) sim.Work { return sim.Work{Ops: 0.5e6, ParallelFrac: 0.95} }
	samples := runApp(t, hb, m, sched, hub, 600, window, work)
	final := samples[len(samples)-1]
	if !final.RateOK || final.Rate < 7 || final.Rate > 11 {
		t.Fatalf("PI failed to settle: %+v", final)
	}
}

// Cross-process shape: schedule from an hbfile written by the application.
func TestSchedulerOverFileSource(t *testing.T) {
	const window = 10
	path := filepath.Join(t.TempDir(), "app.hb")
	w, err := hbfile.Create(path, window, 256)
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewVirtual()
	m := sim.NewMachine(clk, 8, 1e6)
	hb, err := heartbeat.New(window, heartbeat.WithClock(clk), heartbeat.WithSink(w))
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Close()
	hb.SetTarget(8, 10)
	m.SetCores(1)

	r, err := hbfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sched, err := scheduler.New(m, scheduler.StepperPolicy{Stepper: &control.Stepper{TargetMin: 8, TargetMax: 10}})
	if err != nil {
		t.Fatal(err)
	}
	hub := watch(t, window, map[string]observer.Stream{"app": observer.ReaderStream(r, 0, 0, nil)})
	samples := runApp(t, hb, m, sched, hub, 400, window, func(int) sim.Work {
		return sim.Work{Ops: 0.5e6, ParallelFrac: 0.95}
	})
	final := samples[len(samples)-1]
	if !final.RateOK || final.Rate < 8 || final.Rate > 10 {
		t.Fatalf("file-driven scheduler failed: %+v", final)
	}
	if err := hb.SinkErr(); err != nil {
		t.Fatal(err)
	}
}

// A running hub drives Step from its wall-clock ticks and stops on
// cancellation.
func TestRunLoop(t *testing.T) {
	hb, m := newSim(t, 10)
	hb.SetTarget(1, 2)
	sched, err := scheduler.New(m, scheduler.StepperPolicy{Stepper: &control.Stepper{TargetMin: 1, TargetMax: 2}})
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan scheduler.Sample, 1)
	hub := observer.NewHub(time.Millisecond, func(_ string, st observer.Status) {
		select {
		case got <- sched.Step(st):
		default:
		}
	})
	if err := hub.Add("app", observer.HeartbeatStream(hb)); err != nil {
		t.Fatal(err)
	}
	defer hub.Remove("app")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		hub.Run(ctx)
		close(done)
	}()
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("Run produced no samples")
	}
	cancel()
	<-done
}
