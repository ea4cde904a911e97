package scheduler_test

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"repro/clock"
	"repro/hbfile"
	"repro/heartbeat"
	"repro/observer"
	"repro/scheduler"
	"repro/sim"
)

func TestDVFSGovernorValidation(t *testing.T) {
	if _, err := scheduler.NewDVFSGovernor(nil); err == nil {
		t.Fatal("nil machine accepted")
	}
}

// The governor must settle at the lowest frequency step that meets the
// target, and track a load increase back up.
func TestDVFSGovernorSettlesAtMinimumFrequency(t *testing.T) {
	const window = 10
	clk := clock.NewVirtual()
	m := sim.NewMachine(clk, 8, 1e9)
	hb, err := heartbeat.New(window, heartbeat.WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	hb.SetTarget(29, 33)
	gov, err := scheduler.NewDVFSGovernor(m)
	if err != nil {
		t.Fatal(err)
	}
	hub := watch(t, window, map[string]observer.Stream{"app": observer.HeartbeatStream(hb)})
	// Work sized so f=0.5 gives ~32.5 beats/s: the governor should land
	// there from full frequency (saving power) and return there after a
	// heavy interlude.
	light := sim.Work{Ops: 0.0912e9, ParallelFrac: 0.95}
	heavy := sim.Work{Ops: 0.188e9, ParallelFrac: 0.95}
	run := func(w sim.Work, beats int) {
		for b := 1; b <= beats; b++ {
			m.Execute(w)
			hb.Beat()
			if b%window == 0 {
				gov.Step(hub.Step()[0].Status)
			}
		}
	}
	run(light, 200)
	if f := m.Frequency(); f != 0.5 {
		t.Fatalf("light-phase frequency = %v, want 0.5", f)
	}
	rate, ok := hb.Rate(0)
	if !ok || rate < 29 || rate > 33 {
		t.Fatalf("light-phase rate = %v, want in window", rate)
	}
	run(heavy, 200)
	if f := m.Frequency(); f != 1.0 {
		t.Fatalf("heavy-phase frequency = %v, want 1.0", f)
	}
	run(light, 200)
	if f := m.Frequency(); f != 0.5 {
		t.Fatalf("frequency after load drop = %v, want 0.5", f)
	}
}

func TestDVFSGovernorHoldsWithoutMeasurement(t *testing.T) {
	clk := clock.NewVirtual()
	m := sim.NewMachine(clk, 8, 1e6)
	hb, _ := heartbeat.New(10, heartbeat.WithClock(clk))
	hb.SetTarget(10, 20)
	gov, err := scheduler.NewDVFSGovernor(m)
	if err != nil {
		t.Fatal(err)
	}
	hub := watch(t, 0, map[string]observer.Stream{"app": observer.HeartbeatStream(hb)})
	before := m.Frequency()
	s := gov.Step(hub.Step()[0].Status) // no beats yet
	if s.RateOK || m.Frequency() != before {
		t.Fatalf("governor acted without measurement: %+v, freq %v", s, m.Frequency())
	}
}

// tallyStream wraps a stream, counting the records it delivers.
type tallyStream struct {
	observer.Stream
	records int
}

func (s *tallyStream) Next(ctx context.Context) (observer.Batch, error) {
	b, err := s.Stream.Next(ctx)
	s.records += len(b.Records)
	return b, err
}

// A decision point at which the application published nothing reads
// nothing: the hub the governor decides from observes incrementally.
func TestGovernorIdleStepReadsNothing(t *testing.T) {
	clk := clock.NewVirtual()
	m := sim.NewMachine(clk, 8, 1e6)
	hb, _ := heartbeat.New(10, heartbeat.WithClock(clk))
	hb.SetTarget(5, 15)
	st := &tallyStream{Stream: observer.HeartbeatStream(hb)}
	gov, err := scheduler.NewDVFSGovernor(m)
	if err != nil {
		t.Fatal(err)
	}
	hub := watch(t, 0, map[string]observer.Stream{"app": st})
	for i := 0; i < 10; i++ {
		clk.Advance(100 * time.Millisecond)
		hb.Beat()
	}
	busy := gov.Step(hub.Step()[0].Status)
	if !busy.RateOK || st.records != 10 {
		t.Fatalf("first step = %+v after absorbing %d records; want a rate from all 10", busy, st.records)
	}
	idle := gov.Step(hub.Step()[0].Status)
	if st.records != 10 {
		t.Fatalf("idle step absorbed %d records, want 0", st.records-10)
	}
	if idle != busy {
		t.Fatalf("idle step decided differently: %+v, then %+v", busy, idle)
	}
}

// The governor across a process boundary: it reads only the heartbeat file.
func TestGovernorOverFile(t *testing.T) {
	const window = 10
	path := filepath.Join(t.TempDir(), "gov.hb")
	w, err := hbfile.Create(path, window, 64)
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewVirtual()
	m := sim.NewMachine(clk, 8, 1e9)
	hb, err := heartbeat.New(window, heartbeat.WithClock(clk), heartbeat.WithSink(w))
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Close()
	hb.SetTarget(29, 33)

	r, err := hbfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	gov, err := scheduler.NewDVFSGovernor(m)
	if err != nil {
		t.Fatal(err)
	}
	hub := watch(t, window, map[string]observer.Stream{"app": observer.ReaderStream(r, 0, 0, nil)})
	var last scheduler.GovernorSample
	for b := 1; b <= 200; b++ {
		m.Execute(sim.Work{Ops: 0.0912e9, ParallelFrac: 0.95}) // ~32.5 beats/s at f=0.5
		hb.Beat()
		if b%window == 0 {
			last = gov.Step(hub.Step()[0].Status)
		}
	}
	if m.Frequency() != 0.5 || last.Beat != 200 || last.Rate < 29 || last.Rate > 33 {
		t.Fatalf("file-driven governor ended at f=%v, %+v; want 0.5 and the rate in [29, 33]", m.Frequency(), last)
	}
	if err := hb.SinkErr(); err != nil {
		t.Fatal(err)
	}
}
