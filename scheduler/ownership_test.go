package scheduler_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/control"
	"repro/heartbeat"
	"repro/observer"
	"repro/scheduler"
	"repro/sim"
)

// tallyStream wraps a stream, counting the records it delivers and the
// times it is closed; fail, when set, replaces every Next's outcome.
type tallyStream struct {
	observer.Stream
	records, closes int
	fail            error
}

func (s *tallyStream) Next(ctx context.Context) (observer.Batch, error) {
	if s.fail != nil {
		return observer.Batch{}, s.fail
	}
	b, err := s.Stream.Next(ctx)
	s.records += len(b.Records)
	return b, err
}

func (s *tallyStream) Close() error {
	s.closes++
	return nil
}

// consumers builds one of each controller over the given stream.
func consumers(t *testing.T) map[string]func(observer.Stream) (step func() error, close func() error) {
	t.Helper()
	m := sim.NewMachine(sim.NewClock(time.Time{}), 8, 1e6)
	return map[string]func(observer.Stream) (func() error, func() error){
		"CoreScheduler": func(st observer.Stream) (func() error, func() error) {
			s, err := scheduler.New(st, m, scheduler.StepperPolicy{Stepper: &control.Stepper{TargetMin: 1, TargetMax: 2}})
			if err != nil {
				t.Fatal(err)
			}
			return func() error { _, err := s.Step(); return err }, s.Close
		},
		"DVFSGovernor": func(st observer.Stream) (func() error, func() error) {
			g, err := scheduler.NewDVFSGovernor(st, m)
			if err != nil {
				t.Fatal(err)
			}
			return func() error { _, err := g.Step(); return err }, g.Close
		},
		"Partitioner": func(st observer.Stream) (func() error, func() error) {
			p, err := scheduler.NewPartitioner(4, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Add("app", st, func(n int) int { return n }, 1); err != nil {
				t.Fatal(err)
			}
			return func() error { _, err := p.Step(); return err }, p.Close
		},
	}
}

// One ownership rule: the controller a stream was handed to closes it, once.
func TestCloseReleasesStreamOnce(t *testing.T) {
	for name, mk := range consumers(t) {
		hb, _ := heartbeat.New(10)
		st := &tallyStream{Stream: observer.HeartbeatStream(hb)}
		step, closeIt := mk(st)
		if err := step(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.closes != 0 {
			t.Fatalf("%s closed its stream before Close", name)
		}
		closeIt()
		closeIt()
		if st.closes != 1 {
			t.Fatalf("%s closed its stream %d times, want 1", name, st.closes)
		}
	}
}

func TestStepSurfacesStreamError(t *testing.T) {
	boom := errors.New("stream unavailable")
	for name, mk := range consumers(t) {
		step, _ := mk(&tallyStream{fail: boom})
		if err := step(); !errors.Is(err, boom) {
			t.Fatalf("%s: Step error = %v, want the stream's", name, err)
		}
	}
}
