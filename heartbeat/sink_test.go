package heartbeat_test

import (
	"errors"
	"testing"
	"time"

	"repro/heartbeat"
)

type recordingSink struct {
	records []heartbeat.Record
	targets [][2]float64
	err     error
	closed  bool
}

func (s *recordingSink) WriteRecord(r heartbeat.Record) error {
	if s.err != nil {
		return s.err
	}
	s.records = append(s.records, r)
	return nil
}

func (s *recordingSink) WriteTarget(min, max float64) error {
	if s.err != nil {
		return s.err
	}
	s.targets = append(s.targets, [2]float64{min, max})
	return nil
}

func (s *recordingSink) Close() error {
	s.closed = true
	return nil
}

func TestSinkReceivesRecordsAndTargets(t *testing.T) {
	sink := &recordingSink{}
	hb, clk := newTestHB(t, 5, heartbeat.WithSink(sink))
	if err := hb.SetTarget(3, 4); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Millisecond)
	hb.BeatTag(11)
	hb.Beat()
	if len(sink.records) != 2 {
		t.Fatalf("sink got %d records", len(sink.records))
	}
	if sink.records[0].Tag != 11 || sink.records[0].Seq != 1 || sink.records[1].Seq != 2 {
		t.Fatalf("sink records = %+v", sink.records)
	}
	if len(sink.targets) != 1 || sink.targets[0] != [2]float64{3, 4} {
		t.Fatalf("sink targets = %+v", sink.targets)
	}
	if err := hb.SinkErr(); err != nil {
		t.Fatal(err)
	}
}

func TestSinkErrorSurfacesWithoutBreakingBeats(t *testing.T) {
	boom := errors.New("disk full")
	sink := &recordingSink{err: boom}
	hb, _ := newTestHB(t, 5, heartbeat.WithSink(sink))
	hb.Beat()
	hb.Beat()
	if hb.Count() != 2 {
		t.Fatalf("in-memory beats lost: %d", hb.Count())
	}
	if err := hb.SinkErr(); !errors.Is(err, boom) {
		t.Fatalf("SinkErr = %v", err)
	}
	// Target write errors surface too.
	if err := hb.SetTarget(1, 2); err != nil {
		t.Fatal(err) // SetTarget itself succeeds; the sink error is async
	}
	if err := hb.SinkErr(); !errors.Is(err, boom) {
		t.Fatalf("SinkErr after target = %v", err)
	}
}

func TestCloseClosesSink(t *testing.T) {
	sink := &recordingSink{}
	hb, _ := newTestHB(t, 5, heartbeat.WithSink(sink))
	if err := hb.Close(); err != nil {
		t.Fatal(err)
	}
	if !sink.closed {
		t.Fatal("sink not closed")
	}
}

func TestSinkFunc(t *testing.T) {
	var got []int64
	hb, _ := newTestHB(t, 5, heartbeat.WithSink(heartbeat.SinkFunc(func(r heartbeat.Record) error {
		got = append(got, r.Tag)
		return nil
	})))
	hb.BeatTag(1)
	hb.BeatTag(2)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("SinkFunc got %v", got)
	}
}
