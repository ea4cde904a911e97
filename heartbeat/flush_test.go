package heartbeat_test

import (
	"testing"
	"time"

	"repro/heartbeat"
)

func sinkLen(s *collectSink) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.records)
}

// Per-thread global beats reach the sink on Flush even when nobody reads.
func TestFlushDeliversPendingShardRecords(t *testing.T) {
	sink := &collectSink{}
	hb, clk := newTestHB(t, 5, heartbeat.WithSink(sink))
	tr := hb.Thread("w")
	for i := 0; i < 3; i++ {
		clk.Advance(time.Millisecond)
		tr.GlobalBeatTag(int64(i + 1))
	}
	if n := sinkLen(sink); n != 0 {
		t.Fatalf("sink saw %d records before any flush", n)
	}
	hb.Flush()
	if n := sinkLen(sink); n != 3 {
		t.Fatalf("sink saw %d records after Flush, want 3", n)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for i, r := range sink.records {
		if r.Seq != uint64(i+1) || r.Tag != int64(i+1) || r.Producer != tr.ID() {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	if sink.batches == 0 {
		t.Fatal("flush did not use batch delivery")
	}
}

// The background flusher bounds sink latency with no reads and no backlog
// pressure.
func TestFlushIntervalDeliversWithoutReads(t *testing.T) {
	sink := &collectSink{}
	hb, err := heartbeat.New(5,
		heartbeat.WithSink(sink),
		heartbeat.WithFlushInterval(2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	tr := hb.Thread("w")
	for i := 0; i < 10; i++ {
		tr.GlobalBeat()
	}
	deadline := time.Now().Add(5 * time.Second)
	for sinkLen(sink) < 10 {
		if time.Now().After(deadline) {
			t.Fatalf("flusher delivered %d of 10 records", sinkLen(sink))
		}
		time.Sleep(time.Millisecond)
	}
	if err := hb.Close(); err != nil {
		t.Fatal(err)
	}
}

// Close flushes pending shard records before releasing the sink, so no beat
// registered before Close is ever lost.
func TestCloseFlushesPendingToSink(t *testing.T) {
	sink := &collectSink{}
	hb, clk := newTestHB(t, 5, heartbeat.WithSink(sink))
	tr := hb.Thread("w")
	clk.Advance(time.Millisecond)
	tr.GlobalBeatTag(42)
	if err := hb.Close(); err != nil {
		t.Fatal(err)
	}
	if n := sinkLen(sink); n != 1 {
		t.Fatalf("sink saw %d records after Close, want 1", n)
	}
}

// Direct beats and sharded beats interleave with ordered, dense sequence
// numbers at the sink: the direct beat merges the pending shard records
// first.
func TestDirectBeatMergesPendingFirst(t *testing.T) {
	sink := &collectSink{}
	hb, clk := newTestHB(t, 5, heartbeat.WithSink(sink))
	tr := hb.Thread("w")
	clk.Advance(time.Millisecond)
	tr.GlobalBeatTag(1)
	clk.Advance(time.Millisecond)
	hb.BeatTag(2) // must flush the pending shard beat before appending
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.records) != 2 {
		t.Fatalf("sink saw %d records, want 2", len(sink.records))
	}
	if sink.records[0].Tag != 1 || sink.records[0].Seq != 1 || sink.records[0].Producer != tr.ID() {
		t.Fatalf("first sink record = %+v", sink.records[0])
	}
	if sink.records[1].Tag != 2 || sink.records[1].Seq != 2 || sink.records[1].Producer != 0 {
		t.Fatalf("second sink record = %+v", sink.records[1])
	}
}
