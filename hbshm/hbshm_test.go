package hbshm

import (
	"context"
	"errors"
	"io"
	"path/filepath"
	"testing"
	"time"

	"repro/heartbeat"
)

func testRegion(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "hb.shm")
}

func mkRecord(seq uint64, nanos int64) heartbeat.Record {
	return heartbeat.Record{Seq: seq, Time: time.Unix(0, nanos), Tag: int64(seq) * 10, Producer: int32(seq % 7)}
}

func TestRoundTrip(t *testing.T) {
	path := testRegion(t)
	w, err := Create(path, 20, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var recs []heartbeat.Record
	for seq := uint64(1); seq <= 10; seq++ {
		recs = append(recs, mkRecord(seq, int64(seq)*1e6))
	}
	if err := w.WriteRecords(recs); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Window() != 20 || r.Capacity() != 64 {
		t.Fatalf("window/capacity = %d/%d, want 20/64", r.Window(), r.Capacity())
	}
	if h := r.Head(); h != 10 {
		t.Fatalf("head = %d, want 10", h)
	}
	got, cur, err := r.ReadSinceInto(0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cur != 10 || len(got) != 10 {
		t.Fatalf("ReadSince(0) = %d records, cursor %d; want 10, 10", len(got), cur)
	}
	for i, rec := range got {
		want := recs[i]
		if rec.Seq != want.Seq || !rec.Time.Equal(want.Time) || rec.Tag != want.Tag || rec.Producer != want.Producer {
			t.Fatalf("record %d = %+v, want %+v", i, rec, want)
		}
	}
	// Incremental: nothing new after the cursor.
	got, cur, err = r.ReadSinceInto(cur, 0, nil)
	if err != nil || len(got) != 0 || cur != 10 {
		t.Fatalf("ReadSince(10) = %d records, cursor %d, err %v; want 0, 10, nil", len(got), cur, err)
	}
}

func TestTargetSeqlock(t *testing.T) {
	path := testRegion(t)
	w, err := Create(path, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, _, ok, err := r.Target(); err != nil || ok {
		t.Fatalf("target before publish: ok=%v err=%v, want unset", ok, err)
	}
	if err := w.WriteTarget(2.5, 7.5); err != nil {
		t.Fatal(err)
	}
	min, max, ok, err := r.Target()
	if err != nil || !ok || min != 2.5 || max != 7.5 {
		t.Fatalf("target = %v..%v ok=%v err=%v, want 2.5..7.5", min, max, ok, err)
	}
}

func TestLappedRecordsCountAsMissed(t *testing.T) {
	path := testRegion(t)
	w, err := Create(path, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// 20 records through a ring of 8: the first 12 are lapped.
	for seq := uint64(1); seq <= 20; seq++ {
		if err := w.WriteRecord(mkRecord(seq, int64(seq))); err != nil {
			t.Fatal(err)
		}
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, cur, err := r.ReadSinceInto(0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cur != 20 || len(got) != 8 {
		t.Fatalf("ReadSince(0) = %d records, cursor %d; want 8 records, cursor 20", len(got), cur)
	}
	if got[0].Seq != 13 || got[7].Seq != 20 {
		t.Fatalf("retained range = %d..%d, want 13..20", got[0].Seq, got[7].Seq)
	}
	// Loss surfaces as cursor-since exceeding len(records): 20-0-8 = 12.
	if missed := cur - 0 - uint64(len(got)); missed != 12 {
		t.Fatalf("missed = %d, want 12", missed)
	}
}

func TestReadSincePagesWithMax(t *testing.T) {
	path := testRegion(t)
	w, err := Create(path, 10, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for seq := uint64(1); seq <= 10; seq++ {
		if err := w.WriteRecord(mkRecord(seq, int64(seq))); err != nil {
			t.Fatal(err)
		}
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var all []heartbeat.Record
	cur := uint64(0)
	for i := 0; i < 5; i++ {
		recs, c, err := r.ReadSinceInto(cur, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, recs...)
		cur = c
		if cur == 10 {
			break
		}
	}
	if len(all) != 10 || cur != 10 {
		t.Fatalf("paged read = %d records, cursor %d; want 10, 10", len(all), cur)
	}
}

func TestClosedRegionDrainsThenEOF(t *testing.T) {
	path := testRegion(t)
	w, err := Create(path, 10, 16)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 5; seq++ {
		if err := w.WriteRecord(mkRecord(seq, int64(seq))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Published records drain first, then EOF.
	recs, cur, err := r.ReadSinceInto(0, 0, nil)
	if err != nil || len(recs) != 5 || cur != 5 {
		t.Fatalf("drain = %d records, cursor %d, err %v; want 5, 5, nil", len(recs), cur, err)
	}
	if _, _, err := r.ReadSinceInto(cur, 0, nil); !errors.Is(err, io.EOF) {
		t.Fatalf("after drain err = %v, want io.EOF", err)
	}
}

func TestStreamDeliversAndEnds(t *testing.T) {
	path := testRegion(t)
	w, err := Create(path, 10, 16)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 12; seq++ {
		if err := w.WriteRecord(mkRecord(seq, int64(seq))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.WriteTarget(1, 9); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s := StreamFrom(r, time.Millisecond, 0, nil)
	defer s.Close()
	b, err := s.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Records) != 12 || b.Count != 12 || b.Missed != 0 {
		t.Fatalf("batch = %d records, count %d, missed %d; want 12, 12, 0", len(b.Records), b.Count, b.Missed)
	}
	if !b.TargetSet || b.TargetMin != 1 || b.TargetMax != 9 {
		t.Fatalf("target = %v..%v set=%v, want 1..9 set", b.TargetMin, b.TargetMax, b.TargetSet)
	}
	s.Recycle(b)
	w.Close()
	if _, err := s.Next(context.Background()); !errors.Is(err, io.EOF) {
		t.Fatalf("after close err = %v, want io.EOF", err)
	}
}

func TestStreamResyncsOnRecreatedRegion(t *testing.T) {
	path := testRegion(t)
	w, err := Create(path, 10, 16)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 9; seq++ {
		w.WriteRecord(mkRecord(seq, int64(seq)))
	}
	w.Close()
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// A cursor from a previous, longer life of the producer: the stream
	// must resynchronize from the start instead of stalling forever.
	s := StreamFrom(r, time.Millisecond, 100, nil)
	defer s.Close()
	b, err := s.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Records) != 9 || b.Records[0].Seq != 1 {
		t.Fatalf("resync batch = %d records from seq %d; want 9 from 1", len(b.Records), b.Records[0].Seq)
	}
}

// TestExportBridgesHeartbeat runs the batched bridge: a heartbeat with an
// untouched hot path, Export copying it into the region, target range and
// every record (or accounted loss) arriving on the reading side, EOF after
// the heartbeat closes.
func TestExportBridgesHeartbeat(t *testing.T) {
	path := testRegion(t)
	w, err := Create(path, 20, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := heartbeat.New(20, heartbeat.WithCapacity(1<<12))
	if err != nil {
		t.Fatal(err)
	}
	if err := hb.SetTarget(5, 50); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- Export(context.Background(), hb, w) }()
	const beats = 20000
	for i := 0; i < beats; i++ {
		hb.Beat()
	}
	hb.Flush()
	hb.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if min, max, ok, err := r.Target(); err != nil || !ok || min != 5 || max != 50 {
		t.Fatalf("target = %v..%v ok=%v err=%v, want 5..50", min, max, ok, err)
	}
	s := StreamFrom(r, time.Millisecond, 0, nil)
	defer s.Close()
	var delivered, missed, head uint64
	for {
		b, err := s.Next(context.Background())
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		delivered += uint64(len(b.Records))
		missed += b.Missed
		head = b.Count
		s.Recycle(b)
	}
	if delivered+missed != beats || head != beats {
		t.Fatalf("delivered %d + missed %d, head %d; want them to account for %d beats", delivered, missed, head, beats)
	}
}

// TestLiveSinkThroughHeartbeat runs the real pipeline: an instrumented
// Heartbeat publishing through WithSink into the shared region, a
// concurrent reader streaming it back, conservation checked at the end.
func TestLiveSinkThroughHeartbeat(t *testing.T) {
	path := testRegion(t)
	w, err := Create(path, 20, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := heartbeat.New(20, heartbeat.WithCapacity(1<<12), heartbeat.WithSink(w))
	if err != nil {
		t.Fatal(err)
	}
	const beats = 5000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < beats; i++ {
			hb.Beat()
		}
		hb.Flush()
		hb.Close()
		w.Close()
	}()
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s := StreamFrom(r, time.Millisecond, 0, nil)
	defer s.Close()
	var delivered, missed uint64
	var head uint64
	for {
		b, err := s.Next(context.Background())
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		delivered += uint64(len(b.Records))
		missed += b.Missed
		if b.Count > head {
			head = b.Count
		}
		s.Recycle(b)
	}
	<-done
	if delivered+missed != beats {
		t.Fatalf("delivered %d + missed %d != %d beats", delivered, missed, beats)
	}
	if head != beats {
		t.Fatalf("final count %d, want %d", head, beats)
	}
}
