package hbshm

import (
	"context"
	"errors"
	"io"
	"path/filepath"
	"testing"
	"time"

	"repro/heartbeat"
	"repro/internal/hbring"
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

// A warmed writer publishes a batch without allocating: runs are encoded
// into one reused buffer and copied into the mapping.
func TestWriteRecordsWarmedDoesNotAllocate(t *testing.T) {
	w, err := Create(testRegion(t), 10, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	recs := make([]heartbeat.Record, 1024)
	var seq uint64
	next := func() {
		for i := range recs {
			seq++
			recs[i] = mkRecord(seq, int64(seq))
		}
		if err := w.WriteRecords(recs); err != nil {
			t.Fatal(err)
		}
	}
	next() // warm the encode buffer
	if allocs := testing.AllocsPerRun(100, next); allocs != 0 {
		t.Fatalf("warmed WriteRecords(1024) allocates %v times per call, want 0", allocs)
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

// tearingRegion stores a multi-record run the way a reader may catch it
// where a copy is not atomic per slot: everything lands except one middle
// record's sequence word, mid runs, and only then does that word land.
// During mid the slot holds the old lap's sequence number over the new
// lap's body, which no sequence check alone can see.
type tearingRegion struct {
	region
	mid func()
}

func (tr tearingRegion) WriteAt(p []byte, off int64) (int, error) {
	if len(p) < 3*hbring.RecordSize {
		return tr.region.WriteAt(p, off)
	}
	k := len(p) / hbring.RecordSize / 2 * hbring.RecordSize
	tr.region.WriteAt(p[:k], off)
	tr.region.WriteAt(p[k+8:], off+int64(k)+8)
	tr.mid()
	tr.region.WriteAt(p[k:k+8], off+int64(k))
	return len(p), nil
}

// With no lock word per slot, the reader's re-read of cursor and reserved
// head is what keeps a run in flight out of its result: every slot one lap
// below the run is distrusted, the torn one included.
func TestReaderDistrustsWholeInFlightRun(t *testing.T) {
	const capacity = 64
	path := testRegion(t)
	w, err := Create(path, 10, capacity)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	batch := func(from, to uint64) []heartbeat.Record {
		var recs []heartbeat.Record
		for seq := from; seq <= to; seq++ {
			recs = append(recs, mkRecord(seq, int64(seq)))
		}
		return recs
	}
	if err := w.WriteRecords(batch(1, 64)); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	reads := 0
	w.ring.Out = tearingRegion{region(w.mem), func() {
		reads++
		// Slots of 1..32 are being overwritten by 65..96; slot 16 holds
		// seq 17 over the body of 81.
		recs, cur, err := r.ReadSinceInto(0, 0, nil)
		if err != nil || cur != 64 || len(recs) != 32 || recs[0].Seq != 33 {
			t.Fatalf("mid-write read: %d records to cursor %d (err %v), want exactly 33..64", len(recs), cur, err)
		}
		for _, rec := range recs {
			if want := mkRecord(rec.Seq, int64(rec.Seq)); rec != want {
				t.Fatalf("mid-write read delivered %+v, want %+v", rec, want)
			}
		}
	}}
	if err := w.WriteRecords(batch(65, 96)); err != nil {
		t.Fatal(err)
	}
	if reads != 1 {
		t.Fatalf("run was stored in %d multi-record writes, want 1", reads)
	}
}

// pausingRegion lands a write that covers the word at pause only up to that
// word, runs mid, and then lands the rest.
type pausingRegion struct {
	region
	pause int64
	mid   func()
}

func (pr pausingRegion) WriteAt(p []byte, off int64) (int, error) {
	cut := pr.pause - off
	if cut <= 0 || cut >= int64(len(p)) {
		return pr.region.WriteAt(p, off)
	}
	pr.region.WriteAt(p[:cut], off)
	pr.mid()
	pr.region.WriteAt(p[cut:], pr.pause)
	return len(p), nil
}

// A late record is written in place, body first and sequence word last, so
// a reader that wants it and catches its slot half written passes it over:
// 1..8 and 10..12 in 8 slots, then 9 late over record 1, paused before its
// tag lands.
func TestLateRecordIsNeverReadHalfWritten(t *testing.T) {
	path := testRegion(t)
	w, err := Create(path, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	batch := func(from, to uint64) []heartbeat.Record {
		var recs []heartbeat.Record
		for seq := from; seq <= to; seq++ {
			recs = append(recs, mkRecord(seq, int64(seq)))
		}
		return recs
	}
	if err := w.WriteRecords(batch(1, 8)); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRecords(batch(10, 12)); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	read := func(want ...uint64) {
		t.Helper()
		recs, cur, err := r.ReadSinceInto(8, 0, nil)
		if err != nil || cur != 12 || len(recs) != len(want) {
			t.Fatalf("read %d records to cursor %d (err %v), want %v", len(recs), cur, err, want)
		}
		for i, rec := range recs {
			if rec != mkRecord(want[i], int64(want[i])) {
				t.Fatalf("read %+v, want record %d", rec, want[i])
			}
		}
	}
	paused := 0
	w.ring.Out = pausingRegion{region(w.mem), hbring.HeaderSize + 16, func() { // 9's tag word
		paused++
		read(10, 11, 12)
	}}
	if err := w.WriteRecords(batch(9, 9)); err != nil {
		t.Fatal(err)
	}
	if paused != 1 {
		t.Fatalf("the late record's tag word was written %d times mid-write, want 1", paused)
	}
	read(9, 10, 11, 12)
}
