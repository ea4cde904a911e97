package hbfile

import (
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/heartbeat"
)

// The writers' run cap and the reserved head's header offset (see the
// package documentation).
const (
	maxRun      = 1024
	offReserved = 64
)

// countingWriterAt is the test double behind the writers' out seam: it
// counts positional writes, optionally failing the ones fail selects.
type countingWriterAt struct {
	w     io.WriterAt
	calls int
	fail  func(off int64, n int) bool
}

var errInjected = errors.New("injected write failure")

func (c *countingWriterAt) WriteAt(p []byte, off int64) (int, error) {
	c.calls++
	if c.fail != nil && c.fail(off, len(p)) {
		return 0, errInjected
	}
	return c.w.WriteAt(p, off)
}

// seqRecords returns records from..to with tag = seq.
func seqRecords(from, to uint64) []heartbeat.Record {
	recs := make([]heartbeat.Record, 0, to-from+1)
	for seq := from; seq <= to; seq++ {
		recs = append(recs, heartbeat.Record{Seq: seq, Time: time.Unix(0, int64(seq)), Tag: int64(seq)})
	}
	return recs
}

func createCounted(t *testing.T, capacity int) (*Writer, *countingWriterAt, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seg.hb")
	w, err := Create(path, 10, capacity)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	c := &countingWriterAt{w: w.f}
	w.ring.Out = c
	return w, c, path
}

// readAll opens path and returns everything ReadSince(0) delivers, checking
// that each record carries the tag its sequence number implies.
func readAll(t *testing.T, path string) ([]heartbeat.Record, uint64) {
	t.Helper()
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	recs, cur, err := r.ReadSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Tag != int64(rec.Seq) || rec.Time.UnixNano() != int64(rec.Seq) {
			t.Fatalf("record %+v does not match its sequence number", rec)
		}
	}
	return recs, cur
}

// The count the change exists for: positional writes per call, repeatable
// exactly.
func TestWriteCallsPerSegment(t *testing.T) {
	w, c, path := createCounted(t, 4096)

	// In-order single record: record + cursor, no reserved-head write.
	if err := w.WriteRecord(seqRecords(1, 1)[0]); err != nil {
		t.Fatal(err)
	}
	if c.calls != 2 {
		t.Fatalf("in-order WriteRecord made %d writes, want exactly 2", c.calls)
	}

	// In-order 1024-record batch: reserved head + one run + cursor.
	c.calls = 0
	if err := w.WriteRecords(seqRecords(2, 1025)); err != nil {
		t.Fatal(err)
	}
	if c.calls != 3 {
		t.Fatalf("in-order 1024-record batch made %d writes, want 3 (bound 4)", c.calls)
	}

	// A batch crossing the ring's last slot splits there: two runs.
	if err := w.WriteRecords(seqRecords(1026, 3584)); err != nil {
		t.Fatal(err)
	}
	c.calls = 0
	if err := w.WriteRecords(seqRecords(3585, 4608)); err != nil { // slots 3584..4095, 0..511
		t.Fatal(err)
	}
	if c.calls != 4 {
		t.Fatalf("wrapping 1024-record batch made %d writes, want 4 (bound 5)", c.calls)
	}

	recs, cur := readAll(t, path)
	if cur != 4608 || len(recs) == 0 || recs[len(recs)-1].Seq != 4608 {
		t.Fatalf("read back %d records to cursor %d", len(recs), cur)
	}
	// 4096 slots hold 513..4608; the slot one lap below cursor+1 is suspect.
	if uint64(len(recs)) != 4095 || recs[0].Seq != 514 {
		t.Fatalf("read back %d records from %d, want 4095 from 514", len(recs), recs[0].Seq)
	}
}

func TestLogWriteCallsPerBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.hblog")
	w, err := CreateLog(path, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	c := &countingWriterAt{w: w.f}
	w.ring.Out = c
	if err := w.WriteRecords(seqRecords(1, 1024)); err != nil {
		t.Fatal(err)
	}
	if c.calls != 2 {
		t.Fatalf("1024-record log flush made %d writes, want exactly 2", c.calls)
	}
	c.calls = 0
	if err := w.WriteRecord(seqRecords(1025, 1025)[0]); err != nil {
		t.Fatal(err)
	}
	if c.calls != 2 {
		t.Fatalf("log WriteRecord made %d writes, want exactly 2", c.calls)
	}
	// A failed append is reported, loses only its own records, and leaves
	// no hole: the next chunk lands where the failed one would have.
	failed := false
	c.fail = func(off int64, n int) bool {
		first := !failed
		failed = true
		return first
	}
	if err := w.WriteRecords(seqRecords(1026, 1026+2*maxRun-1)); !errors.Is(err, errInjected) {
		t.Fatalf("failed append reported %v", err)
	}
	c.fail = nil
	r, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	recs, cur, err := r.ReadSinceInto(0, 0, nil)
	if err != nil || cur != 1025+maxRun || uint64(len(recs)) != cur {
		t.Fatalf("log holds %d records to cursor %d, err %v", len(recs), cur, err)
	}
	if last := recs[len(recs)-1].Seq; last != 1026+2*maxRun-1 {
		t.Fatalf("last appended seq = %d, want the second chunk's", last)
	}
}

func TestWriteRecordsWarmedDoesNotAllocate(t *testing.T) {
	w, _, _ := createCounted(t, 1<<16)
	recs := seqRecords(1, 1024)
	next := func() {
		if err := w.WriteRecords(recs); err != nil {
			t.Fatal(err)
		}
		for i := range recs {
			recs[i].Seq += 1024
		}
	}
	next() // warm the encode buffer
	if allocs := testing.AllocsPerRun(100, next); allocs != 0 {
		t.Fatalf("warmed WriteRecords(1024) allocates %v times per call, want 0", allocs)
	}
}

// Out-of-order and gapped batches still land; the reserved head is the
// batch's highest sequence number, not its last.
func TestWriteRecordsOutOfOrderAndGapped(t *testing.T) {
	w, c, path := createCounted(t, 64)
	batch := append(seqRecords(5, 8), seqRecords(1, 2)...) // 3 and 4 never arrive
	batch = append(batch, seqRecords(20, 21)...)
	batch = append(batch, seqRecords(10, 10)...)
	if err := w.WriteRecords(batch); err != nil {
		t.Fatal(err)
	}
	if c.calls != 6 { // reserved head, four runs, cursor
		t.Fatalf("made %d writes, want 6", c.calls)
	}
	if res := readWord(t, path, offReserved); w.Cursor() != 21 || res != 21 {
		t.Fatalf("cursor %d reserved %d, want 21 21", w.Cursor(), res)
	}
	recs, cur := readAll(t, path)
	var got []uint64
	for _, r := range recs {
		got = append(got, r.Seq)
	}
	want := []uint64{1, 2, 5, 6, 7, 8, 10, 20, 21}
	if cur != 21 || len(got) != len(want) {
		t.Fatalf("read back %v to cursor %d, want %v", got, cur, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("read back %v, want %v", got, want)
		}
	}
	// A late arrival behind the cursor is two slot writes, body then
	// sequence word, and nothing else.
	c.calls = 0
	if err := w.WriteRecord(seqRecords(3, 3)[0]); err != nil {
		t.Fatal(err)
	}
	if c.calls != 2 || w.Cursor() != 21 {
		t.Fatalf("late record made %d writes, cursor %d", c.calls, w.Cursor())
	}
	// A single record ahead of cursor+1 (concurrent direct beats reaching
	// the sink out of order) lands on a slot the one-slot guard does not
	// cover, so it is reserved first.
	c.calls = 0
	if err := w.WriteRecord(seqRecords(30, 30)[0]); err != nil {
		t.Fatal(err)
	}
	if res := readWord(t, path, offReserved); c.calls != 3 || w.Cursor() != 30 || res != 30 {
		t.Fatalf("record ahead of cursor+1 made %d writes, cursor %d, reserved %d; want 3, 30, 30", c.calls, w.Cursor(), res)
	}
}

// An I/O error on one run is reported, skips that run's cursor advance and
// does not stop later runs.
func TestWriteRecordsRunFailureKeepsLaterRuns(t *testing.T) {
	w, c, path := createCounted(t, 64)
	if err := w.WriteRecords(seqRecords(1, 10)); err != nil {
		t.Fatal(err)
	}
	// Runs: 11..20, 31..40 (fails), 22..25.
	batch := append(seqRecords(11, 20), seqRecords(31, 40)...)
	batch = append(batch, seqRecords(22, 25)...)
	c.fail = func(off int64, n int) bool { return off == HeaderSize+30*RecordSize } // 31's slot
	err := w.WriteRecords(batch)
	if !errors.Is(err, errInjected) {
		t.Fatalf("failed run reported %v", err)
	}
	if w.Cursor() != 25 {
		t.Fatalf("cursor = %d, want 25 (failed run must not advance it)", w.Cursor())
	}
	recs, cur := readAll(t, path)
	if cur != 25 || len(recs) != 24 { // 1..20, 22..25
		t.Fatalf("read back %d records to cursor %d, want 24 to 25", len(recs), cur)
	}
	// A later in-order write after the failure still reaches readers.
	c.fail = nil
	if err := w.WriteRecords(seqRecords(26, 30)); err != nil {
		t.Fatal(err)
	}
	if recs, cur = readAll(t, path); cur != 30 || len(recs) != 29 {
		t.Fatalf("after recovery: %d records to cursor %d", len(recs), cur)
	}

	// A reserved head that cannot be stored stops the call before any
	// slot changes: readers were not warned.
	c.fail = func(off int64, n int) bool { return off == offReserved }
	c.calls = 0
	if err := w.WriteRecords(seqRecords(41, 50)); !errors.Is(err, errInjected) {
		t.Fatalf("failed reserve reported %v", err)
	}
	if c.calls != 1 || w.Cursor() != 30 {
		t.Fatalf("failed reserve: %d writes, cursor %d", c.calls, w.Cursor())
	}
}

// A batch larger than the ring stores only its last lap: every older record
// is a full lap behind the batch's newest, so its slot is left to that
// newer record. The reader still accounts for every sequence number.
func TestWriteRecordsLargerThanRing(t *testing.T) {
	w, c, path := createCounted(t, 100)
	if err := w.WriteRecords(seqRecords(1, 350)); err != nil {
		t.Fatal(err)
	}
	if c.calls != 4 { // reserved head, 251..300, 301..350, cursor
		t.Fatalf("made %d writes, want 4", c.calls)
	}
	recs, cur := readAll(t, path)
	if cur != 350 {
		t.Fatalf("cursor = %d, want 350", cur)
	}
	// 251..350 are retained; 251's successor slot (351) is cursor+1.
	if len(recs) != 99 || recs[0].Seq != 252 || recs[98].Seq != 350 {
		t.Fatalf("read back %d records %d..%d, want 99 records 252..350", len(recs), recs[0].Seq, recs[len(recs)-1].Seq)
	}
}

// readWord returns one 8-byte header word of the file at path.
func readWord(t *testing.T, path string, off int64) uint64 {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return binary.LittleEndian.Uint64(b[off:])
}

// patchWord overwrites one 8-byte header word of the file at path.
func patchWord(t *testing.T, path string, off int64, v uint64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	if _, err := f.WriteAt(buf[:], off); err != nil {
		t.Fatal(err)
	}
}

// The reader's torn-read guard covers the whole in-flight run: with a
// reserved head beyond the cursor, exactly the slots one lap below it are
// dropped — and surface to the caller as missed. A zero word (a file from
// an older writer) degrades to the one-slot rule.
func TestReadSinceDropsSlotsUnderReservedHead(t *testing.T) {
	const capacity = 64
	w, _, path := createCounted(t, capacity)
	if err := w.WriteRecords(seqRecords(1, 100)); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, tc := range []struct {
		reserved  uint64
		wantFirst uint64 // lowest trusted sequence number
	}{
		{0, 38},   // older writer: only cursor+1's slot (37+64 = 101) is suspect
		{100, 38}, // reserve caught up with the cursor: same rule
		{101, 38}, // reserving cursor+1 adds nothing
		{110, 47}, // 37..46 are one lap below 101..110
		{164, 101},
		{1 << 40, 101}, // everything retained is suspect
	} {
		patchWord(t, path, offReserved, tc.reserved)
		recs, cur, err := r.ReadSince(0, 0)
		if err != nil || cur != 100 {
			t.Fatalf("reserved %d: cursor %d, err %v", tc.reserved, cur, err)
		}
		wantLen := 0
		if tc.wantFirst <= 100 {
			wantLen = int(100 - tc.wantFirst + 1)
		}
		if len(recs) != wantLen || (wantLen > 0 && (recs[0].Seq != tc.wantFirst || recs[wantLen-1].Seq != 100)) {
			t.Fatalf("reserved %d: got %d records, want %d starting at %d", tc.reserved, len(recs), wantLen, tc.wantFirst)
		}
		for _, rec := range recs {
			if rec.Seq+capacity <= tc.reserved {
				t.Fatalf("reserved %d: delivered suspect seq %d", tc.reserved, rec.Seq)
			}
		}
		// delivered + missed == cursor, by the caller's arithmetic.
		if missed := cur - uint64(len(recs)); missed != tc.wantFirst-1 {
			t.Fatalf("reserved %d: missed %d, want %d", tc.reserved, missed, tc.wantFirst-1)
		}
	}
}

// ReadSinceInto decodes into the caller's buffer and never allocates once
// it is large enough.
func TestReadSinceIntoReusesBuffer(t *testing.T) {
	w, _, path := createCounted(t, 4096)
	if err := w.WriteRecords(seqRecords(1, 3000)); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]heartbeat.Record, 0, 4096)
	recs, cur, err := r.ReadSinceInto(0, 0, buf)
	if err != nil || cur != 3000 || len(recs) != 3000 || &recs[0] != &buf[:1][0] {
		t.Fatalf("ReadSinceInto: %d records, cursor %d, err %v, aliases buf: %v", len(recs), cur, err, len(recs) > 0 && &recs[0] == &buf[:1][0])
	}
	if raceEnabled {
		t.Skip("the race detector heap-allocates stack read buffers, so the count below is not the reader's")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if recs, _, err := r.ReadSinceInto(0, 0, buf); err != nil || len(recs) != 3000 {
			t.Fatalf("%d records, err %v", len(recs), err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ReadSinceInto allocates %v times per call with a large enough buffer, want 0", allocs)
	}
}

// The aggregator delivers a flush to a LogWriter, and to a ring Writer, as
// one batch, so 1024 sharded beats cost 2 writes to the log and 3 to the
// ring, not 2048.
func TestLogWriterIsBatchSinkForAggregator(t *testing.T) {
	dir := t.TempDir()
	lw, err := CreateLog(filepath.Join(dir, "agg.hblog"), 10)
	if err != nil {
		t.Fatal(err)
	}
	lc := &countingWriterAt{w: lw.f}
	lw.ring.Out = lc
	rw, err := Create(filepath.Join(dir, "agg.hb"), 10, 4096)
	if err != nil {
		t.Fatal(err)
	}
	rc := &countingWriterAt{w: rw.f}
	rw.ring.Out = rc
	var th *heartbeat.Thread
	for _, sink := range []heartbeat.Sink{lw, rw} {
		hb, err := heartbeat.New(10, heartbeat.WithCapacity(4096), heartbeat.WithSink(sink))
		if err != nil {
			t.Fatal(err)
		}
		defer hb.Close() // closes its sink
		th = hb.Thread("producer")
		for i := 0; i < 1024; i++ {
			th.GlobalBeat()
		}
		hb.Flush()
		if err := hb.SinkErr(); err != nil {
			t.Fatal(err)
		}
	}
	if lc.calls != 2 {
		t.Fatalf("log sink made %d writes for a 1024-beat flush, want 2", lc.calls)
	}
	if rc.calls != 3 {
		t.Fatalf("ring sink made %d writes for a 1024-beat flush, want 3", rc.calls)
	}
	lr, err := OpenLog(filepath.Join(dir, "agg.hblog"))
	if err != nil {
		t.Fatal(err)
	}
	defer lr.Close()
	recs, cur, err := lr.ReadSinceInto(0, 0, nil)
	if err != nil || cur != 1024 || len(recs) != 1024 {
		t.Fatalf("log holds %d records to cursor %d, err %v", len(recs), cur, err)
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) || rec.Producer != th.ID() {
			t.Fatalf("record %d = %+v", i, rec)
		}
	}
}

// tearingWriterAt stores a multi-record run the way a reader may catch it:
// everything lands except one middle record's sequence field, mid runs, and
// only then does that field land. During mid the slot holds the old lap's
// sequence number over the new lap's body — the torn read the seqlock alone
// (rec.Seq == want) cannot see.
type tearingWriterAt struct {
	w   io.WriterAt
	mid func()
}

func (tw *tearingWriterAt) WriteAt(p []byte, off int64) (int, error) {
	if len(p) < 3*RecordSize {
		return tw.w.WriteAt(p, off)
	}
	k := len(p) / RecordSize / 2 * RecordSize
	if _, err := tw.w.WriteAt(p[:k], off); err != nil {
		return 0, err
	}
	if _, err := tw.w.WriteAt(p[k+8:], off+int64(k)+8); err != nil {
		return 0, err
	}
	tw.mid()
	if _, err := tw.w.WriteAt(p[k:k+8], off+int64(k)); err != nil {
		return 0, err
	}
	return len(p), nil
}

// While a segment is in flight the reader must distrust every slot it
// covers, which only works if the writer stored the reserved head first.
func TestReaderDistrustsWholeInFlightSegment(t *testing.T) {
	const capacity = 64
	w, _, path := createCounted(t, capacity)
	if err := w.WriteRecords(seqRecords(1, 64)); err != nil {
		t.Fatal(err)
	}
	reads := 0
	w.ring.Out = &tearingWriterAt{w: w.f, mid: func() {
		reads++
		// Slots of 1..32 are being overwritten by 65..96; slot 16 holds
		// seq 17 over the body of 81. readAll fails on any such record.
		recs, cur := readAll(t, path)
		if cur != 64 || len(recs) != 32 || recs[0].Seq != 33 || recs[31].Seq != 64 {
			t.Fatalf("mid-write read: %d records to cursor %d, want exactly 33..64", len(recs), cur)
		}
	}}
	if err := w.WriteRecords(seqRecords(65, 96)); err != nil {
		t.Fatal(err)
	}
	if reads != 1 {
		t.Fatalf("segment was stored in %d multi-record writes, want 1", reads)
	}
	recs, cur := readAll(t, path)
	if cur != 96 || len(recs) != 63 || recs[0].Seq != 34 {
		t.Fatalf("after the write: %d records to cursor %d, want 34..96", len(recs), cur)
	}
}
