package hbfile_test

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/hbfile"
	"repro/heartbeat"
)

// corruptHeader writes a ring-file header with one field patched.
func corruptHeader(t *testing.T, patch func(buf []byte)) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "bad.hb")
	w, err := hbfile.Create(p, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	buf, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	patch(buf)
	if err := os.WriteFile(p, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestOpenRejectsBadVersion(t *testing.T) {
	p := corruptHeader(t, func(buf []byte) {
		binary.LittleEndian.PutUint32(buf[8:], 99)
	})
	if _, err := hbfile.Open(p); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestOpenRejectsBadRecordSize(t *testing.T) {
	p := corruptHeader(t, func(buf []byte) {
		binary.LittleEndian.PutUint32(buf[12:], 64)
	})
	if _, err := hbfile.Open(p); err == nil {
		t.Fatal("bad record size accepted")
	}
}

func TestOpenRejectsZeroCapacity(t *testing.T) {
	p := corruptHeader(t, func(buf []byte) {
		binary.LittleEndian.PutUint32(buf[16:], 0)
	})
	if _, err := hbfile.Open(p); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

// hostileCapacityHeader is a 256-byte file whose valid-looking header claims
// far more ring than the file holds; left unchecked, the capacity sized the
// reader's buffers (8.6 GB for 1<<28) before the read failed with EOF.
func hostileCapacityHeader(capacity uint32) []byte {
	buf := make([]byte, 256)
	copy(buf, hbfile.Magic)
	binary.LittleEndian.PutUint32(buf[8:], hbfile.Version)
	binary.LittleEndian.PutUint32(buf[12:], hbfile.RecordSize)
	binary.LittleEndian.PutUint32(buf[16:], capacity)
	binary.LittleEndian.PutUint32(buf[20:], 10)
	binary.LittleEndian.PutUint64(buf[56:], 1<<40) // cursor
	return buf
}

func TestOpenRejectsCapacityBeyondFile(t *testing.T) {
	for _, capacity := range []uint32{5, 1 << 28, 1<<32 - 1} {
		p := filepath.Join(t.TempDir(), "hostile.hb")
		if err := os.WriteFile(p, hostileCapacityHeader(capacity), 0o644); err != nil {
			t.Fatal(err)
		}
		if r, err := hbfile.Open(p); err == nil {
			r.Close()
			t.Fatalf("capacity %d accepted over a 256-byte file", capacity)
		}
	}
	// The largest ring the file really holds is still fine.
	p := filepath.Join(t.TempDir(), "fits.hb")
	if err := os.WriteFile(p, hostileCapacityHeader(4), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := hbfile.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if recs, cur, err := r.ReadSince(0, 0); err != nil || len(recs) != 0 || cur != 1<<40 {
		t.Fatalf("ReadSince over an empty ring = %d records, cursor %d, err %v", len(recs), cur, err)
	}
}

func TestOpenRejectsShortFile(t *testing.T) {
	p := filepath.Join(t.TempDir(), "short.hb")
	if err := os.WriteFile(p, []byte("APPHBv1\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := hbfile.Open(p); err == nil {
		t.Fatal("short file accepted")
	}
}

func TestWriterOperationsAfterClose(t *testing.T) {
	p := filepath.Join(t.TempDir(), "c.hb")
	w, err := hbfile.Create(p, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRecord(heartbeat.Record{Seq: 1}); err == nil {
		t.Fatal("write after close accepted")
	}
	if err := w.WriteTarget(1, 2); err == nil {
		t.Fatal("target after close accepted")
	}
	if err := w.Sync(); err == nil {
		t.Fatal("sync after close accepted")
	}
}

func TestLogWriterOperationsAfterClose(t *testing.T) {
	p := filepath.Join(t.TempDir(), "c.hblog")
	w, err := hbfile.CreateLog(p, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRecord(heartbeat.Record{Seq: 1}); err == nil {
		t.Fatal("write after close accepted")
	}
	if err := w.WriteTarget(1, 2); err == nil {
		t.Fatal("target after close accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal("second close not idempotent")
	}
}

func TestWriterSyncAndCursor(t *testing.T) {
	p := filepath.Join(t.TempDir(), "s.hb")
	w, err := hbfile.Create(p, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.Cursor() != 0 {
		t.Fatal("fresh cursor nonzero")
	}
	if err := w.WriteRecord(heartbeat.Record{Seq: 3}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRecord(heartbeat.Record{Seq: 1}); err != nil {
		t.Fatal(err) // out-of-order arrival
	}
	if w.Cursor() != 3 {
		t.Fatalf("cursor = %d, want monotone max 3", w.Cursor())
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestReaderRateInsufficientRecords(t *testing.T) {
	p := filepath.Join(t.TempDir(), "r.hb")
	w, err := hbfile.Create(p, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	r, err := hbfile.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, ok, err := r.Rate(0); err != nil || ok {
		t.Fatalf("Rate on empty file: ok=%v err=%v", ok, err)
	}
	if recs, err := r.Last(0); err != nil || recs != nil {
		t.Fatalf("Last(0) = %v, %v", recs, err)
	}
}

func TestLogReadEdges(t *testing.T) {
	p := filepath.Join(t.TempDir(), "e.hblog")
	w, err := hbfile.CreateLog(p, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	r, err := hbfile.OpenLog(p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if recs, err := r.Read(0, 10); err != nil || recs != nil {
		t.Fatalf("Read on empty log = %v, %v", recs, err)
	}
	if recs, err := r.Last(5); err != nil || recs != nil {
		t.Fatalf("Last on empty log = %v, %v", recs, err)
	}
	if _, ok, err := r.Rate(0); err != nil || ok {
		t.Fatalf("Rate on empty log: ok=%v err=%v", ok, err)
	}
}

// hostileCountLog is a well-formed one-record log whose count word claims
// 2^40 records. Unchecked, the count sized ReadSince's buffer (a fatal,
// unrecoverable out-of-memory, not a panic), and a bounded read from the
// observer path failed with EOF forever instead of delivering the record.
func hostileCountLog(tb testing.TB) []byte {
	tb.Helper()
	p := filepath.Join(tb.TempDir(), "hostile.hblog")
	w, err := hbfile.CreateLog(p, 10)
	if err != nil {
		tb.Fatal(err)
	}
	if err := w.WriteRecord(heartbeat.Record{Seq: 1, Tag: 7}); err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	buf, err := os.ReadFile(p)
	if err != nil {
		tb.Fatal(err)
	}
	binary.LittleEndian.PutUint64(buf[56:], 1<<40) // count
	return buf
}

func TestLogReaderClampsCountToFile(t *testing.T) {
	p := filepath.Join(t.TempDir(), "hostile.hblog")
	if err := os.WriteFile(p, hostileCountLog(t), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := hbfile.OpenLog(p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n, err := r.Count(); err != nil || n != 1 {
		t.Fatalf("Count = %d, %v; want the 1 record the file holds", n, err)
	}
	for _, max := range []int{0, 65536} { // unbounded, and the observer path's page
		recs, cur, err := r.ReadSinceInto(0, max, nil)
		if err != nil || len(recs) != 1 || cur != 1 || recs[0].Tag != 7 {
			t.Fatalf("ReadSinceInto(0, %d) = %d records, cursor %d, %v; want the one record", max, len(recs), cur, err)
		}
	}
	if recs, err := r.Last(16); err != nil || len(recs) != 1 {
		t.Fatalf("Last = %d records, %v", len(recs), err)
	}
}
