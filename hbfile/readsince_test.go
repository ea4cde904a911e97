package hbfile_test

import (
	"path/filepath"
	"testing"
	"time"

	"repro/hbfile"
	"repro/heartbeat"
)

func writeSeqs(t *testing.T, w *hbfile.Writer, from, to uint64) {
	t.Helper()
	base := time.Unix(0, 0)
	for seq := from; seq <= to; seq++ {
		r := heartbeat.Record{Seq: seq, Time: base.Add(time.Duration(seq) * time.Millisecond), Tag: int64(seq)}
		if err := w.WriteRecord(r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReaderReadSinceIncremental(t *testing.T) {
	p := filepath.Join(t.TempDir(), "a.hb")
	w, err := hbfile.Create(p, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	writeSeqs(t, w, 1, 5)

	r, err := hbfile.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	recs, cur, err := r.ReadSince(0, 0)
	if err != nil || len(recs) != 5 || cur != 5 {
		t.Fatalf("ReadSince(0) = %d records, cursor %d, err %v", len(recs), cur, err)
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d = %+v", i, rec)
		}
	}
	// Idle tick: nothing new, cursor unchanged.
	recs, cur, err = r.ReadSince(cur, 0)
	if err != nil || len(recs) != 0 || cur != 5 {
		t.Fatalf("idle = %d records, cursor %d, err %v", len(recs), cur, err)
	}
	// Only the delta comes back.
	writeSeqs(t, w, 6, 8)
	recs, cur, err = r.ReadSince(cur, 0)
	if err != nil || len(recs) != 3 || recs[0].Seq != 6 || cur != 8 {
		t.Fatalf("delta = %+v, cursor %d, err %v", recs, cur, err)
	}
}

func TestReaderReadSinceMaxPages(t *testing.T) {
	p := filepath.Join(t.TempDir(), "a.hb")
	w, err := hbfile.Create(p, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	writeSeqs(t, w, 1, 10)
	r, err := hbfile.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var got []uint64
	cur := uint64(0)
	for i := 0; i < 10; i++ {
		recs, next, err := r.ReadSince(cur, 4)
		if err != nil {
			t.Fatal(err)
		}
		if next == cur {
			break
		}
		for _, rec := range recs {
			got = append(got, rec.Seq)
		}
		cur = next
	}
	if len(got) != 10 {
		t.Fatalf("paged to %d records, want 10: %v", len(got), got)
	}
	for i, seq := range got {
		if seq != uint64(i+1) {
			t.Fatalf("page ordering broken at %d: %v", i, got)
		}
	}
}

func TestReaderReadSinceWraparoundReportsLoss(t *testing.T) {
	p := filepath.Join(t.TempDir(), "a.hb")
	w, err := hbfile.Create(p, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	writeSeqs(t, w, 1, 20)
	r, err := hbfile.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	recs, cur, err := r.ReadSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The oldest slot of a wrapped ring is always suspect (the writer may
	// be mid-write of its successor), so 7 of the 8 retained records
	// validate — same discipline as Last.
	if cur != 20 || len(recs) != 7 || recs[0].Seq != 14 || recs[6].Seq != 20 {
		t.Fatalf("recs=%d first=%d cursor=%d; want the validated 14..20", len(recs), recs[0].Seq, cur)
	}
}

func TestReaderReadSinceForeignCursorResyncs(t *testing.T) {
	p := filepath.Join(t.TempDir(), "a.hb")
	w, err := hbfile.Create(p, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	writeSeqs(t, w, 1, 3)
	r, err := hbfile.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	recs, cur, err := r.ReadSince(100, 0)
	if err != nil || len(recs) != 0 || cur != 3 {
		t.Fatalf("foreign cursor: recs=%d cur=%d err=%v; want resync to 3", len(recs), cur, err)
	}
}

func TestLogReaderReadSinceTail(t *testing.T) {
	p := filepath.Join(t.TempDir(), "a.hbl")
	w, err := hbfile.CreateLog(p, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	base := time.Unix(0, 0)
	for seq := uint64(1); seq <= 6; seq++ {
		if err := w.WriteRecord(heartbeat.Record{Seq: seq, Time: base.Add(time.Duration(seq) * time.Millisecond)}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := hbfile.OpenLog(p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	recs, cur, err := r.ReadSinceInto(0, 0, nil)
	if err != nil || len(recs) != 6 || cur != 6 {
		t.Fatalf("tail = %d records, cursor %d, err %v", len(recs), cur, err)
	}
	recs, cur, err = r.ReadSinceInto(cur, 0, nil)
	if err != nil || len(recs) != 0 || cur != 6 {
		t.Fatalf("idle tail = %d records, cursor %d, err %v", len(recs), cur, err)
	}
	for seq := uint64(7); seq <= 9; seq++ {
		if err := w.WriteRecord(heartbeat.Record{Seq: seq, Time: base.Add(time.Duration(seq) * time.Millisecond)}); err != nil {
			t.Fatal(err)
		}
	}
	recs, cur, err = r.ReadSinceInto(cur, 2, nil)
	if err != nil || len(recs) != 2 || recs[0].Seq != 7 || cur != 8 {
		t.Fatalf("bounded tail = %+v, cursor %d, err %v", recs, cur, err)
	}
	recs, cur, err = r.ReadSinceInto(cur, 2, nil)
	if err != nil || len(recs) != 1 || recs[0].Seq != 9 || cur != 9 {
		t.Fatalf("final tail = %+v, cursor %d, err %v", recs, cur, err)
	}
}
