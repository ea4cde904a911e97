package hbfile_test

import (
	"path/filepath"
	"testing"
	"testing/quick"
	"time"

	"repro/clock"
	"repro/hbfile"
	"repro/heartbeat"
)

func TestLogRoundTrip(t *testing.T) {
	p := filepath.Join(t.TempDir(), "app.hblog")
	w, err := hbfile.CreateLog(p, 20)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(100, 0)
	const n = 50
	for i := uint64(1); i <= n; i++ {
		rec := heartbeat.Record{Seq: i, Time: base.Add(time.Duration(i) * 100 * time.Millisecond), Tag: int64(i * 3)}
		if err := w.WriteRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.WriteTarget(9, 11); err != nil {
		t.Fatal(err)
	}

	r, err := hbfile.OpenLog(p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Window() != 20 {
		t.Fatalf("Window = %d", r.Window())
	}
	count, err := r.Count()
	if err != nil || count != n {
		t.Fatalf("Count = %d, %v", count, err)
	}
	// The ENTIRE history is addressable — the reference implementation's
	// unbounded HB_get_history.
	all, err := r.Read(0, n)
	if err != nil || len(all) != n {
		t.Fatalf("Read all = %d records, %v", len(all), err)
	}
	for i, rec := range all {
		if rec.Seq != uint64(i+1) || rec.Tag != int64((i+1)*3) {
			t.Fatalf("record %d = %+v", i, rec)
		}
	}
	// Arbitrary middle ranges work.
	mid, err := r.Read(10, 5)
	if err != nil || len(mid) != 5 || mid[0].Seq != 11 {
		t.Fatalf("Read(10, 5) = %+v, %v", mid, err)
	}
	// Clipping at the end.
	tail, err := r.Read(n-2, 100)
	if err != nil || len(tail) != 2 {
		t.Fatalf("Read(n-2, 100) = %d records", len(tail))
	}
	last, err := r.Last(10)
	if err != nil || len(last) != 10 || last[9].Seq != n {
		t.Fatalf("Last(10) = %+v, %v", last, err)
	}
	rate, ok, err := r.Rate(0)
	if err != nil || !ok || rate < 9.99 || rate > 10.01 {
		t.Fatalf("Rate = %v %v %v", rate, ok, err)
	}
	min, max, ok, err := r.Target()
	if err != nil || !ok || min != 9 || max != 11 {
		t.Fatalf("Target = %v %v %v %v", min, max, ok, err)
	}
	if err := w.Close(); err != nil || w.Close() != nil {
		t.Fatal("close not clean/idempotent")
	}
}

func TestLogRejectsRingFileAndViceVersa(t *testing.T) {
	dir := t.TempDir()
	ringPath := filepath.Join(dir, "ring.hb")
	logPath := filepath.Join(dir, "log.hb")
	rw, err := hbfile.Create(ringPath, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	lw, err := hbfile.CreateLog(logPath, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer lw.Close()
	if _, err := hbfile.OpenLog(ringPath); err == nil {
		t.Fatal("OpenLog accepted a ring file")
	}
	if _, err := hbfile.Open(logPath); err == nil {
		t.Fatal("Open accepted a log file")
	}
}

func TestLogAsHeartbeatSink(t *testing.T) {
	p := filepath.Join(t.TempDir(), "sink.hblog")
	w, err := hbfile.CreateLog(p, 10)
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewVirtual()
	hb, err := heartbeat.New(10, heartbeat.WithClock(clk), heartbeat.WithSink(w))
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Close()
	hb.SetTarget(15, 25)
	for i := 0; i < 100; i++ {
		clk.Advance(50 * time.Millisecond)
		hb.Beat()
	}
	if err := hb.SinkErr(); err != nil {
		t.Fatal(err)
	}
	r, err := hbfile.OpenLog(p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rate, ok, err := r.Rate(0)
	if err != nil || !ok || rate < 19.9 || rate > 20.1 {
		t.Fatalf("Rate = %v %v %v", rate, ok, err)
	}
	// Unlike the ring, nothing is ever dropped.
	count, _ := r.Count()
	if count != 100 {
		t.Fatalf("Count = %d, want full history", count)
	}
}

func TestLogValidation(t *testing.T) {
	if _, err := hbfile.CreateLog(filepath.Join(t.TempDir(), "x"), 0); err == nil {
		t.Fatal("zero window accepted")
	}
	w, err := hbfile.CreateLog(filepath.Join(t.TempDir(), "y"), 5)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.WriteRecord(heartbeat.Record{Seq: 0}); err == nil {
		t.Fatal("zero seq accepted")
	}
	if _, err := hbfile.OpenLog(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file opened")
	}
}

// Property: Read(from, n) over any bounds returns exactly the records
// [from, min(from+n, count)) in order.
func TestLogReadRangeProperty(t *testing.T) {
	p := filepath.Join(t.TempDir(), "prop.hblog")
	w, err := hbfile.CreateLog(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const total = 64
	base := time.Unix(0, 0)
	for i := uint64(1); i <= total; i++ {
		if err := w.WriteRecord(heartbeat.Record{Seq: i, Time: base.Add(time.Duration(i) * time.Second)}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := hbfile.OpenLog(p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	f := func(fromRaw, nRaw uint8) bool {
		from := uint64(fromRaw) % (total + 10)
		n := int(nRaw) % (total + 10)
		recs, err := r.Read(from, n)
		if err != nil {
			return false
		}
		want := 0
		if from < total {
			want = n
			if uint64(want) > total-from {
				want = int(total - from)
			}
		}
		if len(recs) != want {
			return false
		}
		for i, rec := range recs {
			if rec.Seq != from+uint64(i)+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
