package hbfile_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/clock"
	"repro/hbfile"
	"repro/heartbeat"
)

func tempPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "app.hb")
}

func TestCreateValidation(t *testing.T) {
	p := tempPath(t)
	if _, err := hbfile.Create(p, 0, 16); err == nil {
		t.Fatal("zero window accepted")
	}
	if _, err := hbfile.Create(p, 10, 0); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

func TestRoundTrip(t *testing.T) {
	p := tempPath(t)
	w, err := hbfile.Create(p, 20, 64)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1000, 0)
	for i := uint64(1); i <= 10; i++ {
		rec := heartbeat.Record{
			Seq:      i,
			Time:     base.Add(time.Duration(i) * 100 * time.Millisecond),
			Tag:      int64(i * 7),
			Producer: int32(i % 3),
		}
		if err := w.WriteRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.WriteTarget(30, 35); err != nil {
		t.Fatal(err)
	}

	r, err := hbfile.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Window() != 20 || r.Capacity() != 64 {
		t.Fatalf("Window=%d Capacity=%d", r.Window(), r.Capacity())
	}
	if r.PID() != uint64(os.Getpid()) {
		t.Fatalf("PID = %d, want %d", r.PID(), os.Getpid())
	}
	cur, err := r.Cursor()
	if err != nil || cur != 10 {
		t.Fatalf("Cursor = %d, %v", cur, err)
	}
	recs, err := r.Last(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("Last(5) = %d records", len(recs))
	}
	for i, rec := range recs {
		want := uint64(6 + i)
		if rec.Seq != want || rec.Tag != int64(want*7) || rec.Producer != int32(want%3) {
			t.Fatalf("record %d = %+v", i, rec)
		}
		if !rec.Time.Equal(base.Add(time.Duration(want) * 100 * time.Millisecond)) {
			t.Fatalf("record %d time = %v", i, rec.Time)
		}
	}
	min, max, ok, err := r.Target()
	if err != nil || !ok || min != 30 || max != 35 {
		t.Fatalf("Target = %v %v %v %v", min, max, ok, err)
	}
	rate, ok, err := r.Rate(0)
	if err != nil || !ok {
		t.Fatalf("Rate: %v %v", ok, err)
	}
	if rate < 9.99 || rate > 10.01 {
		t.Fatalf("Rate = %v, want 10", rate)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
}

func TestTargetUnsetAndUpdated(t *testing.T) {
	p := tempPath(t)
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
	if _, _, ok, err := r.Target(); err != nil || ok {
		t.Fatalf("Target before set: ok=%v err=%v", ok, err)
	}
	if err := w.WriteTarget(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteTarget(5, 6); err != nil {
		t.Fatal(err)
	}
	min, max, ok, err := r.Target()
	if err != nil || !ok || min != 5 || max != 6 {
		t.Fatalf("Target = %v %v %v %v", min, max, ok, err)
	}
}

func TestRingWraparound(t *testing.T) {
	p := tempPath(t)
	w, err := hbfile.Create(p, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	base := time.Unix(0, 0)
	for i := uint64(1); i <= 100; i++ {
		if err := w.WriteRecord(heartbeat.Record{Seq: i, Time: base.Add(time.Duration(i) * time.Millisecond), Tag: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := hbfile.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	recs, err := r.Last(100)
	if err != nil {
		t.Fatal(err)
	}
	// Capacity 8, but the newest slot's predecessor-by-capacity is
	// considered suspect, so at least capacity-1 records must survive.
	if len(recs) < 7 {
		t.Fatalf("Last returned %d records, want >= 7", len(recs))
	}
	if recs[len(recs)-1].Seq != 100 {
		t.Fatalf("newest = %d, want 100", recs[len(recs)-1].Seq)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq != recs[i-1].Seq+1 {
			t.Fatalf("gap in records: %d -> %d", recs[i-1].Seq, recs[i].Seq)
		}
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := hbfile.Open(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("open of missing file succeeded")
	}
	// Corrupt magic.
	p := tempPath(t)
	if err := os.WriteFile(p, make([]byte, 256), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := hbfile.Open(p); err == nil {
		t.Fatal("open of corrupt file succeeded")
	}
}

func TestWriterRejectsZeroSeq(t *testing.T) {
	w, err := hbfile.Create(tempPath(t), 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.WriteRecord(heartbeat.Record{Seq: 0}); err == nil {
		t.Fatal("zero seq accepted")
	}
}

// Property: for any sequence of writes, Last(n) returns a dense suffix of
// the most recent records, each matching exactly what was written.
func TestLastDenseSuffixProperty(t *testing.T) {
	f := func(countRaw uint8, capRaw uint8, nRaw uint8) bool {
		count := int(countRaw)%120 + 1
		capacity := int(capRaw)%20 + 2
		n := int(nRaw)%130 + 1
		p := filepath.Join(t.TempDir(), "q.hb")
		w, err := hbfile.Create(p, 5, capacity)
		if err != nil {
			return false
		}
		defer w.Close()
		base := time.Unix(0, 0)
		for i := 1; i <= count; i++ {
			rec := heartbeat.Record{Seq: uint64(i), Time: base.Add(time.Duration(i) * time.Second), Tag: int64(i * 3)}
			if err := w.WriteRecord(rec); err != nil {
				return false
			}
		}
		r, err := hbfile.Open(p)
		if err != nil {
			return false
		}
		defer r.Close()
		recs, err := r.Last(n)
		if err != nil {
			return false
		}
		if len(recs) == 0 {
			return false // writer quiescent: newest record always readable
		}
		if recs[len(recs)-1].Seq != uint64(count) {
			return false
		}
		for i := range recs {
			want := uint64(count - len(recs) + 1 + i)
			if recs[i].Seq != want || recs[i].Tag != int64(want*3) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Integration: a Heartbeat with a file sink is observable through a Reader,
// including by a genuinely separate process.
func TestHeartbeatWithFileSink(t *testing.T) {
	p := tempPath(t)
	w, err := hbfile.Create(p, 10, 128)
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewVirtual()
	hb, err := heartbeat.New(10, heartbeat.WithClock(clk), heartbeat.WithSink(w))
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Close()
	if err := hb.SetTarget(30, 35); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		clk.Advance(25 * time.Millisecond) // 40 beats/s
		hb.Beat()
	}
	if err := hb.SinkErr(); err != nil {
		t.Fatal(err)
	}

	r, err := hbfile.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rate, ok, err := r.Rate(0)
	if err != nil || !ok {
		t.Fatalf("Rate: %v %v", ok, err)
	}
	if rate < 39.9 || rate > 40.1 {
		t.Fatalf("observed rate = %v, want 40", rate)
	}
	min, max, ok, err := r.Target()
	if err != nil || !ok || min != 30 || max != 35 {
		t.Fatalf("observed target = %v-%v ok=%v err=%v", min, max, ok, err)
	}

	// Cross-process check: a child process reads the same file.
	if os.Getenv("HBFILE_CHILD") == "" {
		cmd := exec.Command(os.Args[0], "-test.run", "TestHeartbeatWithFileSink$", "-test.v")
		cmd.Env = append(os.Environ(), "HBFILE_CHILD="+p)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("child process failed: %v\n%s", err, out)
		}
	}
}

func TestMain(m *testing.M) {
	if p := os.Getenv("HBFILE_CHILD"); p != "" {
		r, err := hbfile.Open(p)
		if err != nil {
			os.Exit(1)
		}
		cur, err := r.Cursor()
		if err != nil || cur != 50 {
			os.Exit(1)
		}
		rate, ok, err := r.Rate(0)
		if err != nil || !ok || rate < 39.9 || rate > 40.1 {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Concurrent producers within one process must serialize correctly through
// the sink.
func TestConcurrentSinkWrites(t *testing.T) {
	p := tempPath(t)
	w, err := hbfile.Create(p, 10, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := heartbeat.New(10, heartbeat.WithCapacity(1<<12), heartbeat.WithSink(w))
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Close()
	const goroutines, each = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				hb.Beat()
			}
		}()
	}
	wg.Wait()
	if err := hb.SinkErr(); err != nil {
		t.Fatal(err)
	}
	r, err := hbfile.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cur, err := r.Cursor()
	if err != nil || cur != goroutines*each {
		t.Fatalf("Cursor = %d, want %d", cur, goroutines*each)
	}
	recs, err := r.Last(goroutines * each)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < goroutines*each-1 {
		t.Fatalf("read back %d records", len(recs))
	}
}
