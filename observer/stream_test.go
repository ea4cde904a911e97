package observer_test

import (
	"context"
	"errors"
	"io"
	"path/filepath"
	"testing"
	"time"

	"repro/hbfile"
	"repro/heartbeat"
	"repro/observer"
	"repro/sim"
)

func TestHeartbeatStreamDeltas(t *testing.T) {
	clk := sim.NewClock(time.Time{})
	hb, err := heartbeat.New(10, heartbeat.WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	hb.SetTarget(5, 15)
	beatSteadily(hb, clk, 4, 100*time.Millisecond)

	st := observer.HeartbeatStream(hb)
	b, err := st.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Records) != 4 || b.Count != 4 || b.Window != 10 || !b.TargetSet || b.TargetMin != 5 {
		t.Fatalf("first batch = %+v", b)
	}
	beatSteadily(hb, clk, 2, 100*time.Millisecond)
	b, err = st.Next(context.Background())
	if err != nil || len(b.Records) != 2 || b.Records[0].Seq != 5 {
		t.Fatalf("delta batch = %+v, err %v", b, err)
	}
	// Idle + expired ctx = non-blocking drain outcome.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := st.Next(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("idle err = %v", err)
	}
	// Closed heartbeat ends the stream.
	hb.Close()
	if _, err := st.Next(context.Background()); !errors.Is(err, io.EOF) {
		t.Fatalf("closed err = %v, want io.EOF", err)
	}
}

func TestFileStreamTailsRing(t *testing.T) {
	p := filepath.Join(t.TempDir(), "a.hb")
	w, err := hbfile.Create(p, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	clk := sim.NewClock(time.Time{})
	hb, err := heartbeat.New(10, heartbeat.WithClock(clk), heartbeat.WithSink(w))
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Close()
	hb.SetTarget(30, 35)
	beatSteadily(hb, clk, 5, 25*time.Millisecond)

	r, err := hbfile.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	st := observer.ReaderStream(r, time.Millisecond, 0, nil)
	b, err := st.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Records) != 5 || b.Count != 5 || !b.TargetSet || b.TargetMin != 30 {
		t.Fatalf("first batch = %+v", b)
	}
	// A blocked Next picks up records the writer lands later.
	got := make(chan observer.Batch, 1)
	go func() {
		nb, err := st.Next(context.Background())
		if err != nil {
			t.Error(err)
		}
		got <- nb
	}()
	time.Sleep(5 * time.Millisecond)
	beatSteadily(hb, clk, 3, 25*time.Millisecond)
	select {
	case nb := <-got:
		if len(nb.Records) == 0 || nb.Records[0].Seq != 6 {
			t.Fatalf("tail batch = %+v", nb)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("file stream never saw the new records")
	}
}

// Regression: resuming a file stream with a cursor from a previous life
// of the producer (the file was recreated, its seqs restarted) used to
// jump the cursor down silently and skip the new life's retained records
// entirely — where the in-process Subscription resync redelivers them.
// The two backends must agree: resynchronize and deliver.
func TestFileStreamFromFutureCursorResynchronizes(t *testing.T) {
	p := filepath.Join(t.TempDir(), "a.hb")
	w, err := hbfile.Create(p, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	clk := sim.NewClock(time.Time{})
	hb, err := heartbeat.New(10, heartbeat.WithClock(clk), heartbeat.WithSink(w))
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Close()
	beatSteadily(hb, clk, 5, 25*time.Millisecond)

	r, err := hbfile.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// The consumer's cursor predates this file's life entirely.
	st := observer.ReaderStream(r, time.Millisecond, 100, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for delivered := 0; delivered < 5; {
		b, err := st.Next(ctx)
		if err != nil {
			t.Fatalf("resumed-from-future Next stalled after %d records: %v", delivered, err)
		}
		for _, rec := range b.Records {
			delivered++
			if rec.Seq != uint64(delivered) {
				t.Fatalf("record %d has seq %d: resync skipped or duplicated", delivered, rec.Seq)
			}
		}
		if b.Missed != 0 {
			t.Fatalf("resync counted %d phantom missed records", b.Missed)
		}
	}
}

func TestLogStreamTailsLog(t *testing.T) {
	p := filepath.Join(t.TempDir(), "a.hbl")
	w, err := hbfile.CreateLog(p, 10)
	if err != nil {
		t.Fatal(err)
	}
	clk := sim.NewClock(time.Time{})
	hb, err := heartbeat.New(10, heartbeat.WithClock(clk), heartbeat.WithSink(w))
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Close()
	beatSteadily(hb, clk, 4, 10*time.Millisecond)

	r, err := hbfile.OpenLog(p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	st := observer.ReaderStream(r, time.Millisecond, 0, nil)
	b, err := st.Next(context.Background())
	if err != nil || len(b.Records) != 4 || b.Count != 4 {
		t.Fatalf("log batch = %+v, err %v", b, err)
	}
}

func TestPollStreamFallbackDeliversOnlyNewRecords(t *testing.T) {
	clk := sim.NewClock(time.Time{})
	hb, err := heartbeat.New(8, heartbeat.WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	tr := hb.Thread("w")
	for i := 0; i < 3; i++ {
		clk.Advance(50 * time.Millisecond)
		tr.Beat()
	}
	// ThreadSource has no native stream: StreamOf must fall back to
	// polling yet still deliver each record exactly once.
	st := observer.StreamOf(observer.ThreadSource(tr, 8), time.Millisecond)
	b, err := st.Next(context.Background())
	if err != nil || len(b.Records) != 3 {
		t.Fatalf("fallback batch = %+v, err %v", b, err)
	}
	clk.Advance(50 * time.Millisecond)
	tr.Beat()
	b, err = st.Next(context.Background())
	if err != nil || len(b.Records) != 1 || b.Records[0].Seq != 4 {
		t.Fatalf("fallback delta = %+v, err %v", b, err)
	}
}

func TestPollStreamZeroSeqFallback(t *testing.T) {
	// A hand-rolled Source that never populates Seq (the snapshot API
	// did not require it): the fallback dedups by Count.
	base := time.Unix(0, 0)
	count := uint64(0)
	src := sourceFunc(func(int) (observer.Snapshot, error) {
		recs := make([]heartbeat.Record, count)
		for i := range recs {
			recs[i].Time = base.Add(time.Duration(i) * time.Second)
		}
		return observer.Snapshot{Count: count, Window: 8, Records: recs}, nil
	})
	st := observer.PollStream(src, time.Millisecond)
	count = 3
	b, err := st.Next(context.Background())
	if err != nil || len(b.Records) != 3 {
		t.Fatalf("first batch = %d records, err %v; want 3", len(b.Records), err)
	}
	count = 5
	b, err = st.Next(context.Background())
	if err != nil || len(b.Records) != 2 || b.Count != 5 {
		t.Fatalf("delta batch = %d records (count %d), err %v; want the 2 new ones", len(b.Records), b.Count, err)
	}
}

func TestStreamOfPicksNativeStreams(t *testing.T) {
	hb, _ := heartbeat.New(10)
	defer hb.Close()
	if _, ok := observer.StreamOf(observer.HeartbeatSource(hb), 0).(io.Closer); !ok {
		t.Fatal("StreamOf(HeartbeatSource) did not return the native heartbeat stream")
	}
}

func TestWindowAbsorbTrimAndCachedStats(t *testing.T) {
	w := observer.NewWindow(4)
	base := time.Unix(0, 0)
	mk := func(seq uint64) heartbeat.Record {
		return heartbeat.Record{Seq: seq, Time: base.Add(time.Duration(seq) * 100 * time.Millisecond)}
	}
	w.Absorb(observer.Batch{
		Records: []heartbeat.Record{mk(1), mk(2), mk(3)},
		Count:   3, Window: 10, TargetMin: 5, TargetMax: 15, TargetSet: true,
	})
	w.Absorb(observer.Batch{Records: []heartbeat.Record{mk(4), mk(5), mk(6)}, Count: 6, Window: 10, Missed: 2})
	recs := w.Records()
	if len(recs) != 4 || recs[0].Seq != 3 || recs[3].Seq != 6 {
		t.Fatalf("trimmed window = %+v", recs)
	}
	if w.Count() != 6 || w.Missed() != 2 {
		t.Fatalf("count %d missed %d", w.Count(), w.Missed())
	}
	r, ok := w.RateOver(0)
	if !ok || r.PerSec < 9.99 || r.PerSec > 10.01 {
		t.Fatalf("rate = %+v", r)
	}
	if w.LastBeat() != mk(6).Time {
		t.Fatalf("last beat = %v", w.LastBeat())
	}
	snap := w.Snapshot()
	if snap.Count != 6 || snap.Window != 10 || len(snap.Records) != 4 {
		t.Fatalf("snapshot view = %+v", snap)
	}
}

func TestClassifyWindowMatchesClassify(t *testing.T) {
	clk := sim.NewClock(time.Time{})
	hb, err := heartbeat.New(10, heartbeat.WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	hb.SetTarget(8, 12)
	beatSteadily(hb, clk, 20, 100*time.Millisecond)

	snap, err := observer.HeartbeatSource(hb).Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	w := observer.NewWindow(0)
	st := observer.HeartbeatStream(hb)
	b, err := st.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	w.Absorb(b)

	c := &observer.Classifier{Clock: clk}
	fromSnap := c.Classify(snap)
	fromWin := c.ClassifyWindow(w)
	if fromSnap.Health != fromWin.Health || fromSnap.Rate != fromWin.Rate ||
		fromSnap.RateOK != fromWin.RateOK || fromSnap.LastBeat != fromWin.LastBeat {
		t.Fatalf("classify mismatch:\n snapshot %+v\n window   %+v", fromSnap, fromWin)
	}
	if fromWin.Health != observer.Healthy {
		t.Fatalf("health = %v", fromWin.Health)
	}
	// Repeat judgment with no new records: cached stats, same verdict.
	again := c.ClassifyWindow(w)
	if again.Health != fromWin.Health || again.Rate != fromWin.Rate {
		t.Fatalf("cached judgment drifted: %+v vs %+v", again, fromWin)
	}
}

func TestMonitorRunFirstStatusImmediate(t *testing.T) {
	clk := sim.NewClock(time.Time{})
	hb, err := heartbeat.New(10, heartbeat.WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	hb.SetTarget(8, 12)
	beatSteadily(hb, clk, 20, 100*time.Millisecond)
	got := make(chan observer.Status, 1)
	// With an hour-long interval, only the immediate initial judgment can
	// deliver a status within the test deadline.
	m := observer.NewMonitor(observer.HeartbeatSource(hb), time.Hour, func(st observer.Status) {
		select {
		case got <- st:
		default:
		}
	}, observer.WithClassifier(&observer.Classifier{Clock: clk}))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { m.Run(ctx); close(done) }()
	select {
	case st := <-got:
		if st.Health != observer.Healthy {
			t.Fatalf("first status = %+v", st)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("first status waited for the interval instead of firing immediately")
	}
	cancel()
	<-done
}

func TestMonitorRunOnStreamDetectsFlatline(t *testing.T) {
	hb, err := heartbeat.New(4)
	if err != nil {
		t.Fatal(err)
	}
	hb.SetTarget(100, 1000) // expected gap 10ms; flatline after 160ms silence
	for i := 0; i < 8; i++ {
		hb.Beat()
		time.Sleep(2 * time.Millisecond)
	}
	flat := make(chan observer.Status, 1)
	m := observer.NewMonitor(observer.HeartbeatSource(hb), 10*time.Millisecond, func(st observer.Status) {
		if st.Health == observer.Flatlined {
			select {
			case flat <- st:
			default:
			}
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan struct{})
	go func() { m.Run(ctx); close(done) }()
	select {
	case <-flat: // beats stopped; the idle ticks alone must reveal it
	case <-time.After(8 * time.Second):
		t.Fatal("flatline never detected on idle ticks")
	}
	cancel()
	<-done
}
