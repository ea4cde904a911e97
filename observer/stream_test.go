package observer_test

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"repro/clock"
	"repro/hbfile"
	"repro/heartbeat"
	"repro/observer"
)

func TestFileStreamTailsRing(t *testing.T) {
	p := filepath.Join(t.TempDir(), "a.hb")
	w, err := hbfile.Create(p, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewVirtual()
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

// A Next cancelled while it waits out an idle poll stops its poll timer,
// so it leaves nothing queued for a virtual clock to leap to.
func TestPolledStreamCancelStopsPollTimer(t *testing.T) {
	p := filepath.Join(t.TempDir(), "idle.hb")
	w, err := hbfile.Create(p, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	r, err := hbfile.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	clk := clock.NewVirtual()
	st := observer.ReaderStream(r, time.Hour, 0, clk)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := st.Next(ctx)
		done <- err
	}()
	for clk.PendingTimers() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Next err = %v, want context.Canceled", err)
	}
	if n := clk.PendingTimers(); n != 0 {
		t.Fatalf("PendingTimers = %d after a cancelled Next, want 0", n)
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
	st := judge(w, 0)
	if st.Count != 6 || w.Missed() != 2 {
		t.Fatalf("count %d missed %d", st.Count, w.Missed())
	}
	if !st.RateOK || st.Rate < 9.99 || st.Rate > 10.01 {
		t.Fatalf("rate = %v (ok %v)", st.Rate, st.RateOK)
	}
	if w.LastBeat() != mk(6).Time {
		t.Fatalf("last beat = %v", w.LastBeat())
	}
}

// A stream that resynchronized after a producer restart delivers the new
// life from Seq 1: the window must follow it, not straddle the two lives.
func TestWindowRestartDropsOldLife(t *testing.T) {
	w := observer.NewWindow(8)
	base := time.Unix(0, 0)
	w.Absorb(observer.Batch{
		Records: []heartbeat.Record{{Seq: 99, Time: base}, {Seq: 100, Time: base.Add(time.Second)}},
		Count:   100, Window: 8,
	})
	// An hour of dead time, then the new life beats at 10/s.
	born := base.Add(time.Hour)
	var fresh []heartbeat.Record
	for seq := uint64(1); seq <= 3; seq++ {
		fresh = append(fresh, heartbeat.Record{Seq: seq, Time: born.Add(time.Duration(seq) * 100 * time.Millisecond)})
	}
	w.Absorb(observer.Batch{Records: fresh, Count: 3, Window: 8})
	st := judge(w, 0)
	if st.Count != 3 {
		t.Fatalf("Count = %d, want the new life's 3", st.Count)
	}
	if recs := w.Records(); len(recs) != 3 || recs[0].Seq != 1 {
		t.Fatalf("window straddles the restart: %+v", recs)
	}
	if !st.RateOK || st.Rate < 9.99 || st.Rate > 10.01 {
		t.Fatalf("rate = %v (ok %v), want the new life's 10/s (not one spanning the dead hour)", st.Rate, st.RateOK)
	}
	// The new life then continues normally.
	w.Absorb(observer.Batch{Records: []heartbeat.Record{{Seq: 4, Time: born.Add(400 * time.Millisecond)}}, Count: 4, Window: 8})
	if st := judge(w, 0); st.Count != 4 || len(w.Records()) != 4 {
		t.Fatalf("after continuing: count %d, %d records", st.Count, len(w.Records()))
	}
}

func TestMonitorRunFirstStatusImmediate(t *testing.T) {
	clk := clock.NewVirtual()
	hb, err := heartbeat.New(10, heartbeat.WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	hb.SetTarget(8, 12)
	beatSteadily(hb, clk, 20, 100*time.Millisecond)
	// firstStatus runs the hub on an hour-long interval: only the judgment
	// of the first batch can deliver a status within its deadline.
	st := firstStatus(t, observer.HeartbeatStream(hb), &observer.Classifier{Clock: clk})
	if st.Health != observer.Healthy {
		t.Fatalf("first status = %+v", st)
	}
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
	hub := observer.NewHub(10*time.Millisecond, func(_ string, st observer.Status) {
		if st.Health == observer.Flatlined {
			select {
			case flat <- st:
			default:
			}
		}
	})
	if err := hub.Add("app", observer.HeartbeatStream(hb)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan struct{})
	go func() { hub.Run(ctx); close(done) }()
	select {
	case <-flat: // beats stopped; the idle ticks alone must reveal it
	case <-time.After(8 * time.Second):
		t.Fatal("flatline never detected on idle ticks")
	}
	cancel()
	<-done
}
