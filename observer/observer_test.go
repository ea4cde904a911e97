package observer_test

import (
	"context"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/clock"
	"repro/hbfile"
	"repro/heartbeat"
	"repro/observer"
)

func beatSteadily(hb *heartbeat.Heartbeat, clk *clock.Virtual, n int, gap time.Duration) {
	for i := 0; i < n; i++ {
		clk.Advance(gap)
		hb.Beat()
	}
}

// attach drains st into a fresh Window: what a consumer attaching now
// sees of the application — its count, goal and recent history.
func attach(t *testing.T, st observer.Stream) *observer.Window {
	t.Helper()
	w := observer.NewWindow(0)
	if _, err := observer.DrainInto(st, w); err != nil {
		t.Fatal(err)
	}
	return w
}

// judge classifies w over window beats (0: the application's default):
// the count, goal and rate a consumer reads off its Window.
func judge(w *observer.Window, window int) observer.Status {
	return (&observer.Classifier{Window: window}).ClassifyWindow(w)
}

func wantRate(t *testing.T, w *observer.Window, window int, want float64) {
	t.Helper()
	st := judge(w, window)
	if !st.RateOK || st.Rate < want*0.999 || st.Rate > want*1.001 {
		t.Fatalf("rate over %d = %v (ok %v), want %v", window, st.Rate, st.RateOK, want)
	}
}

// The four tests below keep the names of the Source adapters they used to
// exercise (HeartbeatSource, ThreadSource, FileSource, LogSource): each
// pins that the adapter's replacement — the stream of the same medium,
// attached to a Window — observes the same count, goal and rate.

func TestHeartbeatSourceSnapshot(t *testing.T) {
	clk := clock.NewVirtual()
	hb, err := heartbeat.New(10, heartbeat.WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	if err := hb.SetTarget(5, 15); err != nil {
		t.Fatal(err)
	}
	beatSteadily(hb, clk, 20, 100*time.Millisecond)

	w := attach(t, observer.HeartbeatStream(hb))
	if st := judge(w, 0); st.Count != 20 || !st.TargetSet || st.TargetMin != 5 || st.TargetMax != 15 {
		t.Fatalf("count %d, target [%v, %v] set %v", st.Count, st.TargetMin, st.TargetMax, st.TargetSet)
	}
	if n := len(w.Records()); n != 10 {
		t.Fatalf("records = %d, want default window 10", n)
	}
	wantRate(t, w, 0, 10)
	wantRate(t, w, 5, 10) // a smaller explicit window still works
}

func TestThreadSourceSnapshot(t *testing.T) {
	clk := clock.NewVirtual()
	hb, err := heartbeat.New(8, heartbeat.WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	tr, other := hb.Thread("w"), hb.Thread("other")
	for i := 0; i < 6; i++ {
		clk.Advance(25 * time.Millisecond)
		other.GlobalBeat()
		clk.Advance(25 * time.Millisecond)
		tr.GlobalBeat()
	}
	// One worker's view is the global stream filtered by Record.Producer.
	var mine []heartbeat.Record
	for _, rec := range attach(t, observer.HeartbeatStream(hb)).Records() {
		if rec.Producer == tr.ID() {
			mine = append(mine, rec)
		}
	}
	if r, ok := heartbeat.RateOf(mine); len(mine) != 4 || !ok || r.PerSec < 19.99 || r.PerSec > 20.01 {
		t.Fatalf("thread view = %d of the 8 retained records at %v beats/s, want 4 at 20", len(mine), r.PerSec)
	}
}

func TestFileSourceSnapshot(t *testing.T) {
	p := filepath.Join(t.TempDir(), "a.hb")
	fw, err := hbfile.Create(p, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewVirtual()
	hb, err := heartbeat.New(10, heartbeat.WithClock(clk), heartbeat.WithSink(fw))
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Close()
	hb.SetTarget(30, 35)
	beatSteadily(hb, clk, 30, 25*time.Millisecond)

	r, err := hbfile.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	w := attach(t, observer.ReaderStream(r, 0, 0, nil))
	if st := judge(w, 0); st.Count != 30 || !st.TargetSet || st.TargetMin != 30 {
		t.Fatalf("count %d, target min %v set %v", st.Count, st.TargetMin, st.TargetSet)
	}
	wantRate(t, w, 0, 40)
}

func TestLogSourceSnapshot(t *testing.T) {
	p := filepath.Join(t.TempDir(), "a.hblog")
	lw, err := hbfile.CreateLog(p, 10)
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewVirtual()
	hb, err := heartbeat.New(10, heartbeat.WithClock(clk), heartbeat.WithSink(lw))
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Close()
	hb.SetTarget(4, 6)
	beatSteadily(hb, clk, 40, 200*time.Millisecond)

	r, err := hbfile.OpenLog(p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	w := attach(t, observer.ReaderStream(r, 0, 0, nil))
	if st := judge(w, 0); st.Count != 40 || !st.TargetSet || st.TargetMin != 4 || st.TargetMax != 6 {
		t.Fatalf("count %d, target [%v, %v] set %v", st.Count, st.TargetMin, st.TargetMax, st.TargetSet)
	}
	wantRate(t, w, 0, 5)
	// A classifier over the log works end to end.
	if st := (&observer.Classifier{Clock: clk}).ClassifyWindow(w); st.Health != observer.Healthy {
		t.Fatalf("health = %v", st.Health)
	}
}

// classify judges hb the one way there is: its stream, absorbed into a
// Window, through ClassifyWindow.
func classify(t *testing.T, clk *clock.Virtual, hb *heartbeat.Heartbeat, c *observer.Classifier) observer.Status {
	t.Helper()
	if c.Clock == nil {
		c.Clock = clk
	}
	return c.ClassifyWindow(attach(t, observer.HeartbeatStream(hb)))
}

func TestClassifyHealthy(t *testing.T) {
	clk := clock.NewVirtual()
	hb, _ := heartbeat.New(10, heartbeat.WithClock(clk))
	hb.SetTarget(8, 12)
	beatSteadily(hb, clk, 20, 100*time.Millisecond)
	st := classify(t, clk, hb, &observer.Classifier{})
	if st.Health != observer.Healthy {
		t.Fatalf("health = %v (%+v)", st.Health, st)
	}
	if !st.RateOK || st.Rate < 9.9 || st.Rate > 10.1 {
		t.Fatalf("rate = %v", st.Rate)
	}
}

func TestClassifySlowAndFast(t *testing.T) {
	clk := clock.NewVirtual()
	hb, _ := heartbeat.New(10, heartbeat.WithClock(clk))
	hb.SetTarget(20, 30)
	beatSteadily(hb, clk, 20, 100*time.Millisecond) // 10 beats/s < 20
	if st := classify(t, clk, hb, &observer.Classifier{}); st.Health != observer.Slow {
		t.Fatalf("health = %v, want slow", st.Health)
	}

	hb2, _ := heartbeat.New(10, heartbeat.WithClock(clk))
	hb2.SetTarget(1, 5)
	beatSteadily(hb2, clk, 20, 100*time.Millisecond) // 10 beats/s > 5
	if st := classify(t, clk, hb2, &observer.Classifier{}); st.Health != observer.Fast {
		t.Fatalf("health = %v, want fast", st.Health)
	}
}

func TestClassifyNoTargetHealthy(t *testing.T) {
	clk := clock.NewVirtual()
	hb, _ := heartbeat.New(10, heartbeat.WithClock(clk))
	beatSteadily(hb, clk, 20, 100*time.Millisecond)
	if st := classify(t, clk, hb, &observer.Classifier{}); st.Health != observer.Healthy {
		t.Fatalf("health = %v, want healthy without target", st.Health)
	}
}

func TestClassifyFlatlined(t *testing.T) {
	clk := clock.NewVirtual()
	hb, _ := heartbeat.New(10, heartbeat.WithClock(clk))
	hb.SetTarget(8, 12)
	beatSteadily(hb, clk, 20, 100*time.Millisecond)
	// Expected interval at target min 8/s is 125ms; flatline factor 16
	// means > 2s of silence flags it. Advance 10s.
	clk.Advance(10 * time.Second)
	st := classify(t, clk, hb, &observer.Classifier{})
	if st.Health != observer.Flatlined {
		t.Fatalf("health = %v, want flatlined (%+v)", st.Health, st)
	}
	if st.SinceLast != 10*time.Second {
		t.Fatalf("SinceLast = %v", st.SinceLast)
	}
}

func TestClassifyFlatlinedWithoutTarget(t *testing.T) {
	clk := clock.NewVirtual()
	hb, _ := heartbeat.New(10, heartbeat.WithClock(clk))
	beatSteadily(hb, clk, 20, 100*time.Millisecond) // measured 10/s
	clk.Advance(time.Minute)
	st := classify(t, clk, hb, &observer.Classifier{})
	if st.Health != observer.Flatlined {
		t.Fatalf("health = %v, want flatlined from measured rate", st.Health)
	}
}

func TestClassifyErratic(t *testing.T) {
	clk := clock.NewVirtual()
	hb, _ := heartbeat.New(10, heartbeat.WithClock(clk))
	// Alternate tiny and huge gaps: mean ~0.5s, stddev ~0.5s → CV ~1.
	for i := 0; i < 10; i++ {
		if i%2 == 0 {
			clk.Advance(5 * time.Millisecond)
		} else {
			clk.Advance(1200 * time.Millisecond)
		}
		hb.Beat()
	}
	st := classify(t, clk, hb, &observer.Classifier{ErraticCV: 0.8})
	if st.Health != observer.Erratic {
		t.Fatalf("health = %v (CV=%v), want erratic", st.Health, st.IntervalCV)
	}
}

func TestClassifyUnknownAndDead(t *testing.T) {
	clk := clock.NewVirtual()
	hb, _ := heartbeat.New(10, heartbeat.WithClock(clk))
	epoch := clk.Now()
	c := &observer.Classifier{Clock: clk, Epoch: epoch, Grace: 5 * time.Second}
	if st := classify(t, clk, hb, c); st.Health != observer.Unknown {
		t.Fatalf("health = %v, want unknown inside grace", st.Health)
	}
	clk.Advance(6 * time.Second)
	if st := classify(t, clk, hb, c); st.Health != observer.Dead {
		t.Fatalf("health = %v, want dead after grace", st.Health)
	}
}

func TestHealthString(t *testing.T) {
	names := map[observer.Health]string{
		observer.Unknown:    "unknown",
		observer.Healthy:    "healthy",
		observer.Slow:       "slow",
		observer.Fast:       "fast",
		observer.Erratic:    "erratic",
		observer.Flatlined:  "flatlined",
		observer.Dead:       "dead",
		observer.Health(99): "unknown",
	}
	for h, want := range names {
		if h.String() != want {
			t.Errorf("%d.String() = %q, want %q", h, h.String(), want)
		}
	}
}

func TestMonitorRunDeliversStatuses(t *testing.T) {
	clk := clock.NewVirtual()
	hb, _ := heartbeat.New(10, heartbeat.WithClock(clk))
	hb.SetTarget(8, 12)
	beatSteadily(hb, clk, 20, 100*time.Millisecond)

	var polls atomic.Int32
	got := make(chan observer.Status, 64)
	hub := observer.NewHub(time.Millisecond, func(_ string, st observer.Status) {
		polls.Add(1)
		select {
		case got <- st:
		default:
		}
	}, observer.WithHubClassifier(func(string) *observer.Classifier {
		return &observer.Classifier{Clock: clk}
	}))
	if err := hub.Add("app", observer.HeartbeatStream(hb)); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { hub.Run(ctx); close(done) }()

	// A tick may judge the app before its first batch lands: wait for the
	// judgment of the beats.
	deadline := time.After(5 * time.Second)
	for judged := false; !judged; {
		select {
		case st := <-got:
			if judged = st.Count > 0; judged && st.Health != observer.Healthy {
				t.Fatalf("status = %+v", st)
			}
		case <-deadline:
			t.Fatal("no status of the beats delivered")
		}
	}
	cancel()
	<-done
	if polls.Load() == 0 {
		t.Fatal("no polls")
	}
}

// scriptStream is a scripted observer.Stream: each Next is one call of the
// function.
type scriptStream func(ctx context.Context) (observer.Batch, error)

func (f scriptStream) Next(ctx context.Context) (observer.Batch, error) { return f(ctx) }
