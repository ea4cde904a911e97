package observer_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/hbnet"
	"repro/heartbeat"
	"repro/observer"
	"repro/sim"
)

func TestHubStepJudgesAllAppsDeterministically(t *testing.T) {
	clk := sim.NewClock(time.Time{})
	mkApp := func(min, max float64) *heartbeat.Heartbeat {
		hb, err := heartbeat.New(10, heartbeat.WithClock(clk))
		if err != nil {
			t.Fatal(err)
		}
		if err := hb.SetTarget(min, max); err != nil {
			t.Fatal(err)
		}
		return hb
	}
	video := mkApp(8, 12)  // will beat at 10/s: healthy
	indexer := mkApp(5, 6) // will beat at 2/s: slow

	var mu sync.Mutex
	fanout := map[string]observer.Health{}
	hub := observer.NewHub(time.Second, func(name string, st observer.Status) {
		mu.Lock()
		fanout[name] = st.Health
		mu.Unlock()
	}, observer.WithHubClassifier(func(string) *observer.Classifier {
		return &observer.Classifier{Clock: clk}
	}))
	if err := hub.Add("video", observer.HeartbeatStream(video)); err != nil {
		t.Fatal(err)
	}
	if err := hub.Add("indexer", observer.HeartbeatStream(indexer)); err != nil {
		t.Fatal(err)
	}
	if err := hub.Add("video", observer.HeartbeatStream(video)); err == nil {
		t.Fatal("duplicate Add accepted")
	}

	for i := 0; i < 40; i++ {
		clk.Advance(100 * time.Millisecond)
		video.Beat()
		if i%5 == 4 {
			indexer.Beat()
		}
	}
	sts := hub.Step()
	if len(sts) != 2 || sts[0].Name != "video" || sts[1].Name != "indexer" {
		t.Fatalf("statuses = %+v", sts)
	}
	if sts[0].Status.Health != observer.Healthy {
		t.Fatalf("video = %+v", sts[0].Status)
	}
	if sts[1].Status.Health != observer.Slow {
		t.Fatalf("indexer = %+v", sts[1].Status)
	}
	mu.Lock()
	defer mu.Unlock()
	if fanout["video"] != observer.Healthy || fanout["indexer"] != observer.Slow {
		t.Fatalf("fanout = %+v", fanout)
	}
	if st, ok := hub.Status("video"); !ok || st.Health != observer.Healthy {
		t.Fatalf("Status(video) = %+v, %v", st, ok)
	}
	if _, ok := hub.Status("nosuch"); ok {
		t.Fatal("Status invented an app")
	}
}

func TestHubStepIsIncremental(t *testing.T) {
	clk := sim.NewClock(time.Time{})
	hb, err := heartbeat.New(10, heartbeat.WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	hub := observer.NewHub(time.Second, nil, observer.WithHubClassifier(func(string) *observer.Classifier {
		return &observer.Classifier{Clock: clk}
	}))
	if err := hub.Add("app", observer.HeartbeatStream(hb)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		clk.Advance(100 * time.Millisecond)
		hb.Beat()
	}
	first := hub.Step()
	if !first[0].Status.RateOK {
		t.Fatalf("first step = %+v", first[0].Status)
	}
	// Nothing new: the second step must keep the judgment (cursor did not
	// reset, no records were re-consumed, rate unchanged).
	second := hub.Step()
	if second[0].Status.Rate != first[0].Status.Rate || second[0].Status.Count != first[0].Status.Count {
		t.Fatalf("idle step drifted: %+v vs %+v", second[0].Status, first[0].Status)
	}
}

// Each application is judged over its classifier's Window, not over its own
// default window: twenty beats at 1/s then ten at 100/s are 29 intervals
// across 19.1s, while the default window of 10 would hold only the burst.
func TestHubWindowFollowsClassifier(t *testing.T) {
	clk := sim.NewClock(time.Time{})
	hb, err := heartbeat.New(10, heartbeat.WithClock(clk), heartbeat.WithCapacity(64))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		clk.Advance(time.Second)
		hb.Beat()
	}
	for i := 0; i < 10; i++ {
		clk.Advance(10 * time.Millisecond)
		hb.Beat()
	}
	hub := observer.NewHub(time.Second, nil, observer.WithHubClassifier(func(string) *observer.Classifier {
		return &observer.Classifier{Clock: clk, Window: 30}
	}))
	if err := hub.Add("app", observer.HeartbeatStream(hb)); err != nil {
		t.Fatal(err)
	}
	if st := hub.Step()[0].Status; !st.RateOK || st.Rate < 1.5 || st.Rate > 1.55 {
		t.Fatalf("rate = %v (ok %v), want 29/19.1s ≈ 1.52 over the classifier's 30 records", st.Rate, st.RateOK)
	}
}

func TestHubRunFansOutStatuses(t *testing.T) {
	hb, err := heartbeat.New(10)
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Close()
	hb.SetTarget(1, 1e6)
	statuses := make(chan observer.NamedStatus, 64)
	hub := observer.NewHub(5*time.Millisecond, func(name string, st observer.Status) {
		select {
		case statuses <- observer.NamedStatus{Name: name, Status: st}:
		default:
		}
	})
	if err := hub.Add("live", observer.HeartbeatStream(hb)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { hub.Run(ctx); close(done) }()

	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				hb.Beat()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	deadline := time.After(10 * time.Second)
	var got observer.NamedStatus
	for healthy := false; !healthy; {
		select {
		case got = <-statuses:
			healthy = got.Name == "live" && got.Status.Health == observer.Healthy
		case <-deadline:
			t.Fatal("hub never judged the live app healthy")
		}
	}
	close(stop)
	cancel()
	<-done
	if got.Status.Count == 0 {
		t.Fatalf("status = %+v", got.Status)
	}
}

// Only a pump's bounded wait publishes these beats: no WithFlushInterval,
// and a default shard far from its backlog threshold. Re-entering Next is
// what merges pending shard records, so every consumer's pump must wake on
// its interval even while its stream has nothing to report.
func TestHubRunPublishesLowRateShardBeats(t *testing.T) {
	for _, tc := range []struct {
		name string
		// start registers s, runs the consumer until ctx is cancelled
		// (closing done), and returns how many records it has absorbed.
		start func(t *testing.T, ctx context.Context, s observer.Stream, done chan<- struct{}) (absorbed func() uint64)
	}{
		{"Hub", func(t *testing.T, ctx context.Context, s observer.Stream, done chan<- struct{}) func() uint64 {
			hub := observer.NewHub(2*time.Millisecond, nil)
			if err := hub.Add("app", s); err != nil {
				t.Fatal(err)
			}
			go func() { hub.Run(ctx); close(done) }()
			return func() uint64 {
				st, _ := hub.Status("app")
				return st.Count
			}
		}},
		{"Relay", func(t *testing.T, ctx context.Context, s observer.Stream, done chan<- struct{}) func() uint64 {
			relay := hbnet.NewRelay(hbnet.WithRollupInterval(2 * time.Millisecond))
			t.Cleanup(func() { relay.Close() })
			if err := relay.AddUpstream("app", s); err != nil {
				t.Fatal(err)
			}
			go func() { relay.Run(ctx); close(done) }()
			return relay.MergedHead
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hb, err := heartbeat.New(10)
			if err != nil {
				t.Fatal(err)
			}
			defer hb.Close()
			tr := hb.Thread("w")
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			absorbed := tc.start(t, ctx, observer.HeartbeatStream(hb), done)
			tr.GlobalBeat()
			tr.GlobalBeat()
			tr.GlobalBeat()
			deadline := time.After(5 * time.Second)
			for absorbed() < 3 {
				select {
				case <-deadline:
					cancel()
					<-done
					t.Fatal("the sub-threshold shard beats were never published")
				case <-time.After(time.Millisecond):
				}
			}
			cancel()
			<-done
		})
	}
}

// cancelStream hands over its next batch only once a wait's context is
// cancelled: consumed from the stream just as the hub stops. While busy it
// also has a batch ready for every Next under an already cancelled context,
// like a producer beating faster than the hub absorbs. Batch k carries the
// one record with Seq k, stamped k seconds after the epoch.
type cancelStream struct {
	busy    atomic.Bool
	head    uint64
	waiting chan struct{} // signalled each time a Next starts to wait
}

func (s *cancelStream) Next(ctx context.Context) (observer.Batch, error) {
	if ctx.Err() == nil {
		select {
		case s.waiting <- struct{}{}:
		default:
		}
		<-ctx.Done()
	} else if !s.busy.Load() {
		return observer.Batch{}, ctx.Err()
	}
	if !errors.Is(ctx.Err(), context.Canceled) {
		return observer.Batch{}, ctx.Err() // an idle poll deadline, not a shutdown
	}
	s.head++
	rec := heartbeat.Record{Seq: s.head, Time: time.Unix(int64(s.head), 0)}
	return observer.Batch{Records: []heartbeat.Record{rec}, Count: s.head}, nil
}

// When Run stops, every batch its pumps took off a stream is in the
// application's window — including one still queued for the judging loop
// and one a pump had in hand — so a later Step neither misses it nor lets a
// later Run replay it as a producer restart. The busy variant pins the
// shutdown rule: a stream that always has data under a cancelled context
// still lets Run return.
func TestHubRunStopAbsorbsInHandDelivery(t *testing.T) {
	for _, busy := range []bool{false, true} {
		s := &cancelStream{waiting: make(chan struct{}, 1)}
		hub := observer.NewHub(time.Hour, nil)
		if err := hub.Add("a", s); err != nil {
			t.Fatal(err)
		}
		for run := 1; run <= 4; run++ {
			s.busy.Store(busy)
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() { defer close(done); hub.Run(ctx) }()
			select {
			case <-s.waiting:
			case <-time.After(10 * time.Second):
				t.Fatalf("busy=%v run %d: the pump never waited in Next", busy, run)
			}
			cancel()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("busy=%v run %d: Run did not return with the stream still delivering", busy, run)
			}
			s.busy.Store(false)
			st := hub.Step()[0].Status
			if st.Count != s.head || !st.LastBeat.Equal(time.Unix(int64(s.head), 0)) {
				t.Fatalf("busy=%v run %d: count %d, last beat %v; the stream's head is %d", busy, run, st.Count, st.LastBeat.Unix(), s.head)
			}
			// One record a second from the first: a window reset by a
			// replayed batch, or missing one, reads another rate.
			if s.head >= 2 && (!st.RateOK || st.Rate != 1) {
				t.Fatalf("busy=%v run %d: rate %v (ok %v) over %d records, want 1/s", busy, run, st.Rate, st.RateOK, s.head)
			}
		}
	}
}

// floodStream has n one-record batches ready at once (numbered as
// cancelStream's), then nothing more.
type floodStream struct {
	n    uint64
	head atomic.Uint64
}

func (s *floodStream) Next(ctx context.Context) (observer.Batch, error) {
	if s.head.Load() == s.n {
		<-ctx.Done()
		return observer.Batch{}, ctx.Err()
	}
	k := s.head.Add(1)
	rec := heartbeat.Record{Seq: k, Time: time.Unix(int64(k), 0)}
	return observer.Batch{Records: []heartbeat.Record{rec}, Count: k}, nil
}

// A pump left holding a batch when the judging loop stops absorbs it behind
// the batches still queued for the loop, never ahead of them: an older
// batch absorbed after a newer one reads as a producer restart and resets
// the window. The first batch is judged and held there by onStatus, the
// next 64 fill the loop's queue, and the pump holds the last; the loop then
// stops either at once or after draining some of the queue.
func TestHubRunStopAbsorbsQueueInOrder(t *testing.T) {
	for attempt := 0; attempt < 8; attempt++ {
		s := &floodStream{n: 66}
		release := make(chan struct{})
		var once sync.Once
		hub := observer.NewHub(time.Hour, func(string, observer.Status) { once.Do(func() { <-release }) })
		if err := hub.Add("a", s); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { defer close(done); hub.Run(ctx) }()
		deadline := time.After(10 * time.Second)
		for s.head.Load() < s.n {
			select {
			case <-deadline:
				t.Fatalf("attempt %d: the pump took %d of %d batches", attempt, s.head.Load(), s.n)
			case <-time.After(time.Millisecond):
			}
		}
		cancel()
		close(release)
		<-done
		st := hub.Step()[0].Status
		if st.Count != s.n || !st.RateOK || st.Rate != 1 {
			t.Fatalf("attempt %d: count %d, rate %v (ok %v); want %d at 1/s", attempt, st.Count, st.Rate, st.RateOK, s.n)
		}
	}
}

func TestHubRunRestartable(t *testing.T) {
	hb, err := heartbeat.New(10)
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Close()
	hub := observer.NewHub(2*time.Millisecond, nil)
	if err := hub.Add("app", observer.HeartbeatStream(hb)); err != nil {
		t.Fatal(err)
	}

	runOnce := func(wantCount uint64) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { hub.Run(ctx); close(done) }()
		deadline := time.After(5 * time.Second)
		for {
			if st, ok := hub.Status("app"); ok && st.Count >= wantCount {
				break
			}
			select {
			case <-deadline:
				cancel()
				<-done
				t.Fatalf("hub never observed count %d", wantCount)
			case <-time.After(time.Millisecond):
			}
		}
		cancel()
		<-done
	}

	hb.Beat()
	runOnce(1)
	// A second Run must observe new beats: pumps restart after the first
	// Run returns.
	hb.Beat()
	hb.Beat()
	runOnce(3)
}

func TestHubAddWhileRunningAndRemove(t *testing.T) {
	hub := observer.NewHub(2*time.Millisecond, nil)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { hub.Run(ctx); close(done) }()

	hb, err := heartbeat.New(10)
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Close()
	time.Sleep(5 * time.Millisecond) // Run is live
	late := &closeCounter{Stream: observer.HeartbeatStream(hb)}
	if err := hub.Add("late", late); err != nil {
		t.Fatal(err)
	}
	hb.Beat()
	deadline := time.After(5 * time.Second)
	for {
		if st, ok := hub.Status("late"); ok && st.Count > 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("late-added app never judged")
		case <-time.After(time.Millisecond):
		}
	}
	hub.Remove("late")
	hub.Remove("late")
	if _, ok := hub.Status("late"); ok {
		t.Fatal("removed app still reported")
	}
	if n := late.closes.Load(); n != 1 {
		t.Fatalf("Remove closed the stream %d times, want 1", n)
	}
	cancel()
	<-done
}
