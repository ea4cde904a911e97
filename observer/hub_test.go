package observer_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/clock"
	"repro/hbnet"
	"repro/heartbeat"
	"repro/observer"
)

func TestHubStepJudgesAllAppsDeterministically(t *testing.T) {
	clk := clock.NewVirtual()
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
	clk := clock.NewVirtual()
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

// Step routes a stream's error to the onError callback, as Run's pumps do,
// and judges the application from what it delivered before failing.
func TestHubStepSurfacesStreamError(t *testing.T) {
	boom := errors.New("stream unavailable")
	var errs []error
	hub := observer.NewHub(0, nil, observer.WithHubOnError(func(name string, err error) {
		if name == "app" {
			errs = append(errs, err)
		}
	}))
	src := scriptStream(func(context.Context) (observer.Batch, error) { return observer.Batch{}, boom })
	if err := hub.Add("app", src); err != nil {
		t.Fatal(err)
	}
	st := hub.Step()[0].Status
	if len(errs) != 1 || !errors.Is(errs[0], boom) {
		t.Fatalf("onError saw %v, want the stream's error once", errs)
	}
	if st.Count != 0 || st.RateOK {
		t.Fatalf("judged %+v from a stream that delivered nothing", st)
	}
}

// Each application is judged over its classifier's Window, not over its own
// default window: twenty beats at 1/s then ten at 100/s are 29 intervals
// across 19.1s, while the default window of 10 would hold only the burst.
func TestHubWindowFollowsClassifier(t *testing.T) {
	clk := clock.NewVirtual()
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

// A Hub or Relay that has stopped leaves no timer on its virtual clock:
// neither its tick nor any pump's wait outlives Run, so a simulation that
// stops a consumer gives AutoAdvance no deadline nobody waits on.
func TestHubAndRelayRunStopTheirTimers(t *testing.T) {
	const interval = 100 * time.Millisecond
	for _, tc := range []struct {
		name string
		// start registers s on a consumer running on clk until ctx is
		// cancelled (closing done), and returns how many records it has
		// absorbed.
		start func(t *testing.T, ctx context.Context, clk *clock.Virtual, s observer.Stream, done chan<- struct{}) (absorbed func() uint64)
	}{
		{"Hub", func(t *testing.T, ctx context.Context, clk *clock.Virtual, s observer.Stream, done chan<- struct{}) func() uint64 {
			hub := observer.NewHub(interval, nil, observer.WithHubClock(clk))
			if err := hub.Add("app", s); err != nil {
				t.Fatal(err)
			}
			go func() { hub.Run(ctx); close(done) }()
			return func() uint64 {
				st, _ := hub.Status("app")
				return st.Count
			}
		}},
		{"Relay", func(t *testing.T, ctx context.Context, clk *clock.Virtual, s observer.Stream, done chan<- struct{}) func() uint64 {
			relay := hbnet.NewRelay(hbnet.WithRollupInterval(interval), hbnet.WithRelayClock(clk))
			t.Cleanup(func() { relay.Close() })
			if err := relay.AddUpstream("app", s); err != nil {
				t.Fatal(err)
			}
			go func() { relay.Run(ctx); close(done) }()
			return relay.MergedHead
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := clock.NewVirtual()
			hb, err := heartbeat.New(10, heartbeat.WithClock(clk))
			if err != nil {
				t.Fatal(err)
			}
			defer hb.Close()
			base := clk.PendingTimers()
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			absorbed := tc.start(t, ctx, clk, observer.HeartbeatStream(hb), done)
			deadline := time.After(5 * time.Second)
			for i := uint64(1); i <= 20; i++ {
				hb.Beat()
				clk.Advance(interval / 2)
				for absorbed() < i {
					select {
					case <-deadline:
						cancel()
						<-done
						t.Fatalf("beat %d was never absorbed", i)
					case <-time.After(time.Millisecond):
					}
				}
			}
			cancel()
			<-done
			if n := clk.PendingTimers(); n != base {
				t.Fatalf("PendingTimers = %d after Run returned, want %d", n, base)
			}
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
// application's window — including one a pump had in hand when Run was
// cancelled — so a later Step neither misses it nor lets a later Run
// replay it as a producer restart. The busy variant pins the
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

// A callback in progress holds its pump: a blocked callback back-pressures
// its stream. Run stopped while the first callback is blocked and batches
// are still pending returns once the callback does, having absorbed every
// batch it took, in order: an older batch absorbed after a newer one reads
// as a producer restart and resets the window, so the later Step would
// read a count or a rate that is not 1/s.
func TestHubRunStopAbsorbsQueueInOrder(t *testing.T) {
	for attempt := 0; attempt < 8; attempt++ {
		s := &floodStream{n: 66}
		blocked, release := make(chan struct{}), make(chan struct{})
		var once sync.Once
		hub := observer.NewHub(time.Hour, func(string, observer.Status) {
			once.Do(func() { close(blocked); <-release })
		})
		if err := hub.Add("a", s); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { defer close(done); hub.Run(ctx) }()
		select {
		case <-blocked:
		case <-time.After(10 * time.Second):
			t.Fatalf("attempt %d: no callback after the pump took %d batches", attempt, s.head.Load())
		}
		if taken := s.head.Load(); taken == s.n {
			t.Fatalf("attempt %d: the pump took all %d batches past a blocked callback", attempt, taken)
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

// Callbacks never overlap and arrive in judgment order, whether a pump or
// Run's tick judged: with eight applications beating under a 1 ms tick, no
// call starts while another is running, and no application's count goes
// backwards between its calls.
func TestHubCallbacksSerialized(t *testing.T) {
	const apps = 8
	var inCall atomic.Bool
	var calls atomic.Int64
	last := map[string]uint64{} // touched only inside callbacks
	var failure atomic.Value
	hub := observer.NewHub(time.Millisecond, func(name string, st observer.Status) {
		if !inCall.CompareAndSwap(false, true) {
			failure.CompareAndSwap(nil, "overlapping callbacks")
			return
		}
		defer inCall.Store(false)
		if st.Count < last[name] {
			failure.CompareAndSwap(nil, fmt.Sprintf("%s: count %d after %d", name, st.Count, last[name]))
		}
		last[name] = st.Count
		calls.Add(1)
	})
	ctx, cancel := context.WithCancel(context.Background())
	var beaters sync.WaitGroup
	for i := 0; i < apps; i++ {
		hb, err := heartbeat.New(10)
		if err != nil {
			t.Fatal(err)
		}
		defer hb.Close()
		if err := hub.Add(fmt.Sprint("app", i), observer.HeartbeatStream(hb)); err != nil {
			t.Fatal(err)
		}
		beaters.Add(1)
		go func() {
			defer beaters.Done()
			for ctx.Err() == nil {
				hb.Beat()
				time.Sleep(50 * time.Microsecond)
			}
		}()
	}
	done := make(chan struct{})
	go func() { defer close(done); hub.Run(ctx) }()
	deadline := time.After(10 * time.Second)
	for calls.Load() < 1000 && failure.Load() == nil {
		select {
		case <-deadline:
			t.Fatalf("only %d callbacks in 10s", calls.Load())
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	<-done
	beaters.Wait()
	if f := failure.Load(); f != nil {
		t.Fatal(f)
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

// lingeringStream is a stream whose Next keeps running for a while after
// its context is cancelled — a shared-memory or file read in progress —
// and whose Close records whether a Next was still in flight.
type lingeringStream struct {
	entered        chan struct{}
	inNext         atomic.Int32
	closedInNext   atomic.Bool
	closes         atomic.Int32
	lingerOnCancel time.Duration
}

func (s *lingeringStream) Next(ctx context.Context) (observer.Batch, error) {
	s.inNext.Add(1)
	defer s.inNext.Add(-1)
	select {
	case s.entered <- struct{}{}:
	default:
	}
	<-ctx.Done()
	time.Sleep(s.lingerOnCancel)
	return observer.Batch{}, ctx.Err()
}

func (s *lingeringStream) Close() error {
	if s.inNext.Load() > 0 {
		s.closedInNext.Store(true)
	}
	s.closes.Add(1)
	return nil
}

// Remove closes a stream only after its pump has left Next: closing an
// hbshm stream unmaps memory a Next in flight may still be reading.
func TestHubRemoveWaitsForPumpBeforeClose(t *testing.T) {
	s := &lingeringStream{entered: make(chan struct{}, 1), lingerOnCancel: 20 * time.Millisecond}
	hub := observer.NewHub(time.Hour, nil)
	if err := hub.Add("app", s); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { hub.Run(ctx); close(done) }()
	defer func() { cancel(); <-done }()

	<-s.entered // the pump is inside Next
	hub.Remove("app")
	if s.closedInNext.Load() {
		t.Fatal("Remove closed the stream while its pump was still inside Next")
	}
	if n := s.closes.Load(); n != 1 {
		t.Fatalf("Remove closed the stream %d times, want 1", n)
	}
	if _, ok := hub.Status("app"); ok {
		t.Fatal("removed app still reported")
	}
}
