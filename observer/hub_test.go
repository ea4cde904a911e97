package observer_test

import (
	"context"
	"sync"
	"testing"
	"time"

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

func TestHubRunPublishesLowRateShardBeats(t *testing.T) {
	// No WithFlushInterval and a default shard far from its backlog
	// threshold: only the hub pump's periodic re-poll (which merges
	// pending shard records) can publish these beats.
	hb, err := heartbeat.New(10)
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Close()
	tr := hb.Thread("w")
	hub := observer.NewHub(2*time.Millisecond, nil)
	if err := hub.Add("app", observer.HeartbeatStream(hb)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { hub.Run(ctx); close(done) }()
	tr.GlobalBeat()
	tr.GlobalBeat()
	tr.GlobalBeat()
	deadline := time.After(5 * time.Second)
	for {
		if st, ok := hub.Status("app"); ok && st.Count >= 3 {
			break
		}
		select {
		case <-deadline:
			cancel()
			<-done
			t.Fatal("hub never published the sub-threshold shard beats")
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	<-done
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
