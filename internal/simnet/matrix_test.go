package simnet

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/clock"
	"repro/control"
	"repro/heartbeat"
	"repro/observer"
	"repro/scheduler"
)

// matrixBaseSeed is the fixed seed `make ci` replays on every run; the
// matrix additionally runs one rotating seed (logged, for reproduction) so
// coverage widens over time without giving up reproducibility.
const matrixBaseSeed = 1

// matrixSize is how many fixed-seed scenarios one matrix run executes.
// Overridable via SIMNET_MATRIX for local sweeps (e.g. SIMNET_MATRIX=1000
// go test -run ScenarioMatrix ./internal/simnet).
func matrixSize() int {
	if s := os.Getenv("SIMNET_MATRIX"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 110
}

// TestGenerateIsDeterministic pins the reproducibility contract: the seed
// alone determines the scenario.
func TestGenerateIsDeterministic(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		a, b := Generate(seed), Generate(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d generated two different scenarios:\n%+v\n%+v", seed, a, b)
		}
	}
}

// TestGenerateWithPinsScale pins the GenConfig contract: a requested
// producer count is honored exactly (the bare generator caps producers at
// 3 and used to silently inflate a small count up to the leaf count), the
// zero config reproduces Generate byte for byte, and every fault in the
// schedule still targets a producer that exists.
func TestGenerateWithPinsScale(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		if a, b := Generate(seed), GenerateWith(seed, GenConfig{}); !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: GenerateWith zero config diverges from Generate:\n%+v\n%+v", seed, a, b)
		}
		for _, producers := range []int{1, 2, 4, 9, 33} {
			sc := GenerateWith(seed, GenConfig{Producers: producers})
			if sc.Producers != producers {
				t.Fatalf("seed %d: pinned %d producers, got %d", seed, producers, sc.Producers)
			}
			if sc.Topology == TopoRelayTree && (sc.Leaves < 1 || sc.Leaves > sc.Producers) {
				t.Fatalf("seed %d: %d leaves for %d pinned producers", seed, sc.Leaves, producers)
			}
			for _, ev := range sc.Events {
				if ev.Producer < 0 || ev.Producer >= sc.Producers {
					t.Fatalf("seed %d: event %v targets producer %d of %d", seed, ev.Kind, ev.Producer, sc.Producers)
				}
			}
			if again := GenerateWith(seed, GenConfig{Producers: producers}); !reflect.DeepEqual(sc, again) {
				t.Fatalf("seed %d producers %d: GenerateWith is not deterministic", seed, producers)
			}
		}
		sc := GenerateWith(seed, GenConfig{Producers: 6, Leaves: 2})
		if sc.Producers != 6 {
			t.Fatalf("seed %d: pinned 6 producers with 2 leaves, got %d", seed, sc.Producers)
		}
		if sc.Topology == TopoRelayTree && sc.Leaves != 2 {
			t.Fatalf("seed %d: pinned 2 leaves, got %d", seed, sc.Leaves)
		}
	}
}

// TestScenarioMatrix is the tentpole suite: hundreds of simulated seconds
// of lapped rings, producer restarts, file recreations, link blips,
// partitions, and relay outages, across every topology, in a few real
// seconds — every scenario checked against the simcheck delivery
// contract, every failure reporting the seed that replays it exactly.
func TestScenarioMatrix(t *testing.T) {
	n := matrixSize()
	seeds := make([]int64, 0, n+1)
	for i := 0; i < n; i++ {
		seeds = append(seeds, matrixBaseSeed+int64(i))
	}
	// The rotating seed: changes daily, logged so a failure is replayable
	// with SIMNET_SEED even after the day rolls over.
	rotating := time.Now().Unix() / 86400
	seeds = append(seeds, rotating)
	if s := os.Getenv("SIMNET_SEED"); s != "" {
		// Replay mode: exactly the named seed.
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("SIMNET_SEED: %v", err)
		}
		seeds = []int64{v}
	}
	t.Logf("matrix: %d fixed seeds from %d, rotating seed %d", n, matrixBaseSeed, rotating)

	var (
		mu       sync.Mutex
		total    Stats
		count    int
		topo     [3]int
		started  = time.Now()
		failures int32
	)
	// Scenarios are fully isolated (own clock, own network, own tempdir):
	// run a few at a time so the matrix overlaps file I/O and settling.
	sem := make(chan struct{}, 4)
	var wg sync.WaitGroup
	for _, seed := range seeds {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			sc := Generate(seed)
			stats, err := sc.Run(t.TempDir())
			if err != nil {
				atomic.AddInt32(&failures, 1)
				t.Errorf("scenario FAILED — replay with SIMNET_SEED=%d go test -run TestScenarioMatrix ./internal/simnet\n  %s\n  %v", seed, sc, err)
				return
			}
			mu.Lock()
			count++
			topo[sc.Topology]++
			total.SimSeconds += stats.SimSeconds
			total.Delivered += stats.Delivered
			total.Missed += stats.Missed
			total.Restarts += stats.Restarts
			total.Reconnects += stats.Reconnects
			total.Lives += stats.Lives
			if stats.Resumed {
				total.Resumed = true
			}
			total.Drains += stats.Drains
			total.Reclaims += stats.Reclaims
			if stats.MaxRemap > total.MaxRemap {
				total.MaxRemap = stats.MaxRemap
			}
			total.Handoffs += stats.Handoffs
			total.Shed += stats.Shed
			mu.Unlock()
		}(seed)
	}
	wg.Wait()
	elapsed := time.Since(started)
	t.Logf("matrix: %d scenarios (direct=%d file=%d relay-tree=%d), %.0f simulated seconds in %v: delivered=%d missed=%d restarts=%d reconnects=%d lives=%d resumed=%v drains=%d reclaims=%d maxremap=%.2f handoffs=%d shed=%d",
		count, topo[0], topo[1], topo[2], total.SimSeconds, elapsed.Round(time.Millisecond),
		total.Delivered, total.Missed, total.Restarts, total.Reconnects, total.Lives, total.Resumed,
		total.Drains, total.Reclaims, total.MaxRemap, total.Handoffs, total.Shed)
	if failures > 0 {
		return // per-scenario errors already reported with their seeds
	}
	if os.Getenv("SIMNET_SEED") != "" {
		return // replay mode: coverage gates don't apply to one scenario
	}
	if os.Getenv("SIMNET_MATRIX") != "" {
		// Local sweep mode: any size is legal (including tiny smoke runs);
		// the absolute gates below are calibrated for the CI default.
		return
	}

	// Coverage gates: the matrix must actually exercise the ugly cases it
	// exists for, and must do so at simulation speed.
	if count < 100 {
		t.Errorf("matrix ran %d scenarios, want >= 100", count)
	}
	if total.SimSeconds < 500 {
		t.Errorf("matrix covered %.0f simulated seconds, want >= 500", total.SimSeconds)
	}
	if total.Delivered == 0 || total.Missed == 0 {
		t.Errorf("matrix never exercised loss accounting: delivered=%d missed=%d", total.Delivered, total.Missed)
	}
	if total.Restarts == 0 || total.Lives <= count {
		t.Errorf("matrix never exercised producer restarts: restarts=%d lives=%d", total.Restarts, total.Lives)
	}
	if total.Reconnects == 0 {
		t.Errorf("matrix never exercised reconnects")
	}
	if !total.Resumed {
		t.Errorf("matrix never exercised consumer cursor-resume")
	}
	if total.Drains == 0 || total.Reclaims == 0 {
		t.Errorf("matrix never exercised the balancer drain/reclaim arc: drains=%d reclaims=%d", total.Drains, total.Reclaims)
	}
	if total.Handoffs == 0 {
		t.Errorf("matrix never exercised the leaf-die handoff arc")
	}
	for i, n := range topo {
		if n == 0 {
			t.Errorf("matrix never ran topology %v", Topology(i))
		}
	}
}

// TestVirtualTimeControlLoop drives the wall-clock control loops — an
// observer.Hub, and a second hub whose judgments drive a
// scheduler.CoreScheduler — entirely under virtual time: ~2 virtual minutes of judgments and decisions in well under a
// real second, including a flatline detection, with not one real sleep.
func TestVirtualTimeControlLoop(t *testing.T) {
	clk := clock.NewVirtual()
	start := clk.Now()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go clk.AutoAdvance(ctx, 0)

	hb, err := heartbeat.New(20, heartbeat.WithClock(clk), heartbeat.WithCapacity(1<<12))
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Close()
	if err := hb.SetTarget(5, 1e6); err != nil {
		t.Fatal(err)
	}

	// The application: beats every 100ms virtual, then goes silent.
	silentAfter := clk.Now().Add(time.Minute)
	go func() {
		for clock.SleepCtx(ctx, clk, 100*time.Millisecond) {
			if clk.Now().Before(silentAfter) {
				hb.Beat()
			}
		}
	}()

	var mu sync.Mutex
	healths := map[observer.Health]int{}
	hub := observer.NewHub(500*time.Millisecond, func(name string, st observer.Status) {
		mu.Lock()
		healths[st.Health]++
		mu.Unlock()
	}, observer.WithHubClock(clk))
	if err := hub.Add("app", observer.HeartbeatStream(hb)); err != nil {
		t.Fatal(err)
	}
	hubDone := make(chan struct{})
	hctx, hcancel := context.WithCancel(ctx)
	go func() { defer close(hubDone); hub.Run(hctx) }()

	var samples atomic.Int64
	sched, err := scheduler.New(&fakeMachine{},
		scheduler.StepperPolicy{Stepper: &control.Stepper{TargetMin: 5, TargetMax: 1e6}})
	if err != nil {
		t.Fatal(err)
	}
	schedHub := observer.NewHub(500*time.Millisecond, func(_ string, st observer.Status) {
		sched.Step(st)
		samples.Add(1)
	}, observer.WithHubClock(clk))
	if err := schedHub.Add("app", observer.HeartbeatStream(hb)); err != nil {
		t.Fatal(err)
	}
	defer schedHub.Remove("app")
	sctx, scancel := context.WithCancel(ctx)
	schedDone := make(chan struct{})
	go func() {
		defer close(schedDone)
		schedHub.Run(sctx)
	}()

	// Wait (real time) until two virtual minutes have elapsed.
	if err := waitReal(30*time.Second, 1, func() bool { return clk.Now().Sub(start) >= 2*time.Minute }, func() error {
		return fmt.Errorf("virtual time stalled at %v", clk.Now().Sub(start))
	}); err != nil {
		t.Fatal(err)
	}
	hcancel()
	scancel()
	<-hubDone
	<-schedDone

	mu.Lock()
	defer mu.Unlock()
	if healths[observer.Healthy] == 0 {
		t.Fatalf("hub never judged the app healthy: %v", healths)
	}
	if healths[observer.Flatlined]+healths[observer.Dead] == 0 {
		t.Fatalf("hub never noticed the virtual silence: %v", healths)
	}
	if samples.Load() < 100 {
		t.Fatalf("scheduler made %d decisions across 2 virtual minutes, want >= 100", samples.Load())
	}
}

type fakeMachine struct{ cores atomic.Int32 }

func (m *fakeMachine) SetCores(n int) int {
	if n < 1 {
		n = 1
	}
	if n > 8 {
		n = 8
	}
	m.cores.Store(int32(n))
	return n
}
func (m *fakeMachine) Cores() int {
	if c := m.cores.Load(); c >= 1 {
		return int(c)
	}
	return 1
}
func (m *fakeMachine) MaxCores() int { return 8 }
