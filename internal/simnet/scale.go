package simnet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/clock"
	"repro/hbnet"
	"repro/internal/loadgen"
	"repro/internal/simcheck"
	"repro/observer"
)

// This file is the scale half of the matrix: where scenario.go proves the
// delivery contract with goroutine-per-producer fidelity at N ≤ a handful,
// ScaleScenario proves the same contract at 10k–1M producers. The fleet is
// synthetic (package loadgen: one pump goroutine, producers as heap
// entries), the relay tree is real (leaf relays subscribe the fleet's app
// streams, a root relay dials every leaf's merged AND rollup feeds), and
// the whole run rides clock.Virtual/AutoAdvance, so a five-virtual-second
// million-producer run costs only the events in it. The run's verdict is
// the usual simcheck conservation ledger plus the two budgets the scale
// axis exists to police: p99 record→consumer virtual latency, and live
// heap bytes per producer (the O(apps)-not-O(producers) root-state claim,
// checked against an explicit ceiling).

// ScaleScenario is one generated scale configuration. Zero values select
// the noted defaults.
type ScaleScenario struct {
	Seed      int64
	Producers int           // synthetic producers (default 10k)
	Apps      int           // applications the producers spread over (default 32)
	Leaves    int           // leaf relays (default 4)
	Duration  time.Duration // virtual horizon (default 5s)
	BeatEvery time.Duration // base inter-beat interval (default 1s)
	PumpTick  time.Duration // loadgen pump quantum (default 10ms)
	Rollup    time.Duration // relay rollup interval (default 500ms)
	Jitter    float64       // per-beat rate jitter fraction
	ZipfS     float64       // app-popularity skew exponent
	ChurnFrac float64       // fraction of producers that leave mid-run
	Bursts    int           // correlated silence bursts
	BurstFrac float64       // producer-id share each burst silences
	BurstLen  time.Duration // silence window length
	MaxLink   time.Duration // per-link latency drawn in [0, MaxLink]
	Handoffs  int           // mid-run app-stream re-homes between leaves (needs Leaves >= 2)

	MergedRetain int // relay replay-ring retention (default 1<<17)

	// The budgets. P99Ceiling bounds the p99 record-time → consumer
	// delivery virtual lag; BytesPerProducerCeiling bounds live heap
	// growth per producer, measured by runtime.ReadMemStats around the
	// run. Both fail the run when exceeded (default 2.5s, 512B +
	// 64MiB/Producers — the affine shape lets the fixed tier cost, rings
	// and frame caches, amortize away as the fleet grows).
	P99Ceiling              time.Duration
	BytesPerProducerCeiling float64
}

func (sc ScaleScenario) withDefaults() ScaleScenario {
	if sc.Producers <= 0 {
		sc.Producers = 10_000
	}
	if sc.Apps <= 0 {
		sc.Apps = 32
	}
	if sc.Apps > sc.Producers {
		sc.Apps = sc.Producers
	}
	if sc.Leaves <= 0 {
		sc.Leaves = 4
	}
	if sc.Leaves > sc.Apps {
		sc.Leaves = sc.Apps
	}
	if sc.Duration <= 0 {
		sc.Duration = 5 * time.Second
	}
	if sc.BeatEvery <= 0 {
		sc.BeatEvery = time.Second
	}
	if sc.PumpTick <= 0 {
		sc.PumpTick = 10 * time.Millisecond
	}
	if sc.Rollup <= 0 {
		sc.Rollup = 500 * time.Millisecond
	}
	if sc.MergedRetain <= 0 {
		sc.MergedRetain = 1 << 17
	}
	if sc.P99Ceiling <= 0 {
		sc.P99Ceiling = 2500 * time.Millisecond
	}
	if sc.BytesPerProducerCeiling <= 0 {
		sc.BytesPerProducerCeiling = 512 + float64(64<<20)/float64(sc.Producers)
	}
	return sc
}

func (sc ScaleScenario) String() string {
	return fmt.Sprintf("seed=%d producers=%d apps=%d leaves=%d dur=%v beat=%v churn=%.2f bursts=%d",
		sc.Seed, sc.Producers, sc.Apps, sc.Leaves, sc.Duration, sc.BeatEvery, sc.ChurnFrac, sc.Bursts)
}

// GenerateScale expands (seed, producers) into a scale scenario, drawing
// skew, churn and burst shape from the seed so a failing run replays from
// `SCALE_SEED=<seed>` alone. The beat rate scales down as the fleet grows
// so total record volume stays bounded (≈3M records at 1M producers).
func GenerateScale(seed int64, producers int) ScaleScenario {
	rng := rand.New(rand.NewSource(seed ^ 0x5ca1e))
	sc := ScaleScenario{
		Seed:      seed,
		Producers: producers,
		Apps:      32,
		Leaves:    4,
		Duration:  5 * time.Second,
		Rollup:    500 * time.Millisecond,
		PumpTick:  10 * time.Millisecond,
		Jitter:    0.15 + 0.2*rng.Float64(),
		ZipfS:     1.02 + 0.4*rng.Float64(),
		ChurnFrac: 0.1 + 0.2*rng.Float64(),
		Bursts:    1 + rng.Intn(2),
		BurstFrac: 0.2 + 0.3*rng.Float64(),
		BurstLen:  time.Duration((0.5 + 0.5*rng.Float64()) * float64(time.Second)),
		MaxLink:   time.Duration(rng.Intn(3)) * time.Millisecond,
	}
	if producers < 1000 {
		sc.Apps, sc.Leaves = 8, 2
	}
	if producers > 200_000 {
		// Coarser pump quanta at extreme scale: fewer, larger batches.
		sc.PumpTick = 25 * time.Millisecond
	}
	beats := 5
	if producers > 0 {
		if b := 3_000_000 / producers; b < beats {
			beats = b
		}
	}
	if beats < 2 {
		beats = 2
	}
	sc.BeatEvery = sc.Duration / time.Duration(beats)
	// Elastic-membership churn: every scale run re-homes a few app streams
	// between leaves mid-run through the cursor-preserving handoff path.
	// Drawn last so earlier seeds' shapes are unchanged by its addition.
	sc.Handoffs = 1 + rng.Intn(3)
	return sc
}

// ScaleStats summarizes one scale run.
type ScaleStats struct {
	Producers int
	Delivered uint64
	Missed    uint64

	Left     int    // producers that churned out
	Rejoined int    // producers that churned back in (a new Life)
	Silenced int    // producer-burst memberships applied
	Handoffs int    // app streams re-homed between leaves mid-run
	Shed     uint64 // records shed to backpressure across the tree's rings

	P50, P95, P99 time.Duration // record-time → consumer delivery, virtual

	HeapBytes        uint64 // live-heap growth over the run (GC'd before/after)
	BytesPerProducer float64

	RootApps       int // root relay raw upstreams — the leaves, not the fleet
	RootRollupApps int // compacted applications at the root — the apps, not the fleet

	SimSeconds  float64
	RealSeconds float64
}

// Run executes the scale scenario and verifies the delivery contract and
// its budgets. The returned error describes the first violated invariant;
// callers report SCALE_SEED for exact replay.
func (sc ScaleScenario) Run() (ScaleStats, error) {
	sc = sc.withDefaults()
	stats := ScaleStats{Producers: sc.Producers}

	// Heap baseline before anything in the run is allocated: the delta at
	// the end, with the whole tier still live, is what the run costs.
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	realStart := time.Now() //hbvet:allow wallclock -- the real-time budget bounds the harness itself, not a simulated component

	clk := clock.NewVirtual()
	nw := New(clk)
	rng := rand.New(rand.NewSource(sc.Seed ^ 0x5ca1e))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go clk.AutoAdvance(ctx, 0)

	fleet := loadgen.New(loadgen.Config{
		Seed:      sc.Seed,
		Producers: sc.Producers,
		Apps:      sc.Apps,
		BeatEvery: sc.BeatEvery,
		Jitter:    sc.Jitter,
		ZipfS:     sc.ZipfS,
		Duration:  sc.Duration,
		ChurnFrac: sc.ChurnFrac,
		Bursts:    sc.Bursts,
		BurstFrac: sc.BurstFrac,
		BurstLen:  sc.BurstLen,
		PumpTick:  sc.PumpTick,
	}, clk)

	// Leaf tier: each leaf relay subscribes a round-robin share of the
	// fleet's app streams — producers never touch a relay; applications do.
	// A link latency is drawn only when MaxLink is positive.
	link := func() time.Duration {
		if sc.MaxLink <= 0 {
			return 0
		}
		return time.Duration(rng.Int63n(int64(sc.MaxLink + 1)))
	}
	var (
		appsMu sync.Mutex
		appSum = map[string]uint64{} // compacted-feed records + missed per app
		histMu sync.Mutex
		hist   = loadgen.NewHist() // record time → consumer delivery, virtual
	)
	tree, err := newRelayTree(ctx, clk, nw, treeConfig{
		name:   "scale",
		leaves: sc.Leaves,
		rollup: sc.Rollup,
		retain: sc.MergedRetain,
		link:   link,
		attach: func(li int, leaf *hbnet.Relay) error {
			for ai := li; ai < fleet.Apps(); ai += sc.Leaves {
				if err := leaf.AddUpstream(fleet.AppName(ai), fleet.Stream(ai)); err != nil {
					return err
				}
			}
			return nil
		},
		// The consumer reads the root's compacted feed: one window per
		// application, checked against the fleet's per-app heads.
		rollupFeed: "apps",
		onBatch: func(now time.Time, b observer.Batch) {
			histMu.Lock()
			for _, r := range b.Records {
				hist.ObserveDuration(now.Sub(r.Time))
			}
			histMu.Unlock()
		},
		onRollups: func(rb hbnet.RollupBatch) {
			appsMu.Lock()
			for _, r := range rb.Rollups {
				appSum[r.App] += r.Records + r.Missed
			}
			appsMu.Unlock()
		},
	})
	if err != nil {
		return stats, err
	}
	defer tree.close()
	// The root also dials every leaf's rollup feed (already-downsampled
	// windows) into its compactor, so root rollup state is one window per
	// application — O(apps) — however many producers beat below.
	root := tree.root.relay
	for li, leaf := range tree.leaves {
		if _, err := root.DialRollupUpstream(fmt.Sprintf("leaf%d", li), leaf.addr, "rollup", tree.clientOpts("root")...); err != nil {
			return stats, err
		}
	}
	if err := tree.root.srv.PublishRollup("apps", root.CompactedFeed()); err != nil {
		return stats, err
	}
	if err := tree.start(); err != nil {
		return stats, err
	}

	start := clk.Now()
	go fleet.Run(ctx)

	// Mid-run elastic churn: re-home app streams between leaves through the
	// cursor-preserving handoff path, spread across the run — membership
	// changes while the whole fleet beats, answered by the same
	// conservation verdict at the end.
	handoffs := sc.Handoffs
	if sc.Leaves < 2 {
		handoffs = 0
	}
	appLeaf := make([]int, fleet.Apps())
	for ai := range appLeaf {
		appLeaf[ai] = ai % sc.Leaves
	}
	for h := 0; h < handoffs; h++ {
		frac := float64(h+1) / float64(handoffs+1)
		if !sleepUntilVirtual(ctx, clk, start.Add(time.Duration(frac*float64(sc.Duration)))) {
			return stats, ctx.Err()
		}
		ai := rng.Intn(fleet.Apps())
		from, to := appLeaf[ai], (appLeaf[ai]+1)%sc.Leaves
		if err := hbnet.RebalanceStream(tree.leaves[from].relay, tree.leaves[to].relay, fleet.AppName(ai)); err != nil {
			return stats, fmt.Errorf("handoff %s leaf%d→leaf%d: %w", fleet.AppName(ai), from, to, err)
		}
		appLeaf[ai] = to
		stats.Handoffs++
	}

	// Run to the horizon, pause emission, then settle: every hop agrees on
	// the fleet's published total, and the compacted per-app ledger matches
	// the fleet's per-app heads.
	if !sleepUntilVirtual(ctx, clk, start.Add(sc.Duration)) {
		return stats, ctx.Err()
	}
	fleet.Pause()
	if err := tree.settle(func(total uint64) (bool, string) {
		fleetTotal := fleet.TotalPublished()
		appsMatch := true
		appsMu.Lock()
		for i := 0; i < fleet.Apps(); i++ {
			if appSum[fleet.AppName(i)] != fleet.AppHead(i) {
				appsMatch = false
				break
			}
		}
		appsMu.Unlock()
		return total == fleetTotal && appsMatch, fmt.Sprintf(" fleet=%d appsMatch=%v", fleetTotal, appsMatch)
	}); err != nil {
		return stats, err
	}

	// Verdict: conservation at every hop, then the scale budgets.
	stats.SimSeconds = clk.Now().Sub(start).Seconds()
	tally, err := tree.verdict()
	stats.Delivered, stats.Missed, stats.Shed = tally.delivered, tally.missed, tally.shed
	if err != nil {
		return stats, err
	}
	if missed := root.RollupUpstreamMissed(); missed != 0 {
		return stats, fmt.Errorf("root lost %d rollup emissions from its leaves", missed)
	}
	// The O(apps) shape: the root's raw upstreams are its leaves and its
	// rollup state is one window per application — neither axis mentions
	// the producer count.
	stats.RootApps = len(root.Apps())
	stats.RootRollupApps = len(root.RollupApps())
	if stats.RootApps != sc.Leaves {
		return stats, fmt.Errorf("root tracks %d raw upstreams, want %d leaves", stats.RootApps, sc.Leaves)
	}
	if stats.RootRollupApps != fleet.Apps() {
		return stats, fmt.Errorf("root compacts %d applications, want %d", stats.RootRollupApps, fleet.Apps())
	}
	// The load shape actually happened: churn and silence bursts are part
	// of the scenario's claim, not decoration.
	stats.Left, stats.Rejoined = fleet.Churned()
	stats.Silenced = fleet.Silenced()
	if sc.ChurnFrac > 0 && int(sc.ChurnFrac*float64(sc.Producers)) > 0 {
		if stats.Left == 0 || stats.Rejoined == 0 {
			return stats, fmt.Errorf("churn unexercised: left=%d rejoined=%d", stats.Left, stats.Rejoined)
		}
	}
	if sc.Bursts > 0 && stats.Silenced == 0 {
		return stats, errors.New("silence bursts unexercised")
	}
	if handoffs > 0 && stats.Handoffs != handoffs {
		return stats, fmt.Errorf("handoff churn unexercised: %d of %d re-homes ran", stats.Handoffs, handoffs)
	}

	// The budgets, measured with the whole tier still live.
	histMu.Lock()
	stats.P50 = hist.QuantileDuration(0.50)
	stats.P95 = hist.QuantileDuration(0.95)
	stats.P99 = hist.QuantileDuration(0.99)
	histMu.Unlock()
	runtime.GC()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	if m1.HeapAlloc > m0.HeapAlloc {
		stats.HeapBytes = m1.HeapAlloc - m0.HeapAlloc
	}
	stats.BytesPerProducer = float64(stats.HeapBytes) / float64(sc.Producers)
	stats.RealSeconds = time.Since(realStart).Seconds() //hbvet:allow wallclock -- closes the harness real-time budget opened above
	if err := simcheck.Ceiling("p99 delivery latency (virtual ms)",
		float64(stats.P99.Milliseconds()), float64(sc.P99Ceiling.Milliseconds())); err != nil {
		return stats, err
	}
	if err := simcheck.Ceiling("heap bytes per producer",
		stats.BytesPerProducer, sc.BytesPerProducerCeiling); err != nil {
		return stats, err
	}
	return stats, nil
}
