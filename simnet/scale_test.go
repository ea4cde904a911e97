package simnet

import (
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"
)

// The scale matrix: seeded ScaleScenario runs at PR scale (10k producers),
// plus the bigger tiers — 100k always (outside -short and -race), 1M only
// behind SCALE_FULL=1. Every failure prints SCALE_SEED=<n>; re-running
// with that environment variable set replays exactly that scenario.

func scaleSeeds(t *testing.T, def []int64) []int64 {
	t.Helper()
	env := os.Getenv("SCALE_SEED")
	if env == "" {
		return def
	}
	n, err := strconv.ParseInt(env, 10, 64)
	if err != nil {
		t.Fatalf("SCALE_SEED=%q: %v", env, err)
	}
	return []int64{n}
}

func logScale(t *testing.T, sc ScaleScenario, st ScaleStats) {
	t.Helper()
	t.Logf("scale: %v delivered=%d missed=%d churn=%d/%d silenced=%d handoffs=%d shed=%d p50=%v p95=%v p99=%v bytes/producer=%.0f rootApps=%d rollupApps=%d sim=%.1fs real=%.1fs",
		sc, st.Delivered, st.Missed, st.Left, st.Rejoined, st.Silenced, st.Handoffs, st.Shed,
		st.P50, st.P95, st.P99, st.BytesPerProducer, st.RootApps, st.RootRollupApps,
		st.SimSeconds, st.RealSeconds)
}

// TestScaleMatrix is the PR-scale shard: three seeds at 10k producers
// (2k under the race detector), each a full relay-tree run with Zipf
// skew, churn and silence bursts, gated by the conservation invariants
// and the p99/bytes ceilings inside ScaleScenario.Run.
func TestScaleMatrix(t *testing.T) {
	producers := 10_000
	if raceEnabled {
		producers = 2_000
	}
	for _, seed := range scaleSeeds(t, []int64{1, 2, 3}) {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			sc := GenerateScale(seed, producers)
			st, err := sc.Run()
			if err != nil {
				t.Fatalf("SCALE_SEED=%d: %v", seed, err)
			}
			logScale(t, sc, st)
		})
	}
}

// TestScale100k is the acceptance tier: a seeded 100k-producer run with
// the full load shape must complete, invariants green, inside a minute of
// real time.
func TestScale100k(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-producer run: skipped in -short (PR shard runs 10k)")
	}
	if raceEnabled {
		t.Skip("100k-producer run: skipped under -race")
	}
	const seed = 7
	sc := GenerateScale(seed, 100_000)
	start := time.Now()
	st, err := sc.Run()
	if err != nil {
		t.Fatalf("SCALE_SEED=%d: %v", seed, err)
	}
	logScale(t, sc, st)
	if real := time.Since(start); real > 60*time.Second {
		t.Fatalf("SCALE_SEED=%d: 100k-producer run took %v real, budget 60s", seed, real)
	}
}

// TestScale1M is the full tier, behind SCALE_FULL=1: a million simulated
// producers through the same tree, same invariants.
func TestScale1M(t *testing.T) {
	if os.Getenv("SCALE_FULL") == "" {
		t.Skip("1M-producer run: set SCALE_FULL=1")
	}
	if raceEnabled {
		t.Skip("1M-producer run: skipped under -race")
	}
	const seed = 11
	sc := GenerateScale(seed, 1_000_000)
	st, err := sc.Run()
	if err != nil {
		t.Fatalf("SCALE_SEED=%d: %v", seed, err)
	}
	logScale(t, sc, st)
}

// TestScaleRollupStateGrowth pins the O(apps) claim with arithmetic: two
// runs carrying the SAME total record volume, one with 10× the producers
// of the other. Since record volume (ring and frame-cache state) is held
// equal, the heap delta between them is the marginal cost of 18k extra
// producers — which must be pump state (a heap entry and a prod struct),
// not per-producer relay state. The root's compacted app count must not
// move at all.
func TestScaleRollupStateGrowth(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting under -race measures the detector, not the relay")
	}
	run := func(producers, beats int) ScaleStats {
		t.Helper()
		sc := ScaleScenario{
			Seed:      42,
			Producers: producers,
			Apps:      16,
			Leaves:    4,
			Duration:  5 * time.Second,
			BeatEvery: 5 * time.Second / time.Duration(beats),
			// No churn or bursts: this test isolates state growth, and
			// the withDefaults zero-churn path keeps both runs identical
			// in shape.
		}
		st, err := sc.Run()
		if err != nil {
			t.Fatalf("SCALE_SEED=42 (producers=%d): %v", producers, err)
		}
		logScale(t, sc, st)
		return st
	}
	small := run(2_000, 50) // 2k producers × ~50 beats ≈ 100k records
	big := run(20_000, 5)   // 20k producers × ~5 beats ≈ 100k records
	if small.RootRollupApps != big.RootRollupApps {
		t.Fatalf("root rollup state moved with the fleet: %d apps at 2k producers, %d at 20k",
			small.RootRollupApps, big.RootRollupApps)
	}
	marginal := (float64(big.HeapBytes) - float64(small.HeapBytes)) / float64(20_000-2_000)
	t.Logf("scale: marginal heap cost %.0f bytes/producer at equal record volume", marginal)
	if marginal > 1024 {
		t.Fatalf("10× producers at equal record volume cost %.0f bytes each — relay state is not O(apps)", marginal)
	}
}
