package sched

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func testConfig(seed int64) FleetConfig {
	return FleetConfig{
		Seed: seed, Producers: 20000, Apps: 64, ZipfS: 1.1,
		PeriodTicks: 10, CycleTicks: 1000,
		ChurnFrac: 0.1, Bursts: 2, BurstFrac: 0.1, BurstTicks: 50,
	}
}

func TestSameSeedSameBytes(t *testing.T) {
	a, b := NewFleet(testConfig(7)), NewFleet(testConfig(7))
	if !bytes.Equal(a.Encode(), b.Encode()) {
		t.Fatal("seed 7 produced two different schedules")
	}
	if bytes.Equal(a.Encode(), NewFleet(testConfig(8)).Encode()) {
		t.Fatal("seeds 7 and 8 produced the same schedule")
	}
	ca, cb := make([]int, 64), make([]int, 64)
	for k := 0; k < 2000; k++ {
		if a.Tick(k, ca) != b.Tick(k, cb) {
			t.Fatalf("tick %d differs between equal schedules", k)
		}
	}
}

func TestZipfSlope(t *testing.T) {
	z := NewZipf(64, 1.1)
	rng := rand.New(rand.NewSource(3))
	counts := make([]float64, 64)
	for i := 0; i < 400000; i++ {
		counts[z.Sample(rng)]++
	}
	// Rank-frequency slope between rank 1 and rank 32 in log-log space.
	slope := (math.Log(counts[31]) - math.Log(counts[0])) / math.Log(32)
	if math.Abs(slope+1.1) > 0.08 {
		t.Errorf("slope %.3f, want about -1.1", slope)
	}
	for r, c := range counts {
		if c == 0 {
			t.Errorf("rank %d never drawn", r)
		}
	}
}

func TestFleetRateAndSilence(t *testing.T) {
	cfg := testConfig(11)
	f := NewFleet(cfg)
	total := 0
	for _, n := range f.PerApp {
		total += n
	}
	if total != cfg.Producers {
		t.Fatalf("apps carry %d producers, want %d", total, cfg.Producers)
	}
	perTick := make([]int, cfg.CycleTicks)
	counts := make([]int, cfg.Apps)
	beats := 0
	for k := range perTick {
		perTick[k] = f.Tick(k, counts)
		beats += perTick[k]
	}
	// Every producer beats CycleTicks/PeriodTicks times a cycle, less what
	// churn and bursts remove (well under a fifth).
	full := cfg.Producers * cfg.CycleTicks / cfg.PeriodTicks
	if beats >= full || beats < full*4/5 {
		t.Errorf("%d beats a cycle, want a little under %d", beats, full)
	}
	// The second cycle repeats the first.
	for k := range perTick {
		if got := f.Tick(cfg.CycleTicks+k, counts); got != perTick[k] {
			t.Fatalf("tick %d: %d beats, then %d a cycle later", k, perTick[k], got)
		}
	}
	// Inside a burst its whole id range is quiet.
	b := f.Bursts[0]
	quiet := make([]int, cfg.Apps)
	f.Tick(int(b.From), quiet)
	mid := f.Producers[(b.Lo+b.Hi)/2].App
	first, last := f.Producers[b.Lo].App, f.Producers[b.Hi-1].App
	if mid != first && mid != last && quiet[mid] != 0 {
		t.Errorf("app %d lies wholly inside burst 0 yet beat %d times during it", mid, quiet[mid])
	}
}

func TestOrderIsASeededPermutation(t *testing.T) {
	a, b := Order(5, 8), Order(5, 8)
	seen := make([]bool, 8)
	for i, v := range a {
		if v != b[i] {
			t.Fatal("same seed, different order")
		}
		seen[v] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Errorf("%d missing from permutation", v)
		}
	}
}
