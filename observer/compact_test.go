package observer

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// TestCompactorConservation: over any sequence of absorbed child windows
// and interleaved flushes, the summed Records and Missed of the emitted
// compacted windows must equal the sums absorbed — compaction is exactly
// as loss-transparent as downsampling.
func TestCompactorConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	apps := []string{"a", "b", "c", "d"}
	c := NewRollupCompactor()
	var inRecs, inMiss, outRecs, outMiss uint64
	for round := 0; round < 50; round++ {
		for i, n := 0, rng.Intn(10); i < n; i++ {
			r := Rollup{
				App:     apps[rng.Intn(len(apps))],
				Records: uint64(rng.Intn(1000)),
				Missed:  uint64(rng.Intn(100)),
			}
			inRecs += r.Records
			inMiss += r.Missed
			c.Absorb(r)
		}
		for _, r := range c.Flush(time.Unix(int64(round), 0), time.Unix(int64(round+1), 0)) {
			outRecs += r.Records
			outMiss += r.Missed
		}
	}
	if outRecs != inRecs || outMiss != inMiss {
		t.Fatalf("compaction does not conserve: out %d/%d, in %d/%d", outRecs, outMiss, inRecs, inMiss)
	}
}

// TestCompactorSilentApps: a tracked app with nothing absorbed is still
// emitted — as a silent window — and a window with only losses is not
// silent (the Silent() distinction survives compaction).
func TestCompactorSilentApps(t *testing.T) {
	c := NewRollupCompactor()
	c.track("quiet")
	c.Absorb(Rollup{App: "lossy", Missed: 7})
	rs := c.Flush(time.Unix(0, 0), time.Unix(1, 0))
	if len(rs) != 2 {
		t.Fatalf("emitted %d windows, want 2", len(rs))
	}
	byApp := map[string]Rollup{}
	for _, r := range rs {
		byApp[r.App] = r
	}
	if !byApp["quiet"].Silent() {
		t.Fatalf("tracked-but-unfed app not silent: %+v", byApp["quiet"])
	}
	if byApp["lossy"].Silent() {
		t.Fatal("a losses-only window compacted to silent — loss hidden")
	}
	if byApp["lossy"].Missed != 7 {
		t.Fatalf("lossy Missed = %d, want 7", byApp["lossy"].Missed)
	}
}

// TestCompactorSingleSource: with one child window per interval the
// compacted window passes the descriptive fields through.
func TestCompactorSingleSource(t *testing.T) {
	c := NewRollupCompactor()
	in := Rollup{
		App: "app", Records: 10, Missed: 2, Count: 42,
		MinInterval: 90 * time.Millisecond, MaxInterval: 110 * time.Millisecond,
		MeanInterval: 100 * time.Millisecond,
	}
	c.Absorb(in)
	out := c.Flush(time.Unix(0, 0), time.Unix(1, 0))[0]
	if out.Records != 10 || out.Missed != 2 || out.Count != 42 {
		t.Fatalf("counts mangled: %+v", out)
	}
	if out.MinInterval != in.MinInterval || out.MaxInterval != in.MaxInterval || out.MeanInterval != in.MeanInterval {
		t.Fatalf("intervals mangled: %+v", out)
	}
	if !out.RateOK || out.Rate.PerSec != in.ObservedRate() {
		t.Fatalf("rate %v (ok=%v), want %v", out.Rate.PerSec, out.RateOK, in.ObservedRate())
	}
	// Count is cumulative: it survives an empty interval.
	next := c.Flush(time.Unix(1, 0), time.Unix(2, 0))[0]
	if next.Count != 42 || !next.Silent() {
		t.Fatalf("next interval: %+v, want silent with Count 42", next)
	}
}

// TestCompactorWeightedSummaries: two children of unequal volume combine
// into record-weighted means and cross-child extremes.
func TestCompactorWeightedSummaries(t *testing.T) {
	c := NewRollupCompactor()
	c.Absorb(Rollup{
		App: "app", Records: 30, Count: 30,
		MinInterval: 50 * time.Millisecond, MaxInterval: 150 * time.Millisecond,
		MeanInterval: 100 * time.Millisecond,
	})
	c.Absorb(Rollup{
		App: "app", Records: 10, Count: 40,
		MinInterval: 200 * time.Millisecond, MaxInterval: 400 * time.Millisecond,
		MeanInterval: 300 * time.Millisecond,
	})
	out := c.Flush(time.Unix(0, 0), time.Unix(1, 0))[0]
	if out.Records != 40 {
		t.Fatalf("Records = %d, want 40", out.Records)
	}
	if out.Count != 40 {
		t.Fatalf("Count = %d, want the largest advertised 40", out.Count)
	}
	if out.MinInterval != 50*time.Millisecond || out.MaxInterval != 400*time.Millisecond {
		t.Fatalf("extremes: %v..%v", out.MinInterval, out.MaxInterval)
	}
	// Weighted mean: (100ms*30 + 300ms*10) / 40 = 150ms.
	if got, want := out.MeanInterval, 150*time.Millisecond; got < want-time.Millisecond || got > want+time.Millisecond {
		t.Fatalf("MeanInterval = %v, want ~%v", got, want)
	}
	// Weighted rate: (10/s*30 + 10/3/s*10)/40 = 8.333/s.
	if !out.RateOK || out.Rate.PerSec < 8.2 || out.Rate.PerSec > 8.5 {
		t.Fatalf("Rate = %+v, want ~8.33/s weighted", out.Rate)
	}
}

// TestCompactorOrder: emission order is registration order, like the
// Downsampler, so a subscriber sees a stable app layout.
func TestCompactorOrder(t *testing.T) {
	c := NewRollupCompactor()
	c.Absorb(Rollup{App: "z"})
	c.track("a")
	c.Absorb(Rollup{App: "m"})
	if got, want := c.Apps(), []string{"z", "a", "m"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Apps() = %v, want %v", got, want)
	}
	var order []string
	for _, r := range c.Flush(time.Unix(0, 0), time.Unix(1, 0)) {
		order = append(order, r.App)
	}
	if !reflect.DeepEqual(order, []string{"z", "a", "m"}) {
		t.Fatalf("flush order %v", order)
	}
}
