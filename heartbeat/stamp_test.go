package heartbeat

import (
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

// scriptClock stands in for a Thread's nanos source: the test moves now as it
// likes between beats, and every read is counted. It is installed on a
// default-clock Thread, so the reading is amortised as in production; only the
// wall is replaced.
type scriptClock struct {
	now   int64
	reads int
}

func (c *scriptClock) nanos() int64 { c.reads++; return c.now }

// scriptedThread returns a Thread of a default-clock heartbeat with the given
// window, stamping from a script that starts at a recognisable instant.
func scriptedThread(t *testing.T, window int) (*Thread, *scriptClock) {
	t.Helper()
	hb, err := New(window, WithCapacity(1<<13))
	if err != nil {
		t.Fatal(err)
	}
	tr := hb.Thread("scripted")
	clk := &scriptClock{now: 1_700_000_000_000_000_000}
	tr.nowNanos = clk.nanos
	return tr, clk
}

// beatEvery issues n local beats step nanoseconds apart and returns the
// stamps they were given beside the script's instants.
func beatEvery(tr *Thread, clk *scriptClock, n int, step int64) (stamps, instants []int64) {
	for i := 0; i < n; i++ {
		clk.now += step
		tr.Beat()
		stamps = append(stamps, tr.lastNanos)
		instants = append(instants, clk.now)
	}
	return stamps, instants
}

func wantMaxEvery(window int) int { return max(1, min(maxReuse, window/2)) }

func TestClockReadsPerFastBeats(t *testing.T) {
	const beats = 4096
	for _, window := range []int{2, 3, 20, 128, 1000} {
		tr, clk := scriptedThread(t, window)
		maxEvery := wantMaxEvery(window)
		if tr.h.maxEvery != maxEvery {
			t.Fatalf("window %d: maxEvery = %d, want %d", window, tr.h.maxEvery, maxEvery)
		}
		stamps, instants := beatEvery(tr, clk, beats, 30) // 30 ns apart: 64 beats fit in half a span many times over
		if limit := beats/maxEvery + 8; clk.reads > limit {
			t.Errorf("window %d: %d clock reads for %d fast beats, want at most %d", window, clk.reads, beats, limit)
		}
		if maxEvery > 1 && clk.reads == beats {
			t.Errorf("window %d: every beat read the clock", window)
		}
		for i := range stamps {
			if age := instants[i] - stamps[i]; age < 0 || age > reuseSpan {
				t.Fatalf("window %d: beat %d stamped %d ns off the script", window, i, age)
			}
		}
	}
}

// A thread whose beats are a reuse span or more apart must stamp exactly as
// if nothing were amortised.
func TestSlowBeatsReadTheClockEveryTime(t *testing.T) {
	const beats = 4096
	for _, step := range []int64{reuseSpan, reuseSpan + 1, 3 * reuseSpan, int64(time.Second)} {
		tr, clk := scriptedThread(t, 1000)
		stamps, instants := beatEvery(tr, clk, beats, step)
		if clk.reads != beats {
			t.Errorf("step %d ns: %d clock reads for %d beats", step, clk.reads, beats)
		}
		for i := range stamps {
			if stamps[i] != instants[i] {
				t.Fatalf("step %d ns: beat %d stamped %d, script says %d", step, i, stamps[i], instants[i])
			}
		}
	}
}

// An injected clock — SystemClock included — is read on every beat however
// fast the beats come.
func TestInjectedClockIsNeverAmortised(t *testing.T) {
	hb, err := New(1000, WithClock(SystemClock()))
	if err != nil {
		t.Fatal(err)
	}
	tr := hb.Thread("exact")
	clk := &scriptClock{now: 1}
	tr.nowNanos = clk.nanos
	stamps, instants := beatEvery(tr, clk, 4096, 1)
	if clk.reads != 4096 {
		t.Fatalf("%d clock reads for 4096 beats on an injected clock", clk.reads)
	}
	for i := range stamps {
		if stamps[i] != instants[i] {
			t.Fatalf("beat %d stamped %d, script says %d", i, stamps[i], instants[i])
		}
	}
}

// Burst, stall, then slow beats: only what was left of the run in flight is
// stamped with the reading from before the stall, and the first reading after
// it puts every back to 1.
func TestBurstStallResume(t *testing.T) {
	for _, stall := range []int64{reuseSpan + 1, 2 * reuseSpan, int64(time.Second)} {
		for _, left := range []int{0, 1, maxReuse - 1} {
			tr, clk := scriptedThread(t, 1000)
			beatEvery(tr, clk, 4096, 30)
			if tr.every != maxReuse {
				t.Fatalf("every = %d after the burst, want %d", tr.every, maxReuse)
			}
			for tr.reuse != left {
				beatEvery(tr, clk, 1, 30)
			}
			clk.now += stall
			before := clk.reads
			stamps, instants := beatEvery(tr, clk, left+1, 30)
			if got := clk.reads - before; got != 1 {
				t.Fatalf("stall %d ns, %d left: %d readings in the %d beats after the stall, want 1", stall, left, got, left+1)
			}
			if tr.every != 1 {
				t.Errorf("stall %d ns, %d left: every = %d after the first reading past the stall, want 1", stall, left, tr.every)
			}
			if last := len(stamps) - 1; stamps[last] != instants[last] {
				t.Errorf("stall %d ns, %d left: the reading after the stall stamped %d, script says %d", stall, left, stamps[last], instants[last])
			}
			// Slow beats from here on are exact.
			stamps, instants = beatEvery(tr, clk, 256, reuseSpan)
			for i := range stamps {
				if stamps[i] != instants[i] {
					t.Fatalf("stall %d ns, %d left: slow beat %d stamped %d, script says %d", stall, left, i, stamps[i], instants[i])
				}
			}
		}
	}
}

// A backward wall step must plateau the stamps — also when the step falls
// between two readings of an amortised run — until the wall catches up.
func TestBackwardStepAcrossRefreshPlateaus(t *testing.T) {
	tr, clk := scriptedThread(t, 1000)
	stamps, _ := beatEvery(tr, clk, 1000, 30)
	high := stamps[len(stamps)-1]
	clk.now -= int64(time.Second)
	stamps, instants := beatEvery(tr, clk, 5000, 30)
	for i, s := range stamps {
		if s != high {
			t.Fatalf("beat %d after the step stamped %d, want the plateau %d (script at %d)", i, s, high, instants[i])
		}
	}
	clk.now = high + int64(time.Millisecond)
	stamps, _ = beatEvery(tr, clk, 200, 30)
	if last := stamps[len(stamps)-1]; last <= high {
		t.Fatalf("stamps stuck at %d after the wall caught up", last)
	}
	for i := 1; i < len(stamps); i++ {
		if stamps[i] < stamps[i-1] {
			t.Fatalf("stamps ran backwards: %d then %d", stamps[i-1], stamps[i])
		}
	}
}

// Any Window() consecutive beats of one thread carry at least two distinct
// stamps, at any beat rate: Rate stays answerable.
func TestEveryWindowHasTwoStamps(t *testing.T) {
	for _, window := range []int{2, 3, 20, 128, 1000} {
		for _, step := range []int64{1, 30, 700, 6_000, 40_000} {
			tr, clk := scriptedThread(t, window)
			stamps, _ := beatEvery(tr, clk, 8192, step)
			for i := 0; i+window <= len(stamps); i++ {
				if stamps[i] == stamps[i+window-1] {
					t.Fatalf("window %d, step %d ns: beats %d–%d share one stamp", window, step, i, i+window-1)
				}
			}
		}
		// And through the public surface, on the real clock.
		hb, err := New(window, WithCapacity(1<<13))
		if err != nil {
			t.Fatal(err)
		}
		tr := hb.Thread("hot")
		for i := 0; i < 200; i++ {
			for j := 0; j < 40; j++ {
				tr.Beat()
				tr.GlobalBeat()
			}
			if _, ok := tr.Rate(0); !ok {
				t.Fatalf("window %d: Thread.Rate(0) not ok on a hot thread (round %d)", window, i)
			}
			if _, ok := hb.Rate(0); !ok {
				t.Fatalf("window %d: Heartbeat.Rate(0) not ok on a hot heartbeat (round %d)", window, i)
			}
		}
	}
}

// The one timed test: with every P spinning on beats, a stamp handed out is
// within one reuse span of the wall clock at p90. (The tail belongs to the
// scheduler: a producer preempted between a reading and its reuse.) A build
// too slow for a run of maxReuse beats to fit in half a span — the race
// detector's — never amortises fully and is not what is being timed.
func TestStampLagUnderSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("timed")
	}
	hb, err := New(1000, WithCapacity(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 1024
	var (
		mu           sync.Mutex
		lags, chunks []int64
		wg           sync.WaitGroup
	)
	deadline := time.Now().Add(200 * time.Millisecond)
	for p := 0; p < runtime.GOMAXPROCS(0); p++ {
		tr := hb.Thread("spin")
		wg.Add(1)
		go func() {
			defer wg.Done()
			var myLags, myChunks []int64
			for start := time.Now(); start.Before(deadline); {
				for i := 0; i < chunk; i++ {
					tr.GlobalBeatTag(int64(i))
				}
				end := time.Now()
				myLags = append(myLags, end.UnixNano()-tr.lastNanos)
				myChunks = append(myChunks, int64(end.Sub(start)))
				start = end
			}
			mu.Lock()
			lags, chunks = append(lags, myLags...), append(chunks, myChunks...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	sort.Slice(chunks, func(i, j int) bool { return chunks[i] < chunks[j] })
	p50, p90, p99 := lags[len(lags)/2], lags[len(lags)*9/10], lags[len(lags)*99/100]
	t.Logf("stamp lag over %d samples: p50 %d ns, p90 %d ns, p99 %d ns, max %d ns", len(lags), p50, p90, p99, lags[len(lags)-1])
	if perBeat := chunks[len(chunks)/2] / chunk; perBeat*maxReuse > reuseSpan/2 {
		t.Skipf("a beat takes %d ns here: %d of them do not fit in half a reuse span", perBeat, maxReuse)
	}
	if p90 > reuseSpan {
		t.Fatalf("p90 stamp lag %d ns exceeds the reuse span %d ns", p90, reuseSpan)
	}
}
