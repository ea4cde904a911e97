package heartbeat_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/heartbeat"
	"repro/internal/ring"
)

func TestThreadRegistration(t *testing.T) {
	hb, _ := newTestHB(t, 5)
	t1 := hb.Thread("worker-1")
	t2 := hb.Thread("worker-2")
	if t1.ID() == t2.ID() {
		t.Fatalf("thread IDs collide: %d", t1.ID())
	}
	if t1.Name() != "worker-1" || t2.Name() != "worker-2" {
		t.Fatalf("names = %q, %q", t1.Name(), t2.Name())
	}
}

func TestThreadLocalHistoriesArePrivate(t *testing.T) {
	hb, clk := newTestHB(t, 5)
	t1 := hb.Thread("a")
	t2 := hb.Thread("b")
	for i := 0; i < 4; i++ {
		clk.Advance(100 * time.Millisecond)
		t1.BeatTag(int64(i))
	}
	clk.Advance(100 * time.Millisecond)
	t2.Beat()

	if t1.Count() != 4 || t2.Count() != 1 {
		t.Fatalf("counts = %d, %d", t1.Count(), t2.Count())
	}
	if hb.Count() != 0 {
		t.Fatalf("local beats leaked to global history: %d", hb.Count())
	}
	recs := t1.History(10)
	if len(recs) != 4 {
		t.Fatalf("t1 history = %d", len(recs))
	}
	for i, r := range recs {
		if r.Producer != t1.ID() || r.Tag != int64(i) || r.Seq != uint64(i+1) {
			t.Fatalf("t1 record %d = %+v", i, r)
		}
	}
	r, ok := t1.Rate(0)
	if !ok || r < 9.99 || r > 10.01 {
		t.Fatalf("t1 Rate = %v, want 10", r)
	}
	if _, ok := t2.Rate(0); ok {
		t.Fatal("t2 Rate ok with a single beat")
	}
}

func TestThreadGlobalBeatAttribution(t *testing.T) {
	hb, clk := newTestHB(t, 5)
	tr := hb.Thread("worker")
	clk.Advance(time.Millisecond)
	tr.GlobalBeat()
	tr.GlobalBeatTag(9)
	if hb.Count() != 2 {
		t.Fatalf("global Count = %d, want 2", hb.Count())
	}
	if tr.Count() != 0 {
		t.Fatalf("global beats leaked into local history: %d", tr.Count())
	}
	recs := hb.History(2)
	if recs[0].Producer != tr.ID() || recs[1].Tag != 9 {
		t.Fatalf("History = %+v", recs)
	}
}

func TestThreadsConcurrentWithGlobal(t *testing.T) {
	hb, err := heartbeat.New(10, heartbeat.WithCapacity(1<<13))
	if err != nil {
		t.Fatal(err)
	}
	const workers, beats = 8, 300
	var wg sync.WaitGroup
	threads := make([]*heartbeat.Thread, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr := hb.Thread("w")
			threads[w] = tr
			for i := 0; i < beats; i++ {
				tr.Beat()
				tr.GlobalBeat()
			}
		}(w)
	}
	wg.Wait()
	if hb.Count() != workers*beats {
		t.Fatalf("global Count = %d, want %d", hb.Count(), workers*beats)
	}
	for _, tr := range threads {
		if tr.Count() != beats {
			t.Fatalf("thread Count = %d, want %d", tr.Count(), beats)
		}
	}
}

// totalAlloc returns the bytes allocated so far by the process.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// A Thread allocates its local ring on its first local beat: threads that
// beat only globally cost less than one local ring each, and read as an
// empty local history until they beat locally.
func TestThreadLocalRingOnDemand(t *testing.T) {
	const capacity = 1 << 16
	before := totalAlloc()
	ring.NewSP(capacity)
	ringBytes := totalAlloc() - before

	// A small shard ring, so that a local ring would dominate each
	// Thread's cost.
	hb, err := heartbeat.New(10, heartbeat.WithCapacity(capacity), heartbeat.WithShardCapacity(256))
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Close()
	const threads = 64
	before = totalAlloc()
	for i := 0; i < threads; i++ {
		hb.Thread("global-only").GlobalBeat()
	}
	if grew := totalAlloc() - before; grew >= threads*ringBytes {
		t.Fatalf("%d global-only Threads allocated %d bytes, %d each; one local ring is %d", threads, grew, grew/threads, ringBytes)
	}
	if hb.Count() != threads {
		t.Fatalf("global Count = %d, want %d", hb.Count(), threads)
	}

	hb2, clk := newTestHB(t, 5)
	tr := hb2.Thread("local")
	tr.GlobalBeat()
	if n, h := tr.Count(), tr.History(10); n != 0 || h != nil {
		t.Fatalf("before the first local beat: Count %d, History %v", n, h)
	}
	if _, ok := tr.Rate(0); ok {
		t.Fatal("Rate ok before the first local beat")
	}
	for i := 0; i < 3; i++ {
		clk.Advance(100 * time.Millisecond)
		tr.BeatTag(int64(i))
	}
	if tr.Count() != 3 {
		t.Fatalf("Count = %d, want 3", tr.Count())
	}
	for i, r := range tr.History(10) {
		if r.Seq != uint64(i+1) || r.Tag != int64(i) || r.Producer != tr.ID() {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	if r, ok := tr.Rate(0); !ok || r < 9.99 || r > 10.01 {
		t.Fatalf("Rate = %v, %v; want 10", r, ok)
	}
}

// A producer's first local beat, which publishes the local ring, races
// readers of Count, History and Rate: run under -race.
func TestThreadLocalRingFirstBeatRace(t *testing.T) {
	hb, err := heartbeat.New(8, heartbeat.WithCapacity(64))
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Close()
	const beats = 20
	for round := 0; round < 50; round++ {
		tr := hb.Thread("w")
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var last uint64
				for {
					select {
					case <-stop:
						return
					default:
					}
					n := tr.Count()
					if n < last || n > beats {
						t.Errorf("Count went %d -> %d", last, n)
						return
					}
					last = n
					for _, rec := range tr.History(beats) {
						if rec.Producer != tr.ID() || rec.Tag != int64(rec.Seq-1) {
							t.Errorf("record %+v", rec)
							return
						}
					}
					tr.Rate(0)
				}
			}()
		}
		for i := 0; i < beats; i++ {
			tr.BeatTag(int64(i))
		}
		close(stop)
		wg.Wait()
		if tr.Count() != beats || len(tr.History(beats)) != beats {
			t.Fatalf("round %d: Count %d, History %d; want %d", round, tr.Count(), len(tr.History(beats)), beats)
		}
	}
}
