package heartbeat_test

import (
	"sync"
	"testing"

	"repro/heartbeat"
)

// collectSink records every delivered record, batch or single. The
// aggregator serializes deliveries, but the sink locks anyway so the test
// doesn't depend on that.
type collectSink struct {
	mu      sync.Mutex
	records []heartbeat.Record
	batches int
}

func (s *collectSink) WriteRecord(r heartbeat.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.records = append(s.records, r)
	return nil
}

func (s *collectSink) WriteRecords(recs []heartbeat.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.records = append(s.records, recs...)
	s.batches++
	return nil
}

// The core no-lost-records guarantee of the sharded hot path: 32 goroutines
// hammer GlobalBeatTag concurrently with observer reads, and afterwards the
// sink must have received every single record, with dense strictly
// increasing global sequence numbers and every thread's tags in order.
func TestShardedGlobalBeatsLoseNothing(t *testing.T) {
	const (
		workers = 32
		beats   = 10000
	)
	sink := &collectSink{}
	hb, err := heartbeat.New(10,
		heartbeat.WithCapacity(1<<10),
		heartbeat.WithShardCapacity(1<<12),
		heartbeat.WithSink(sink))
	if err != nil {
		t.Fatal(err)
	}

	// Observers hammer the merge-on-read path while producers beat.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var lastCount uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				if c := hb.Count(); c < lastCount {
					t.Errorf("Count went backwards: %d then %d", lastCount, c)
					return
				} else {
					lastCount = c
				}
				recs := hb.History(256)
				for j := 1; j < len(recs); j++ {
					if recs[j].Seq <= recs[j-1].Seq {
						t.Errorf("history out of order: %d then %d", recs[j-1].Seq, recs[j].Seq)
						return
					}
				}
				hb.Rate(0)
			}
		}()
	}

	var wg sync.WaitGroup
	threads := make([]*heartbeat.Thread, workers)
	for w := 0; w < workers; w++ {
		threads[w] = hb.Thread("stress")
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(tr *heartbeat.Thread) {
			defer wg.Done()
			for i := 1; i <= beats; i++ {
				tr.GlobalBeatTag(int64(i))
			}
		}(threads[w])
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	hb.Flush()

	if got := hb.Count(); got != workers*beats {
		t.Fatalf("Count = %d, want %d", got, workers*beats)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.records) != workers*beats {
		t.Fatalf("sink received %d records, want %d", len(sink.records), workers*beats)
	}
	if sink.batches == 0 {
		t.Fatal("batch delivery never used")
	}
	perThread := make(map[int32]int64, workers)
	for i, r := range sink.records {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d: global sequence not dense/increasing", i, r.Seq)
		}
		if r.Producer <= 0 || int(r.Producer) > workers {
			t.Fatalf("record %d has producer %d", i, r.Producer)
		}
		if want := perThread[r.Producer] + 1; r.Tag != want {
			t.Fatalf("producer %d: tag %d arrived after %d — per-thread order broken",
				r.Producer, r.Tag, perThread[r.Producer])
		}
		perThread[r.Producer]++
	}
	for id, n := range perThread {
		if n != beats {
			t.Fatalf("producer %d delivered %d records, want %d", id, n, beats)
		}
	}
	if err := hb.SinkErr(); err != nil {
		t.Fatal(err)
	}
}

// Without a sink the aggregator may discard surplus records lazily (they
// could never be read back from a bounded history anyway), but Count must
// stay exact and History dense-ordered under heavy concurrent wraparound.
func TestShardedBacklogDiscardKeepsAccounting(t *testing.T) {
	const (
		workers = 8
		beats   = 50000
	)
	hb, err := heartbeat.New(10,
		heartbeat.WithCapacity(128),
		heartbeat.WithShardCapacity(1<<12))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		tr := hb.Thread("wrap")
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= beats; i++ {
				tr.GlobalBeatTag(int64(i))
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var last uint64
		for {
			recs := hb.History(128)
			for j := 1; j < len(recs); j++ {
				if recs[j].Seq <= recs[j-1].Seq {
					t.Errorf("history out of order under discard: %d then %d",
						recs[j-1].Seq, recs[j].Seq)
					return
				}
			}
			// Count must be monotonic and must never overshoot the
			// true total (a mid-merge estimate double-counting a
			// record would latch into the monotonic clamp forever).
			c := hb.Count()
			if c < last {
				t.Errorf("Count went backwards: %d then %d", last, c)
				return
			}
			if c > workers*beats {
				t.Errorf("Count overshot: %d > %d", c, workers*beats)
				return
			}
			last = c
			if c >= workers*beats {
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if got := hb.Count(); got != workers*beats {
		t.Fatalf("Count = %d, want %d", got, workers*beats)
	}
	recs := hb.History(1 << 20)
	if len(recs) == 0 || len(recs) > 128 {
		t.Fatalf("History returned %d records with capacity 128", len(recs))
	}
	if last := recs[len(recs)-1].Seq; last != workers*beats {
		t.Fatalf("newest seq = %d, want %d", last, workers*beats)
	}
}

// The beat hot paths must not allocate: local beats, tagged local beats,
// and global (sharded) beats, including their amortized aggregator flushes.
func TestBeatHotPathDoesNotAllocate(t *testing.T) {
	hb, err := heartbeat.New(20, heartbeat.WithCapacity(256), heartbeat.WithShardCapacity(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	tr := hb.Thread("alloc")
	// Warm up so the aggregator's reusable scratch buffers exist.
	for i := 0; i < 4096; i++ {
		tr.Beat()
		tr.GlobalBeatTag(int64(i))
	}
	hb.Flush()
	if got := testing.AllocsPerRun(20000, tr.Beat); got != 0 {
		t.Errorf("Thread.Beat allocates %v per op", got)
	}
	if got := testing.AllocsPerRun(20000, func() { tr.BeatTag(7) }); got != 0 {
		t.Errorf("Thread.BeatTag allocates %v per op", got)
	}
	if got := testing.AllocsPerRun(20000, tr.GlobalBeat); got != 0 {
		t.Errorf("Thread.GlobalBeat allocates %v per op", got)
	}
	if got := testing.AllocsPerRun(20000, func() { tr.GlobalBeatTag(7) }); got != 0 {
		t.Errorf("Thread.GlobalBeatTag allocates %v per op", got)
	}
	// A warmed merge — claim per run, tag scratch, store appends — likewise.
	merge := func() {
		for i := 0; i < 300; i++ {
			tr.GlobalBeatTag(int64(i))
		}
		hb.Flush()
	}
	if got := testing.AllocsPerRun(200, merge); got != 0 {
		t.Errorf("a warmed merge of 300 records allocates %v per run", got)
	}
}
